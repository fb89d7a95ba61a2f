//! Replayable regression cases: a workload and a minimal fault schedule,
//! persisted as JSON.
//!
//! `bench simcheck … --write DIR` saves every shrunk violation as a
//! [`RegressionCase`]: the inputs the explorer built the failing session
//! from (scale, pooled audience, and the `--scenario` spec's TOML text,
//! verbatim), the session seed, the shrunk windows, and the oracle that
//! fired. [`RegressionCase::check`] rebuilds that session through
//! [`Scenario::new`], as the explorer did, and replays the windows against
//! the standard oracle set. The committed corpus lives in
//! `tests/regressions/`: to add a case, write it there with `--write`, then
//! rename the file and reword its description.

use metaclass_core::ScenarioSpec;
use metaclass_netsim::{EngineConfig, FaultWindow};
use serde::{Deserialize, Serialize};

use crate::explore::run_plan;
use crate::oracles::standard_oracles;
use crate::scenario::Scenario;

/// Current on-disk schema version; bump on incompatible format changes.
pub const SCHEMA_VERSION: u32 = 2;

/// A persisted, replayable fault schedule with its workload and expected
/// outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RegressionCase {
    /// On-disk format version (currently 2).
    pub schema_version: u32,
    /// What this case pins down, for humans reading the corpus.
    pub description: String,
    /// Quick (test-sized) or full scenario.
    pub quick: bool,
    /// Members of the flyweight pooled audience (`--pooled`; 0 for none).
    pub pooled: u64,
    /// The `--scenario` spec's TOML text, verbatim, so a later edit of the
    /// spec file cannot change what the case replays; `None` for the
    /// classic two-campus spec.
    pub scenario: Option<String>,
    /// Seed of the replayed session.
    pub session_seed: u64,
    /// The fault schedule, at window granularity. Any of the spec's own
    /// stress faults that survived shrinking are among them; replay adds
    /// none.
    pub windows: Vec<FaultWindow>,
    /// Name of the oracle expected to fire, or `None` for a clean run.
    pub expect_violation: Option<String>,
}

impl RegressionCase {
    /// Serializes the case as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("regression case serializes")
    }

    /// Parses a case from JSON, rejecting unknown fields and other schema
    /// versions.
    pub fn from_json(json: &str) -> Result<RegressionCase, String> {
        let case: RegressionCase = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if case.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema version {} (expected {SCHEMA_VERSION})",
                case.schema_version
            ));
        }
        Ok(case)
    }

    /// The checked session this case replays, built as the explorer built
    /// it ([`Scenario::new`]).
    ///
    /// # Errors
    ///
    /// Spec text that does not parse (naming its line), or a workload
    /// [`Scenario::new`] rejects.
    pub fn scenario(&self) -> Result<Scenario, String> {
        let spec = self.scenario.as_deref().map(ScenarioSpec::from_toml_str).transpose();
        let spec = spec.map_err(|e| format!("scenario: {e}"))?;
        Scenario::new(self.quick, self.session_seed, spec, self.pooled)
    }

    /// Replays the case on `engine` and compares the outcome against
    /// `expect_violation`. `Ok(())` when they match; `Err` describes the
    /// divergence, or a workload or window the case cannot host (checked
    /// before any replay).
    pub fn check(&self, engine: EngineConfig) -> Result<(), String> {
        let describe = |e: String| format!("'{}': {e}", self.description);
        let mut scn = self.scenario().map_err(describe)?;
        scn.engine = engine;
        let (session, _) = scn.build();
        session.sim().validate_fault_plan(&self.windows).map_err(|e| describe(e.to_string()))?;
        let got = run_plan(&scn, &self.windows, standard_oracles(&scn)).violation;
        let want = self.expect_violation.as_deref();
        if got.as_ref().map(|v| v.oracle) == want {
            return Ok(());
        }
        let want = want.map_or("a clean run".into(), |o| format!("oracle {o} to fire"));
        let got = got.map_or("a clean run".into(), |v| v.to_string());
        Err(describe(format!("expected {want}, got {got}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaclass_netsim::{NodeId, PopulationTimeline, SimTime};

    const BACKBONE_FLAP: &str = include_str!("../../../tests/regressions/backbone-flap.json");

    fn sample() -> RegressionCase {
        RegressionCase {
            schema_version: SCHEMA_VERSION,
            description: "backbone flap survives".to_string(),
            quick: true,
            pooled: 40,
            scenario: Some("name = \"mini\"\n".to_string()),
            session_seed: 7,
            windows: vec![FaultWindow::LinkFlap {
                a: NodeId::from_index(0),
                b: NodeId::from_index(3),
                from: SimTime::from_millis(900),
                until: SimTime::from_millis(1300),
            }],
            expect_violation: None,
        }
    }

    #[test]
    fn json_round_trip_preserves_the_case() {
        let case = sample();
        let json = case.to_json();
        assert_eq!(RegressionCase::from_json(&json).unwrap().to_json(), json);
    }

    #[test]
    fn unknown_fields_and_wrong_versions_are_rejected() {
        let mut json = sample().to_json();
        json = json.replacen("\"schema_version\": 2", "\"schema_version\": 99", 1);
        assert!(RegressionCase::from_json(&json).is_err());
        let with_extra = sample().to_json().replacen(
            "\"schema_version\"",
            "\"surprise\": true,\n  \"schema_version\"",
            1,
        );
        assert!(RegressionCase::from_json(&with_extra).is_err());
    }

    #[test]
    fn hostile_windows_are_rejected_before_replay() {
        let flap = "\"LinkFlap\": {\n        \"a\": 1,\n        \"b\": 5,";
        let hostile = [
            ("\"until\": 1300000000", "\"until\": 900000000", "window 0 (link_flap): must end"),
            ("\"b\": 5", "\"b\": 7", "no link between n1 and n7"),
            (flap, "\"CrashRestart\": {\n        \"node\": 999,", "unknown node n999"),
            (flap, "\"Partition\": {\n        \"groups\": [[1], [5, 999]],", "unknown node n999"),
        ];
        for (original, edit, why) in hostile {
            assert!(BACKBONE_FLAP.contains(original), "{original}");
            let case = RegressionCase::from_json(&BACKBONE_FLAP.replacen(original, edit, 1))
                .expect("hostile but well-formed");
            let err = case.check(EngineConfig::serial()).expect_err(why);
            assert!(err.contains(why), "{err}");
        }

        // A hostile workload: spec text that does not parse, a pool over
        // the timeline cap, and a spec with no edge–cloud link to fault.
        let campusless = "name = \"remote_only\"\npattern = \"Broadcast\"\nduration_ms = 1000\n\
                          cloud_region = \"EastAsia\"\n\n[[cohorts]]\nregion = \"Europe\"\n\
                          learners = 2\naccess = \"ResidentialAccess\"\n";
        let over = PopulationTimeline::MAX_MEMBERS + 1;
        let hostile = [
            (0, Some("name = \"x\"\npattern = Oops\n"), "scenario: line 2:"),
            (over, None, "exceeds the"),
            (0, Some(campusless), "`remote_only` has no campuses"),
        ];
        for (pooled, scenario, why) in hostile {
            let mut case = RegressionCase::from_json(BACKBONE_FLAP).unwrap();
            case.pooled = pooled;
            case.scenario = scenario.map(str::to_string);
            let err = case.check(EngineConfig::serial()).expect_err(why);
            assert!(err.contains(why), "{err}");
        }
    }
}
