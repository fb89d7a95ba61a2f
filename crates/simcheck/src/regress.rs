//! Replayable regression cases: minimal fault schedules persisted as JSON.
//!
//! When the explorer shrinks a violation, the resulting schedule is saved as
//! a [`RegressionCase`] under `tests/regressions/`. Each case pins the
//! session seed, the scenario scale, the windows, and the expected outcome,
//! so a single [`RegressionCase::check`] call replays it bit-for-bit against
//! the standard oracle set forever after.

use metaclass_netsim::FaultWindow;
use serde::{Deserialize, Serialize};

use crate::explore::{run_plan, RunOutcome};
use crate::oracles::standard_oracles;
use crate::scenario::Scenario;

/// Current on-disk schema version; bump on incompatible format changes.
pub const SCHEMA_VERSION: u32 = 1;

/// A persisted, replayable fault schedule with its expected outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RegressionCase {
    /// On-disk format version (currently 1).
    pub schema_version: u32,
    /// What this case pins down, for humans reading the corpus.
    pub description: String,
    /// Quick (test-sized) or full scenario.
    pub quick: bool,
    /// Seed of the replayed session.
    pub session_seed: u64,
    /// The fault schedule, at window granularity.
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

    /// The scenario this case replays under.
    pub fn scenario(&self) -> Scenario {
        if self.quick {
            Scenario::quick(self.session_seed)
        } else {
            Scenario::full(self.session_seed)
        }
    }

    /// Replays the schedule against the standard oracle set.
    pub fn replay(&self) -> RunOutcome {
        let scn = self.scenario();
        run_plan(&scn, &self.windows, standard_oracles(&scn))
    }

    /// Replays and compares the outcome against `expect_violation`.
    /// `Ok(())` when they match; `Err` describes the divergence, or a window
    /// the scenario's topology cannot host (checked before any replay).
    pub fn check(&self) -> Result<(), String> {
        let (session, _) = self.scenario().build();
        session
            .sim()
            .validate_fault_plan(&self.windows)
            .map_err(|e| format!("'{}': {e}", self.description))?;
        let outcome = self.replay();
        match (&self.expect_violation, &outcome.violation) {
            (None, None) => Ok(()),
            (Some(expected), Some(got)) if *expected == got.oracle => Ok(()),
            (None, Some(got)) => {
                Err(format!("'{}' expected a clean run, got {got}", self.description))
            }
            (Some(expected), None) => Err(format!(
                "'{}' expected oracle {expected} to fire, but the run was clean",
                self.description
            )),
            (Some(expected), Some(got)) => {
                Err(format!("'{}' expected oracle {expected} to fire, got {got}", self.description))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaclass_netsim::{NodeId, SimTime};

    fn sample() -> RegressionCase {
        RegressionCase {
            schema_version: SCHEMA_VERSION,
            description: "backbone flap survives".to_string(),
            quick: true,
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
        let back = RegressionCase::from_json(&case.to_json()).unwrap();
        assert_eq!(back.session_seed, case.session_seed);
        assert_eq!(back.windows.len(), 1);
        assert_eq!(back.expect_violation, None);
    }

    #[test]
    fn unknown_fields_and_wrong_versions_are_rejected() {
        let mut json = sample().to_json();
        json = json.replacen("\"schema_version\": 1", "\"schema_version\": 99", 1);
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
        let json = include_str!("../../../tests/regressions/backbone-flap.json");
        let flap = "\"LinkFlap\": {\n        \"a\": 1,\n        \"b\": 5,";
        let hostile = [
            ("\"until\": 1300000000", "\"until\": 900000000", "window 0 (link_flap): must end"),
            ("\"b\": 5", "\"b\": 7", "no link between n1 and n7"),
            (flap, "\"CrashRestart\": {\n        \"node\": 999,", "unknown node n999"),
            (flap, "\"Partition\": {\n        \"groups\": [[1], [5, 999]],", "unknown node n999"),
        ];
        for (original, edit, why) in hostile {
            assert!(json.contains(original), "{original}");
            let case = RegressionCase::from_json(&json.replacen(original, edit, 1))
                .expect("hostile but well-formed");
            let err = case.check().expect_err(why);
            assert!(err.contains(why), "{err}");
        }
    }
}
