//! The declarative classroom-workload DSL and its deterministic expander.
//!
//! A [`ScenarioSpec`] describes a whole blended-classroom workload — the
//! interaction pattern (§3.1's lecture / lab / exam plus MOOC-style
//! broadcast), the campus topology, the remote cohorts with their device
//! platforms, scripted inter-room mobility, and optional composed stress
//! (fault windows + flash crowd + pooled population) — as data, in TOML.
//! The expander ([`ScenarioSpec::session_builder`]) turns a spec plus
//! a seed into a [`SessionBuilder`] program, deterministically: the same
//! spec and seed always produce the same byte-identical session on either
//! engine.
//!
//! Specs live under `scenarios/` in the repository root and are registered
//! with the bench experiment registry with zero per-scenario code. Specs are
//! only read, never written. The TOML dialect is what the schema needs:
//! `key = value` lines, `[table]` sections and flat `[[array-of-table]]`
//! elements, whose values are a `"…"` string with no backslash or inner
//! quote, `true` / `false`, or an unsigned decimal integer up to `u64::MAX`
//! (`_` separators allowed). A float, a negative number, an escape, or any
//! other malformed input is an error that names its path and line; the
//! loader never panics.

use std::path::Path;

use metaclass_edge::DevicePlatform;
use metaclass_netsim::{
    EngineConfig, FaultWindow, LinkClass, LossModel, PopulationProfile, PopulationTimeline, Region,
    SimDuration, SimTime,
};
use serde::{Deserialize, Value};

use crate::session::{Activity, ClassroomSession, CohortSpec, SessionBuilder, POPULATION_HORIZON};
use crate::toml;

/// Packet loss applied by a [`FaultKind::LossBurst`] window.
const FAULT_LOSS: f64 = 0.5;
/// Extra one-way latency applied by a [`FaultKind::LatencySpike`] window.
const FAULT_EXTRA_LATENCY: SimDuration = SimDuration::from_millis(80);
/// The largest value any `_ms` field may hold: one hour, the horizon pooled
/// populations are generated over. Larger values would only name instants
/// past it, and far larger ones overflow the nanosecond clock.
const MAX_SPEC_MS: u64 = POPULATION_HORIZON.as_nanos() / 1_000_000;

// --------------------------------------------------------------- the schema

/// The interaction pattern a scenario runs (§3.1's scenarios plus
/// MOOC-style broadcast teaching).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Deserialize)]
pub enum ScenarioPattern {
    /// A lecture: presenter at the podium, students seated.
    Lecture,
    /// A lab: group work, students walking between tables.
    Lab,
    /// An exam: seated, seminar kinematics, invigilated.
    Exam,
    /// MOOC broadcast: one presenter, a mostly spectating audience.
    Broadcast,
}

impl ScenarioPattern {
    /// Every pattern, in declaration order.
    pub const ALL: [ScenarioPattern; 4] = [
        ScenarioPattern::Lecture,
        ScenarioPattern::Lab,
        ScenarioPattern::Exam,
        ScenarioPattern::Broadcast,
    ];

    /// The campus activity the pattern maps onto.
    pub fn activity(self) -> Activity {
        match self {
            ScenarioPattern::Lecture | ScenarioPattern::Broadcast => Activity::Lecture,
            ScenarioPattern::Lab => Activity::GroupWork,
            ScenarioPattern::Exam => Activity::Seminar,
        }
    }

    /// Default device platform for cohorts that do not pin one: broadcast
    /// audiences spectate from desktops, everyone else wears a headset.
    pub fn default_platform(self) -> DevicePlatform {
        match self {
            ScenarioPattern::Broadcast => DevicePlatform::DesktopSpectator,
            _ => DevicePlatform::VrHeadset,
        }
    }
}

/// One physical campus in a scenario.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ScenarioCampus {
    /// Campus name (e.g. "HKUST-CWB").
    pub name: String,
    /// Where the campus sits.
    pub region: Region,
    /// Seated students in the room.
    pub students: u32,
    /// Whether a presenter teaches from this campus's podium.
    pub presenter: bool,
}

/// One remote cohort in a scenario.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ScenarioCohort {
    /// The learners' region.
    pub region: Region,
    /// Cohort size.
    pub learners: u32,
    /// Hardware class (defaults to the pattern's platform when absent).
    pub platform: Option<DevicePlatform>,
    /// Last-mile access class.
    pub access: LinkClass,
    /// When the cohort starts joining, ms of session time (default 0).
    pub joins_at_ms: Option<u64>,
    /// Spacing between consecutive joins, ms (default 0 = all at once).
    pub stagger_ms: Option<u64>,
}

/// A scripted inter-room move by one remote learner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub struct MobilityEvent {
    /// Global remote-learner index across every cohort, declaration order.
    pub learner: u32,
    /// Session time of the move, ms.
    pub at_ms: u64,
    /// Destination virtual room (0 = the auditorium).
    pub room: u32,
}

/// The kind of network/process fault a [`FaultSpec`] injects on the
/// affected campus's uplink (or the campus's edge server itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Deserialize)]
pub enum FaultKind {
    /// The campus↔cloud link goes fully down, then returns.
    LinkFlap,
    /// The campus↔cloud link drops half its packets.
    LossBurst,
    /// The campus↔cloud link gains 80 ms of one-way latency.
    LatencySpike,
    /// The whole campus is partitioned from everyone else.
    Partition,
    /// The campus's edge server crashes, then restarts.
    CrashEdge,
}

/// One timed fault window against a campus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub struct FaultSpec {
    /// What happens.
    pub kind: FaultKind,
    /// Which campus (index into the scenario's campus list).
    pub campus: u32,
    /// Window start, ms of session time.
    pub at_ms: u64,
    /// Window length, ms.
    pub for_ms: u64,
}

/// A flash crowd arriving mid-session (an extra all-at-once cohort).
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct FlashCrowdSpec {
    /// Where the crowd connects from.
    pub region: Region,
    /// Crowd size.
    pub learners: u32,
    /// Their last-mile access class.
    pub access: LinkClass,
    /// When everyone arrives, ms of session time.
    pub at_ms: u64,
}

/// A pooled remote population overlay (the PR-8 flyweight machinery).
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct PopulationSpec {
    /// The population's region.
    pub region: Region,
    /// Total population modeled, at most
    /// [`PopulationTimeline::MAX_MEMBERS`].
    pub members: u64,
    /// Members promoted to fully simulated tracer clients, at most 512.
    pub tracers: u32,
    /// Last-mile access class.
    pub access: LinkClass,
    /// Flash-crowd arrival center, ms of session time.
    pub at_ms: u64,
    /// Arrival spread around the center, ms.
    pub spread_ms: u64,
}

/// Optional composed stress riding on top of the base workload.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct StressSpec {
    /// A flash crowd arriving mid-session.
    pub flash_crowd: Option<FlashCrowdSpec>,
    /// A pooled population overlay.
    pub population: Option<PopulationSpec>,
    /// Timed fault windows against campuses.
    pub faults: Option<Vec<FaultSpec>>,
}

/// A complete declarative classroom workload.
///
/// Every `_ms` field, here and in the nested specs, is at most one hour
/// (3 600 000 ms); [`ScenarioSpec::validate`] rejects a larger one.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name: lowercase `[a-z0-9_]+`, used as the experiment id
    /// suffix (`scenario_<name>`) and in artifact file names.
    pub name: String,
    /// The interaction pattern.
    pub pattern: ScenarioPattern,
    /// How long a bench/test run simulates, ms.
    pub duration_ms: u64,
    /// Optional longer horizon for full sweeps, ms.
    pub full_duration_ms: Option<u64>,
    /// Region hosting the cloud VR classroom.
    pub cloud_region: Region,
    /// Physical campuses.
    pub campuses: Vec<ScenarioCampus>,
    /// Remote cohorts.
    pub cohorts: Vec<ScenarioCohort>,
    /// Scripted inter-room moves (omit rather than empty).
    pub mobility: Option<Vec<MobilityEvent>>,
    /// Composed stress (omit for a clean run).
    pub stress: Option<StressSpec>,
}

// ---------------------------------------------------------------- the error

/// A scenario parse/validation error, pointing at the offending file
/// location when one is known.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError {
    /// The file the spec came from, when loaded from disk.
    pub path: Option<String>,
    /// 1-based line of the offending construct, when known.
    pub line: Option<u32>,
    /// What went wrong.
    pub message: String,
}

impl ScenarioError {
    fn new(message: impl Into<String>) -> Self {
        ScenarioError { path: None, line: None, message: message.into() }
    }

    pub(crate) fn at_line(message: impl Into<String>, line: u32) -> Self {
        ScenarioError { path: None, line: Some(line), message: message.into() }
    }

    fn with_path(mut self, path: &Path) -> Self {
        self.path = Some(path.display().to_string());
        self
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.path, self.line) {
            (Some(p), Some(l)) => write!(f, "{p}:{l}: {}", self.message),
            (Some(p), None) => write!(f, "{p}: {}", self.message),
            (None, Some(l)) => write!(f, "line {l}: {}", self.message),
            (None, None) => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for ScenarioError {}

// ------------------------------------------------------------- the expander

impl ScenarioSpec {
    /// The bench/test run horizon.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_millis(self.duration_ms)
    }

    /// The full-sweep horizon (falls back to [`ScenarioSpec::duration`]).
    pub fn full_duration(&self) -> SimDuration {
        SimDuration::from_millis(self.full_duration_ms.unwrap_or(self.duration_ms))
    }

    /// Total remote learners across the declared cohorts (the index space
    /// [`MobilityEvent::learner`] addresses; stress overlays come after).
    pub fn cohort_learners(&self) -> u32 {
        self.cohorts.iter().map(|c| c.learners).sum()
    }

    /// Expands the spec into a [`SessionBuilder`] program. Deterministic:
    /// the same spec and seed produce the same session, byte-identical on
    /// either engine.
    pub fn session_builder(&self, seed: u64) -> SessionBuilder {
        let mut b = SessionBuilder::new()
            .seed(seed)
            .activity(self.pattern.activity())
            .cloud_region(self.cloud_region);
        for c in &self.campuses {
            b = b.campus(c.name.clone(), c.region, c.students, c.presenter);
        }
        for c in &self.cohorts {
            b = b.cohort(CohortSpec {
                region: c.region,
                learners: c.learners,
                access: c.access,
                joins_at: SimDuration::from_millis(c.joins_at_ms.unwrap_or(0)),
                join_stagger: SimDuration::from_millis(c.stagger_ms.unwrap_or(0)),
                platform: c.platform.unwrap_or_else(|| self.pattern.default_platform()),
            });
        }
        for e in self.mobility.iter().flatten() {
            b = b.mobility(e.learner, SimDuration::from_millis(e.at_ms), e.room);
        }
        if let Some(stress) = &self.stress {
            if let Some(fc) = &stress.flash_crowd {
                b = b.cohort(CohortSpec {
                    region: fc.region,
                    learners: fc.learners,
                    access: fc.access,
                    joins_at: SimDuration::from_millis(fc.at_ms),
                    join_stagger: SimDuration::ZERO,
                    platform: self.pattern.default_platform(),
                });
            }
            if let Some(p) = &stress.population {
                b = b.population(
                    p.region,
                    p.members,
                    p.tracers,
                    p.access,
                    PopulationProfile::flash_crowd(
                        SimTime::from_millis(p.at_ms),
                        SimDuration::from_millis(p.spread_ms),
                    ),
                );
            }
        }
        b
    }

    /// The spec's stress faults lowered to fault windows over `session` (a
    /// session built from this spec), in declaration order; empty without
    /// faults. Link faults hit the campus's edge–cloud connection, a
    /// partition isolates the whole campus from every other node
    /// ([`ClassroomSession::campus_partition`]), and a crash takes the
    /// campus's edge server down until the window ends.
    pub fn fault_windows(&self, session: &ClassroomSession) -> Vec<FaultWindow> {
        let faults = self.stress.iter().flat_map(|s| s.faults.iter().flatten());
        faults
            .map(|f| {
                let k = f.campus as usize;
                let (edge, cloud) = (session.edges()[k], session.cloud());
                let from = SimTime::from_millis(f.at_ms);
                let until = SimTime::from_millis(f.at_ms.saturating_add(f.for_ms));
                match f.kind {
                    FaultKind::LinkFlap => FaultWindow::LinkFlap { a: edge, b: cloud, from, until },
                    FaultKind::LossBurst => {
                        let loss = LossModel::Iid { p: FAULT_LOSS };
                        FaultWindow::LossBurst { a: edge, b: cloud, from, until, loss }
                    }
                    FaultKind::LatencySpike => {
                        let extra = FAULT_EXTRA_LATENCY;
                        FaultWindow::LatencySpike { a: edge, b: cloud, from, until, extra }
                    }
                    FaultKind::Partition => {
                        FaultWindow::Partition { groups: session.campus_partition(k), from, until }
                    }
                    FaultKind::CrashEdge => FaultWindow::CrashRestart { node: edge, from, until },
                }
            })
            .collect()
    }

    /// Builds the runnable session: expands the spec at `seed` on `engine`
    /// and applies its stress faults, if any.
    pub fn build_session(&self, seed: u64, engine: EngineConfig) -> ClassroomSession {
        let mut session = self.session_builder(seed).engine_config(engine).build();
        let windows = self.fault_windows(&session);
        session.sim_mut().apply_fault_plan(&windows);
        session
    }

    // ------------------------------------------------------------ validation

    /// Checks the spec's semantic invariants. Every load path calls this;
    /// direct constructions should too before building.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let err = |m: String| Err(ScenarioError::new(m));
        if self.name.is_empty()
            || self.name.len() > 64
            || !self.name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return err(format!(
                "name: `{}` must be non-empty lowercase [a-z0-9_], at most 64 chars",
                self.name
            ));
        }
        if self.duration_ms == 0 {
            return err("duration_ms: must be positive".into());
        }
        within_limit(self.duration_ms, || "duration_ms".into())?;
        if let Some(full) = self.full_duration_ms {
            if full < self.duration_ms {
                return err("full_duration_ms: must be >= duration_ms".into());
            }
            within_limit(full, || "full_duration_ms".into())?;
        }
        if self.campuses.is_empty() && self.cohorts.is_empty() {
            return err("a scenario needs at least one campus or cohort".into());
        }
        if self.campuses.len() > 8 {
            return err(format!("campuses: {} declared, at most 8 supported", self.campuses.len()));
        }
        for (k, c) in self.campuses.iter().enumerate() {
            let participants = c.students + u32::from(c.presenter);
            if participants == 0 {
                return err(format!("campuses.{k}: campus `{}` is empty", c.name));
            }
            if participants > 48 {
                return err(format!(
                    "campuses.{k}.students: {participants} participants, the room seats 48",
                ));
            }
        }
        for (i, c) in self.cohorts.iter().enumerate() {
            if c.learners == 0 {
                return err(format!("cohorts.{i}.learners: must be positive"));
            }
            if c.learners > 512 {
                return err(format!("cohorts.{i}.learners: {} exceeds the 512 cap", c.learners));
            }
            within_limit(c.joins_at_ms.unwrap_or(0), || format!("cohorts.{i}.joins_at_ms"))?;
            within_limit(c.stagger_ms.unwrap_or(0), || format!("cohorts.{i}.stagger_ms"))?;
        }
        let total_learners = self.cohort_learners();
        if let Some(moves) = &self.mobility {
            if moves.is_empty() {
                return err("mobility: empty list — omit the key instead".into());
            }
            for (i, e) in moves.iter().enumerate() {
                if e.learner >= total_learners {
                    return err(format!(
                        "mobility.{i}.learner: index {} out of range ({} cohort learners)",
                        e.learner, total_learners
                    ));
                }
                within_limit(e.at_ms, || format!("mobility.{i}.at_ms"))?;
            }
        }
        if let Some(stress) = &self.stress {
            if let Some(fc) = &stress.flash_crowd {
                if fc.learners == 0 || fc.learners > 512 {
                    return err(format!(
                        "stress.flash_crowd.learners: {} outside 1..=512",
                        fc.learners
                    ));
                }
                within_limit(fc.at_ms, || "stress.flash_crowd.at_ms".into())?;
            }
            if let Some(p) = &stress.population {
                if p.members == 0 || p.members > PopulationTimeline::MAX_MEMBERS {
                    return err(format!(
                        "stress.population.members: {} outside 1..={}",
                        p.members,
                        PopulationTimeline::MAX_MEMBERS
                    ));
                }
                if p.tracers > 512 {
                    return err(format!(
                        "stress.population.tracers: {} exceeds the 512 cap",
                        p.tracers
                    ));
                }
                within_limit(p.at_ms, || "stress.population.at_ms".into())?;
                within_limit(p.spread_ms, || "stress.population.spread_ms".into())?;
            }
            if let Some(faults) = &stress.faults {
                if faults.is_empty() {
                    return err("stress.faults: empty list — omit the key instead".into());
                }
                for (i, f) in faults.iter().enumerate() {
                    if f.campus as usize >= self.campuses.len() {
                        return err(format!(
                            "stress.faults.{i}.campus: index {} out of range ({} campuses)",
                            f.campus,
                            self.campuses.len()
                        ));
                    }
                    if f.for_ms == 0 {
                        return err(format!("stress.faults.{i}.for_ms: must be positive"));
                    }
                    within_limit(f.at_ms, || format!("stress.faults.{i}.at_ms"))?;
                    within_limit(f.for_ms, || format!("stress.faults.{i}.for_ms"))?;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------- I/O paths

    /// Parses and validates a spec from the scenario files' TOML dialect
    /// (see the module docs). Every error that can be placed names its line.
    pub fn from_toml_str(text: &str) -> Result<Self, ScenarioError> {
        let mut doc = toml::parse(text)?;
        // TOML has no syntax for an empty array-of-tables, so an absent
        // `[[campuses]]` / `[[cohorts]]` section means "none" (the validator
        // still requires at least one participant source overall).
        if let Value::Object(map) = &mut doc.value {
            for key in ["campuses", "cohorts"] {
                map.entry(key.to_string()).or_insert_with(|| Value::Array(Vec::new()));
            }
        }
        let spec = Self::from_value(&doc.value).map_err(|e| ScenarioError {
            line: doc.line_of(e.path()),
            ..ScenarioError::new(e.to_string())
        })?;
        spec.validate().map_err(|mut e| {
            e.line = e.line.or_else(|| doc.line_of(e.message.split(':').next()?));
            e
        })?;
        Ok(spec)
    }

    /// Loads and validates a TOML spec file, attaching the path to any
    /// error.
    pub fn load(path: &Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::new(format!("cannot read: {e}")).with_path(path))?;
        Self::from_toml_str(&text).map_err(|e| e.with_path(path))
    }
}

/// Rejects a `_ms` value past [`MAX_SPEC_MS`], naming the field at `path`.
fn within_limit(ms: u64, path: impl FnOnce() -> String) -> Result<(), ScenarioError> {
    if ms <= MAX_SPEC_MS {
        return Ok(());
    }
    Err(ScenarioError::new(format!(
        "{}: {ms} ms exceeds the {MAX_SPEC_MS} ms (one hour) limit",
        path()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaclass_netsim::{EngineConfig, NodeId};

    fn lab_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "lab_unit".into(),
            pattern: ScenarioPattern::Lab,
            duration_ms: 2_000,
            full_duration_ms: Some(10_000),
            cloud_region: Region::EastAsia,
            campuses: vec![
                ScenarioCampus {
                    name: "CWB".into(),
                    region: Region::EastAsia,
                    students: 4,
                    presenter: true,
                },
                ScenarioCampus {
                    name: "GZ".into(),
                    region: Region::EastAsia,
                    students: 3,
                    presenter: false,
                },
            ],
            cohorts: vec![
                ScenarioCohort {
                    region: Region::Europe,
                    learners: 2,
                    platform: Some(DevicePlatform::MobileAr),
                    access: LinkClass::ResidentialAccess,
                    joins_at_ms: None,
                    stagger_ms: None,
                },
                ScenarioCohort {
                    region: Region::NorthAmerica,
                    learners: 1,
                    platform: None,
                    access: LinkClass::CellularAccess,
                    joins_at_ms: Some(300),
                    stagger_ms: Some(50),
                },
            ],
            mobility: Some(vec![MobilityEvent { learner: 0, at_ms: 900, room: 2 }]),
            stress: Some(StressSpec {
                flash_crowd: Some(FlashCrowdSpec {
                    region: Region::SouthAsia,
                    learners: 3,
                    access: LinkClass::CellularAccess,
                    at_ms: 700,
                }),
                population: None,
                faults: Some(vec![FaultSpec {
                    kind: FaultKind::LossBurst,
                    campus: 1,
                    at_ms: 500,
                    for_ms: 400,
                }]),
            }),
        }
    }

    #[test]
    fn malformed_toml_reports_the_line() {
        let text = "name = \"x\"\npattern = Lecture\n";
        let err = ScenarioSpec::from_toml_str(text).unwrap_err();
        assert_eq!(err.line, Some(2), "{err}");
        assert!(err.message.contains("a string, a boolean or an unsigned integer"), "{err}");
        // Only the schema's scalars read: a float, a negative number (the
        // magnitudes past i128 once overflowed a negation), an escape, and a
        // value past u64 are each an error at their line.
        for literal in [
            "2.5",
            "-1",
            "-170141183460469231731687303715884105728",
            "-340282366920938463463374607431768211455",
            "\"CW\\\"B\"",
            "\"CW\\\\B\"",
            "18446744073709551616",
            "+5",
        ] {
            let text = format!("name = \"x\"\nduration_ms = {literal}\n");
            let err = ScenarioSpec::from_toml_str(&text).unwrap_err();
            assert_eq!(err.line, Some(2), "{literal}: {err}");
        }
        // `u64::MAX` itself reads (with separators) and then fails the schema.
        let lab = include_str!("../../../scenarios/lab.toml")
            .replace("duration_ms = 2500", "duration_ms = 18_446_744_073_709_551_615");
        let err = ScenarioSpec::from_toml_str(&lab).unwrap_err();
        assert!(err.message.starts_with("duration_ms: 18446744073709551615 ms exceeds"), "{err}");
        // A bad value inside an array of tables names its element and line,
        // so the first and second `[[cohorts]]` do not read the same.
        let lab: Vec<&str> = include_str!("../../../scenarios/lab.toml").lines().collect();
        let regions = (0..lab.len()).filter(|&i| lab[i].starts_with("region = "));
        let paths =
            ["campuses.0.region", "campuses.1.region", "cohorts.0.region", "cohorts.1.region"];
        assert_eq!(regions.clone().count(), paths.len());
        for (at, path) in regions.zip(paths) {
            let mut text = lab.clone();
            text[at] = "region = \"Mars\"";
            let text = text.join("\n");
            let err = ScenarioSpec::from_toml_str(&text).unwrap_err();
            assert_eq!(err.line, Some(at as u32 + 1), "{err}");
            assert!(err.message.starts_with(&format!("{path}: unknown variant `Mars`")), "{err}");
        }
    }

    #[test]
    fn unknown_fields_are_located() {
        let lab = include_str!("../../../scenarios/lab.toml");
        let text = lab.replace("pattern = \"Lab\"\n", "pattern = \"Lab\"\nbogus_knob = 3\n");
        let line = text.lines().position(|l| l == "bogus_knob = 3").unwrap() as u32 + 1;
        let err = ScenarioSpec::from_toml_str(&text).unwrap_err();
        assert!(err.message.starts_with("bogus_knob: unknown field"), "{err}");
        assert_eq!(err.line, Some(line), "{err}");
    }

    #[test]
    fn semantic_validation_points_at_the_offending_entry() {
        // `validate` knows the path, the reader the line: the second fault's
        // campus is out of range, and the error lands on its line.
        let stress: Vec<&str> = include_str!("../../../scenarios/stress.toml").lines().collect();
        let at = stress.iter().rposition(|&l| l == "campus = 0").unwrap();
        let mut text = stress.clone();
        text[at] = "campus = 9";
        let err = ScenarioSpec::from_toml_str(&text.join("\n")).unwrap_err();
        assert!(err.message.starts_with("stress.faults.1.campus: index 9 out of range"), "{err}");
        assert_eq!(err.line, Some(at as u32 + 1), "{err}");
    }

    #[test]
    fn oversized_populations_are_rejected_before_any_allocation() {
        let broadcast = include_str!("../../../scenarios/broadcast.toml");
        let population = |members: u64, tracers: u32| {
            let text = broadcast
                .replace("members = 500", &format!("members = {members}"))
                .replace("tracers = 2", &format!("tracers = {tracers}"));
            ScenarioSpec::from_toml_str(&text)
        };
        population(PopulationTimeline::MAX_MEMBERS, 512).expect("the caps themselves are valid");
        // The 10^15-member spec used to abort on an 8 PB allocation.
        for members in [PopulationTimeline::MAX_MEMBERS + 1, 1_000_000_000_000_000, u64::MAX] {
            let err = population(members, 2).unwrap_err();
            assert!(err.message.starts_with("stress.population.members"), "{err}");
        }
        let err = population(40, 513).unwrap_err();
        assert!(err.message.starts_with("stress.population.tracers"), "{err}");
        // A spread past an hour is rejected at load: `u64::MAX` ms used to
        // overflow `SimDuration::from_millis` when the session was built.
        let line = broadcast.lines().position(|l| l == "spread_ms = 300").unwrap() as u32 + 1;
        for spread in [MAX_SPEC_MS + 1, u64::MAX] {
            let text = broadcast.replace("spread_ms = 300", &format!("spread_ms = {spread}"));
            let err = ScenarioSpec::from_toml_str(&text).unwrap_err();
            assert!(err.message.starts_with("stress.population.spread_ms: "), "{err}");
            assert_eq!(err.line, Some(line), "{err}");
        }
    }

    #[test]
    fn every_time_field_is_bounded_by_one_hour() {
        type Set = fn(&mut ScenarioSpec, u64);
        fn stress(s: &mut ScenarioSpec) -> &mut StressSpec {
            s.stress.as_mut().unwrap()
        }
        let fields: [(&str, Set); 10] = [
            ("duration_ms", |s, v| (s.duration_ms, s.full_duration_ms) = (v, None)),
            ("full_duration_ms", |s, v| s.full_duration_ms = Some(v)),
            ("cohorts.1.joins_at_ms", |s, v| s.cohorts[1].joins_at_ms = Some(v)),
            ("cohorts.1.stagger_ms", |s, v| s.cohorts[1].stagger_ms = Some(v)),
            ("mobility.0.at_ms", |s, v| s.mobility.as_mut().unwrap()[0].at_ms = v),
            ("stress.flash_crowd.at_ms", |s, v| stress(s).flash_crowd.as_mut().unwrap().at_ms = v),
            ("stress.population.at_ms", |s, v| stress(s).population.as_mut().unwrap().at_ms = v),
            ("stress.population.spread_ms", |s, v| {
                stress(s).population.as_mut().unwrap().spread_ms = v
            }),
            ("stress.faults.0.at_ms", |s, v| stress(s).faults.as_mut().unwrap()[0].at_ms = v),
            ("stress.faults.0.for_ms", |s, v| stress(s).faults.as_mut().unwrap()[0].for_ms = v),
        ];
        for (path, set) in fields {
            let mut spec = lab_spec();
            stress(&mut spec).population = Some(PopulationSpec {
                region: Region::Europe,
                members: 40,
                tracers: 2,
                access: LinkClass::ResidentialAccess,
                at_ms: 300,
                spread_ms: 100,
            });
            set(&mut spec, MAX_SPEC_MS);
            spec.validate().unwrap_or_else(|e| panic!("{path} at the limit: {e}"));
            spec.build_session(1, EngineConfig::serial());
            for ms in [MAX_SPEC_MS + 1, u64::MAX] {
                set(&mut spec, ms);
                let err = spec.validate().unwrap_err();
                assert!(err.message.starts_with(&format!("{path}: {ms} ms exceeds")), "{err}");
            }
        }
    }

    #[test]
    fn fault_windows_lower_every_kind_and_partitions_cover_every_node() {
        let mut spec = lab_spec();
        let stress = spec.stress.as_mut().unwrap();
        stress.population = Some(PopulationSpec {
            region: Region::Europe,
            members: 40,
            tracers: 2,
            access: LinkClass::ResidentialAccess,
            at_ms: 300,
            spread_ms: 100,
        });
        let kinds = [
            FaultKind::LinkFlap,
            FaultKind::LossBurst,
            FaultKind::LatencySpike,
            FaultKind::Partition,
            FaultKind::CrashEdge,
        ];
        let faults = (0..2u32).flat_map(|campus| {
            kinds.map(|kind| FaultSpec { kind, campus, at_ms: 500, for_ms: 100 })
        });
        stress.faults = Some(faults.collect());
        let session = spec.session_builder(1).build();
        assert_eq!(session.pools().len(), 1, "the population overlay builds a pool node");

        let windows = spec.fault_windows(&session);
        let labels: Vec<&str> = windows.iter().map(FaultWindow::kind).collect();
        let per_campus = ["link_flap", "loss_burst", "latency_spike", "partition", "crash_restart"];
        assert_eq!(labels, [per_campus, per_campus].concat());
        let nodes = session.sim().node_count();
        for (k, w) in windows.iter().enumerate().filter(|(_, w)| w.kind() == "partition") {
            let FaultWindow::Partition { groups, from, until } = w else { unreachable!() };
            assert_eq!((*from, *until), (SimTime::from_millis(500), SimTime::from_millis(600)));
            let mut covered: Vec<NodeId> = groups.concat();
            covered.sort();
            covered.dedup();
            assert_eq!(covered.len(), nodes, "window {k}: groups cover every node exactly once");
            assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), nodes);
        }
        let edge1 = session.edges()[1];
        assert_eq!(
            windows[9],
            FaultWindow::CrashRestart {
                node: edge1,
                from: SimTime::from_millis(500),
                until: SimTime::from_millis(600)
            }
        );
    }

    #[test]
    fn absent_array_of_tables_sections_mean_empty() {
        let campuses_only = "name = \"onsite\"\npattern = \"Lecture\"\nduration_ms = 1000\n\
                             cloud_region = \"EastAsia\"\n\n[[campuses]]\nname = \"CWB\"\n\
                             region = \"EastAsia\"\nstudents = 2\npresenter = true\n";
        let spec = ScenarioSpec::from_toml_str(campuses_only).expect("campus-only spec parses");
        assert!(spec.cohorts.is_empty());
        let cohorts_only = "name = \"remote\"\npattern = \"Broadcast\"\nduration_ms = 1000\n\
                            cloud_region = \"EastAsia\"\n\n[[cohorts]]\nregion = \"Europe\"\n\
                            learners = 2\naccess = \"ResidentialAccess\"\n";
        let spec = ScenarioSpec::from_toml_str(cohorts_only).expect("cohort-only spec parses");
        assert!(spec.campuses.is_empty());
    }

    #[test]
    fn broadcast_cohorts_default_to_spectators() {
        assert_eq!(ScenarioPattern::Broadcast.default_platform(), DevicePlatform::DesktopSpectator);
        assert_eq!(ScenarioPattern::Exam.default_platform(), DevicePlatform::VrHeadset);
        assert_eq!(ScenarioPattern::Lab.activity(), Activity::GroupWork);
    }
}
