//! File-registered scenario experiments: every spec under `scenarios/`
//! becomes an [`Experiment`] with zero per-scenario code.
//!
//! A [`ScenarioExperiment`] wraps a validated
//! [`metaclass_core::ScenarioSpec`] and runs it through the
//! standard deterministic expander: seed → session → report. The experiment
//! id is `scenario_<name>`, so sweeps write
//! `results/BENCH_scenario_<name>.json` through the unchanged sweep writer
//! and `bench verify` holds the canonical scenarios to their baselines like
//! any `eN`.

use std::path::{Path, PathBuf};

use metaclass_core::{ScenarioError, ScenarioSpec};
use metaclass_netsim::{Fnv1a, MetricsRegistry, SimDuration};

use crate::{mix_seed, Experiment, Report, RunCtx, Table};

/// FNV-1a over the scenario name: the per-scenario seed salt, so two
/// scenarios sweeping the same seed list still run distinct sessions.
fn name_salt(name: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(name.as_bytes());
    h.finish()
}

/// A workload spec registered as a runnable experiment.
#[derive(Debug)]
pub struct ScenarioExperiment {
    id: &'static str,
    title: &'static str,
    spec: ScenarioSpec,
}

impl ScenarioExperiment {
    /// Wraps a validated spec. The id and title strings are leaked once per
    /// loaded scenario (the `Experiment` trait hands out `&'static str`).
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioSpec::validate`] failures.
    pub fn from_spec(spec: ScenarioSpec) -> Result<Self, ScenarioError> {
        spec.validate()?;
        let id: &'static str = Box::leak(format!("scenario_{}", spec.name).into_boxed_str());
        let title: &'static str = Box::leak(
            format!("Scenario `{}` — {:?} pattern from file spec", spec.name, spec.pattern)
                .into_boxed_str(),
        );
        Ok(ScenarioExperiment { id, title, spec })
    }

    /// Loads, validates, and wraps a TOML spec file.
    ///
    /// # Errors
    ///
    /// Parse and validation errors carry the offending path and line.
    pub fn from_file(path: &Path) -> Result<Self, ScenarioError> {
        Self::from_spec(ScenarioSpec::load(path)?)
    }

    /// The wrapped spec.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }
}

/// Loads every `*.toml` spec in `dir`, sorted by file name for a stable
/// registry order. A missing directory is an empty registry, not an error.
///
/// # Errors
///
/// The first malformed spec aborts the enumeration with its path + line.
pub fn scenarios_in(dir: &Path) -> Result<Vec<ScenarioExperiment>, ScenarioError> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(Vec::new());
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("toml"))
        .collect();
    paths.sort();
    paths.iter().map(|p| ScenarioExperiment::from_file(p)).collect()
}

impl Experiment for ScenarioExperiment {
    fn id(&self) -> &'static str {
        self.id
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn run(&self, ctx: &RunCtx) -> Report {
        let spec = &self.spec;
        let seed = mix_seed(ctx.seed, name_salt(&spec.name));
        let horizon: SimDuration =
            if ctx.scale.is_quick() { spec.duration() } else { spec.full_duration() };
        let mut session = spec.build_session(seed, ctx.engine);
        session.run_for(horizon);
        let sr = session.report();
        let events = session.sim().events_processed();

        let mut report = Report::new();
        report.scalar("physical_participants", sr.physical_participants as f64);
        report.scalar("remote_participants", sr.remote_participants as f64);
        report.scalar("pooled_population", sr.pooled_population as f64);
        report.scalar("vr_display_p50_ms", sr.vr_display_latency.p50 as f64 / 1e6);
        report.scalar("vr_display_p99_ms", sr.vr_display_latency.p99 as f64 / 1e6);
        report.scalar("mr_display_p99_ms", sr.mr_display_latency.p99 as f64 / 1e6);
        report.scalar("updates_sent", sr.updates_sent as f64);
        report.scalar("fanout_bytes", sr.fanout_bytes as f64);
        report.scalar("net_delivered", sr.net_delivered as f64);
        report.scalar("net_dropped", sr.net_dropped as f64);
        report
            .scalar("room_moves", session.sim().metrics().counter_value("cloud.room_moves") as f64);
        report.scalar("events_processed", events as f64);

        let mut table = Table::new(format!("{} — {}", self.id, spec.name), &["metric", "value"]);
        table.row(&[&"physical participants", &sr.physical_participants]);
        table.row(&[&"remote participants", &sr.remote_participants]);
        table.row(&[&"pooled population", &sr.pooled_population]);
        table.row_strings(vec![
            "vr display p99 (ms)".into(),
            format!("{:.1}", sr.vr_display_latency.p99 as f64 / 1e6),
        ]);
        table.row(&[&"updates sent", &sr.updates_sent]);
        table.row(&[&"events processed", &events]);
        report.table(table);
        // Export the session's full metric surface minus the `engine.*`
        // namespace: those are executor diagnostics (shard windows, barrier
        // elisions, pool hit rates) that legitimately differ between the
        // serial and sharded engines, and BENCH documents must stay a pure
        // function of (experiment, scale, seeds) — never of the engine.
        let mut metrics = MetricsRegistry::new();
        for (name, value) in session.sim().metrics().counters() {
            if !name.starts_with("engine.") {
                metrics.add(name, value);
            }
        }
        for (name, hist) in session.sim().metrics().histograms() {
            if !name.starts_with("engine.") {
                metrics.histogram(name).merge(hist);
            }
        }
        report.metrics = metrics;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAB: &str = r#"
name = "lab_smoke"
pattern = "Lab"
duration_ms = 1500
cloud_region = "EastAsia"

[[campuses]]
name = "CWB"
region = "EastAsia"
students = 3
presenter = true

[[cohorts]]
region = "Europe"
learners = 2
access = "ResidentialAccess"
"#;

    #[test]
    fn malformed_directory_entries_surface_path_and_line() {
        let dir = std::env::temp_dir().join(format!("scen_reg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ok.toml"), LAB).unwrap();
        std::fs::write(dir.join("broken.toml"), "name = \"x\"\npattern = Oops\n").unwrap();
        let err = scenarios_in(&dir).unwrap_err();
        assert!(err.path.as_deref().unwrap_or("").contains("broken.toml"), "{err}");
        assert_eq!(err.line, Some(2), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_or_missing_directories_register_nothing() {
        let none = scenarios_in(Path::new("/definitely/not/a/dir")).unwrap();
        assert!(none.is_empty());
    }
}
