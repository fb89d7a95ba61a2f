//! # metaclass-bench
//!
//! The experiment harness of the `metaclassroom` reproduction: one module per
//! experiment in DESIGN.md's index (E1–E14), each regenerating a table the
//! blueprint's claims predict. Every experiment implements the [`Experiment`]
//! trait — `run(&RunCtx)` returning a structured [`Report`] — and is
//! registered in [`experiments::all`], so one generic `bench` binary drives
//! them all; every experiment also runs in the reduced [`Scale::Quick`]
//! configuration inside `cargo test` so the harness can never rot.
//!
//! Run a single experiment, a multi-seed parallel sweep, or everything:
//!
//! ```text
//! cargo run --release -p metaclass-bench --bin bench -- --list
//! cargo run --release -p metaclass-bench --bin bench -- --exp e3
//! cargo run --release -p metaclass-bench --bin bench -- --exp e3 --seeds 32 --jobs 8 --json
//! cargo run --release -p metaclass-bench --bin bench -- --exp all --seeds 8 --json
//! cargo run --release -p metaclass-bench --bin bench -- verify
//! ```
//!
//! `--json` writes a schema-versioned `results/BENCH_<exp>.json` whose bytes
//! depend only on `(experiment, scale, seeds)` — never on `--jobs` or the
//! engine — see the [`sweep`] module; [`verify`] holds every registered
//! document to its committed baseline under every engine.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod sweep;
pub mod verify;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use metaclass_netsim::{EngineConfig, MetricsRegistry};

/// How big a configuration an experiment should run.
///
/// Every experiment supports both scales through the same code path: `Quick`
/// shrinks rosters, durations, and sweep grids so the experiment finishes
/// inside `cargo test`; `Full` is the release-mode configuration the numbers
/// in EXPERIMENTS.md come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Reduced configuration for tests and smoke runs.
    Quick,
    /// The full release-mode configuration.
    Full,
}

impl Scale {
    /// Whether this is the reduced configuration.
    pub fn is_quick(self) -> bool {
        matches!(self, Scale::Quick)
    }

    /// Maps the legacy `quick: bool` convention onto a scale.
    pub fn from_quick_flag(quick: bool) -> Self {
        if quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Stable lowercase name, used in JSON and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

impl Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Derives a per-component seed from a sweep seed and a fixed salt.
///
/// The map is a bijection in `seed` for any fixed `salt`, and `mix_seed(0,
/// salt) == salt`, so seed `0` reproduces the pre-sweep single-run behaviour
/// of every experiment bit for bit.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    salt ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Lowercases a label and maps every non-alphanumeric run to a single `_`,
/// yielding stable metric-key fragments from display strings.
pub fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut gap = false;
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            if gap && !out.is_empty() {
                out.push('_');
            }
            gap = false;
            out.push(c.to_ascii_lowercase());
        } else {
            gap = true;
        }
    }
    out
}

/// The structured result of one seeded experiment run.
///
/// A report carries three views of the same measurement: named scalar
/// metrics (the sweepable quantities cross-run statistics are computed
/// from), an optional [`MetricsRegistry`] of counters and histograms (merged
/// across runs with [`MetricsRegistry::merge`]), and the rendered ASCII
/// [`Table`]s, which are *derived* presentation — everything in a table is
/// reconstructible from the structured data.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Named scalar metrics in name order.
    pub scalars: BTreeMap<String, f64>,
    /// Counters and histograms recorded during the run.
    pub metrics: MetricsRegistry,
    /// Rendered tables, in presentation order.
    pub tables: Vec<Table>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a scalar metric. Non-finite values are rejected with a panic:
    /// they would poison every cross-run statistic downstream.
    pub fn scalar(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        assert!(value.is_finite(), "scalar {key} is not finite: {value}");
        self.scalars.insert(key, value);
    }

    /// Records a boolean as a 0/1 scalar (so sweep statistics read as rates).
    pub fn flag(&mut self, key: impl Into<String>, value: bool) {
        self.scalar(key, if value { 1.0 } else { 0.0 });
    }

    /// Appends a rendered table.
    pub fn table(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Renders all tables, in order.
    pub fn render(&self) -> String {
        self.tables.iter().map(|t| t.to_string()).collect()
    }
}

/// Everything one seeded experiment run needs: scale, sweep seed, and the
/// engine configuration the run's simulations should execute under.
///
/// The engine travels with the run context — not through process-global
/// state — so sweeps under different engines can share one process and run
/// in parallel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCtx {
    /// Problem size tier.
    pub scale: Scale,
    /// Sweep seed; experiments derive component seeds via [`mix_seed`].
    pub seed: u64,
    /// Engine configuration for every simulation the run builds. Must not
    /// affect the report: traces and metrics are byte-identical across
    /// engines.
    pub engine: EngineConfig,
}

impl RunCtx {
    /// A run context with the default (serial) engine.
    pub fn new(scale: Scale, seed: u64) -> Self {
        RunCtx { scale, seed, engine: EngineConfig::default() }
    }

    /// Returns the context with a different engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}

/// A runnable experiment: the uniform interface every `eN` module exposes.
///
/// Implementations must be deterministic: the same `(scale, seed)` pair must
/// yield an identical [`Report`] on every invocation — regardless of the
/// engine in `ctx` — which is what makes parallel sweeps
/// ([`sweep::run_sweep`]) reproducible and their JSON output independent of
/// worker count and executor.
pub trait Experiment: Sync {
    /// Short stable identifier (`"e3"`), used for CLI selection and file
    /// names.
    fn id(&self) -> &'static str;

    /// One-line human title.
    fn title(&self) -> &'static str;

    /// Runs the experiment under the given run context.
    fn run(&self, ctx: &RunCtx) -> Report;
}

/// A printable results table with aligned columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Appends a row of pre-rendered cells.
    pub fn row_strings(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "\n== {} ==", self.title)?;
        let line = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| {
            let mut first = true;
            for (w, cell) in widths.iter().zip(cells) {
                if !first {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>w$}", w = w)?;
                first = false;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        writeln!(f, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Runs independent seeded trials on at most `jobs` scoped worker threads.
///
/// Deterministic by construction: results come back ordered by trial index
/// regardless of scheduling, and each trial sees only its own seed. Workers
/// pull trials from a shared queue, so uneven per-seed runtimes still load
/// all `jobs` threads.
pub fn parallel_trials<T, F>(seeds: &[u64], jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let jobs = jobs.clamp(1, seeds.len().max(1));
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(seeds.len()));
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&seed) = seeds.get(i) else { break };
                    let out = f(seed);
                    done.lock().expect("no poisoned trial lock").push((i, out));
                })
            })
            .collect();
        // Joined, not just awaited by the scope: a joined thread has exited,
        // so the next sweep's workers reuse its malloc arena instead of
        // making new ones.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let mut done = done.into_inner().expect("no poisoned trial lock");
    done.sort_by_key(|(i, _)| *i);
    assert_eq!(done.len(), seeds.len(), "every trial completed");
    done.into_iter().map(|(_, out)| out).collect()
}

/// The number of worker threads to default to (`--jobs` unset).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Formats a nanosecond quantity as milliseconds.
pub fn ms(nanos: u64) -> String {
    format!("{:.1}", nanos as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formats_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&[&"alpha", &42]);
        t.row(&[&"b", &7]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("alpha"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_is_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn parallel_trials_preserve_order_at_any_job_count() {
        let seeds: Vec<u64> = (0..37).collect();
        for jobs in [1, 2, 8, 64] {
            let out = parallel_trials(&seeds, jobs, |s| s * 2);
            assert_eq!(out, seeds.iter().map(|s| s * 2).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn mix_seed_is_transparent_at_seed_zero_and_spreads_otherwise() {
        assert_eq!(mix_seed(0, 0xE3), 0xE3);
        assert_eq!(mix_seed(0, 2022), 2022);
        let a = mix_seed(1, 0xE3);
        let b = mix_seed(2, 0xE3);
        assert_ne!(a, b);
        assert_ne!(a, 0xE3);
    }

    #[test]
    fn slug_normalizes_labels() {
        assert_eq!(slug("full-stack"), "full_stack");
        assert_eq!(slug("latency 100 ms"), "latency_100_ms");
        assert_eq!(slug("fec-8+4 (burst)"), "fec_8_4_burst");
        assert_eq!(slug("  FPS 72  "), "fps_72");
    }

    #[test]
    fn report_collects_scalars_and_flags() {
        let mut r = Report::new();
        r.scalar("a", 1.5);
        r.flag("ok", true);
        assert_eq!(r.scalars.get("a"), Some(&1.5));
        assert_eq!(r.scalars.get("ok"), Some(&1.0));
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_scalars_are_rejected() {
        Report::new().scalar("bad", f64::NAN);
    }

    #[test]
    fn scale_round_trips_the_quick_flag() {
        assert!(Scale::from_quick_flag(true).is_quick());
        assert!(!Scale::from_quick_flag(false).is_quick());
        assert_eq!(Scale::Quick.as_str(), "quick");
        assert_eq!(Scale::Full.to_string(), "full");
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(1_500_000), "1.5");
    }
}
