//! Parallel, deterministic multi-seed sweeps with machine-readable results.
//!
//! A sweep fans N independent `(scale, seed)` runs of one [`Experiment`]
//! across scoped worker threads, then folds the per-run [`Report`]s into
//! cross-run statistics: per-scalar mean / std-dev / p50 / p95 / 95% CI, a
//! merged [`MetricsRegistry`] (counters add, histograms merge bucket-wise),
//! and an order-sensitive fingerprint over every scalar of every run.
//!
//! **Determinism contract.** The merged document — and therefore the JSON
//! written to `results/BENCH_<exp>.json` — is a pure function of
//! `(experiment, scale, seeds)`. The `--jobs` worker count, thread
//! scheduling, and repetition never change a byte: runs are folded in seed
//! order after the parallel phase completes, every map is a `BTreeMap`, and
//! the JSON writer is hand-rolled with a fixed field order. A test in
//! `tests/sweep_determinism.rs` proves byte-identity between `--jobs 1`
//! and `--jobs 8`.
//!
//! The JSON schema (version [`SCHEMA_VERSION`]) is the [`SweepDoc`] struct
//! tree; `bench --validate <file>` re-parses a file against it with
//! `deny_unknown_fields`, so schema drift fails loudly instead of silently.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use metaclass_netsim::{EngineConfig, Fnv1a, MetricsRegistry, MetricsSnapshot};
use serde::{Deserialize, Serialize};

use crate::{parallel_trials, Experiment, Report, RunCtx, Scale, Table};

/// Version of the `BENCH_*.json` schema. Bump on any breaking change to
/// [`SweepDoc`] or its children.
pub const SCHEMA_VERSION: u32 = 1;

/// Configuration of one sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Seeds to run, one independent simulation per entry.
    pub seeds: Vec<u64>,
    /// Maximum worker threads (clamped to `[1, seeds.len()]`).
    pub jobs: usize,
    /// Scale every run uses.
    pub scale: Scale,
    /// Simulation engine every run uses. Per-run state, so sweeps with
    /// different engines can execute concurrently in one process.
    pub engine: EngineConfig,
}

impl SweepConfig {
    /// Sweeps seeds `1..=n` (seed 0 is reserved for the legacy single-run
    /// behaviour) with the given worker count and scale, on the default
    /// serial engine.
    pub fn first_n(n: u64, jobs: usize, scale: Scale) -> Self {
        SweepConfig { seeds: (1..=n).collect(), jobs, scale, engine: EngineConfig::default() }
    }

    /// Replaces the engine configuration every run uses.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}

/// Cross-run statistics for one scalar metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MetricStats {
    /// Number of runs the metric appeared in.
    pub count: u64,
    /// Mean across runs.
    pub mean: f64,
    /// Sample standard deviation (0 for a single run).
    pub std_dev: f64,
    /// Smallest per-run value.
    pub min: f64,
    /// Largest per-run value.
    pub max: f64,
    /// Median (nearest-rank) across runs.
    pub p50: f64,
    /// 95th percentile (nearest-rank) across runs.
    pub p95: f64,
    /// Half-width of the normal-approximation 95% confidence interval of
    /// the mean (`1.96 * std_dev / sqrt(count)`).
    pub ci95: f64,
}

/// Computes [`MetricStats`] over per-run values (order-insensitive).
pub fn compute_stats(values: &[f64]) -> MetricStats {
    assert!(!values.is_empty(), "stats over no runs");
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = if values.len() < 2 {
        0.0
    } else {
        values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)
    };
    let std_dev = var.sqrt();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = |p: f64| {
        let idx = ((p / 100.0) * n).ceil().max(1.0) as usize - 1;
        sorted[idx.min(sorted.len() - 1)]
    };
    MetricStats {
        count: values.len() as u64,
        mean,
        std_dev,
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        p50: rank(50.0),
        p95: rank(95.0),
        ci95: 1.96 * std_dev / n.sqrt(),
    }
}

/// The schema-versioned, machine-readable result of one sweep: everything a
/// perf-trajectory consumer needs, independent of worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepDoc {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment id (`"e3"`).
    pub experiment: String,
    /// Experiment title.
    pub title: String,
    /// Scale name (`"quick"` / `"full"`).
    pub scale: String,
    /// The seeds that were run, in run order.
    pub seeds: Vec<u64>,
    /// FNV-1a digest over every `(key, value)` scalar of every run, folded
    /// in seed order: a cheap cross-run reproducibility token.
    pub fingerprint: String,
    /// Cross-run statistics per scalar metric, in name order.
    pub metrics: BTreeMap<String, MetricStats>,
    /// Counters and histograms merged across all runs.
    pub merged: MetricsSnapshot,
}

/// A finished sweep: the mergeable document plus the per-run reports (for
/// rendering a representative table).
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The machine-readable merged document.
    pub doc: SweepDoc,
    /// Per-run reports, in seed order.
    pub reports: Vec<Report>,
}

/// Runs `exp` once per seed on at most `cfg.jobs` worker threads and merges
/// the results. See the module docs for the determinism contract.
pub fn run_sweep(exp: &dyn Experiment, cfg: &SweepConfig) -> SweepOutcome {
    assert!(!cfg.seeds.is_empty(), "sweep needs at least one seed");
    let reports = parallel_trials(&cfg.seeds, cfg.jobs, |seed| {
        exp.run(&RunCtx { scale: cfg.scale, seed, engine: cfg.engine })
    });

    // Fold in seed order — never in completion order.
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut merged = MetricsRegistry::new();
    let mut fp = Fnv1a::new();
    for report in &reports {
        for (key, &value) in &report.scalars {
            values.entry(key).or_default().push(value);
            fp.write(key.as_bytes());
            fp.write_u64(value.to_bits());
        }
        merged.merge(&report.metrics);
    }

    let doc = SweepDoc {
        schema_version: SCHEMA_VERSION,
        experiment: exp.id().to_string(),
        title: exp.title().to_string(),
        scale: cfg.scale.as_str().to_string(),
        seeds: cfg.seeds.clone(),
        fingerprint: format!("{:016x}", fp.finish()),
        metrics: values.into_iter().map(|(k, v)| (k.to_string(), compute_stats(&v))).collect(),
        merged: merged.snapshot(),
    };
    SweepOutcome { doc, reports }
}

impl SweepDoc {
    /// Renders the cross-run statistics as an aligned table.
    pub fn stats_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "{}: sweep over {} seeds ({} scale)",
                self.experiment,
                self.seeds.len(),
                self.scale
            ),
            &["metric", "mean", "std", "p50", "p95", "min", "max", "ci95"],
        );
        for (name, s) in &self.metrics {
            t.row_strings(vec![
                name.clone(),
                format!("{:.3}", s.mean),
                format!("{:.3}", s.std_dev),
                format!("{:.3}", s.p50),
                format!("{:.3}", s.p95),
                format!("{:.3}", s.min),
                format!("{:.3}", s.max),
                format!("{:.3}", s.ci95),
            ]);
        }
        t
    }

    /// Serializes the document to its canonical JSON form.
    ///
    /// Hand-rolled (two-space indent, fixed field order, `BTreeMap` key
    /// order, shortest-round-trip float formatting) so the bytes are a pure
    /// function of the document — the byte-identity the determinism tests
    /// assert. `serde_json` parses this form back into [`SweepDoc`].
    pub fn to_json_string(&self) -> String {
        let mut w = JsonWriter::new();
        w.open();
        w.field_u64("schema_version", self.schema_version as u64);
        w.field_str("experiment", &self.experiment);
        w.field_str("title", &self.title);
        w.field_str("scale", &self.scale);
        w.field_u64_array("seeds", &self.seeds);
        w.field_str("fingerprint", &self.fingerprint);
        w.key("metrics");
        w.open();
        for (name, s) in &self.metrics {
            w.key(name);
            w.open();
            w.field_u64("count", s.count);
            w.field_f64("mean", s.mean);
            w.field_f64("std_dev", s.std_dev);
            w.field_f64("min", s.min);
            w.field_f64("max", s.max);
            w.field_f64("p50", s.p50);
            w.field_f64("p95", s.p95);
            w.field_f64("ci95", s.ci95);
            w.close();
        }
        w.close();
        w.key("merged");
        w.open();
        w.key("counters");
        w.open();
        for (name, &v) in &self.merged.counters {
            w.field_u64(name, v);
        }
        w.close();
        w.key("histograms");
        w.open();
        for (name, s) in &self.merged.histograms {
            w.key(name);
            w.open();
            w.field_u64("count", s.count);
            w.field_f64("mean", s.mean);
            w.field_u64("min", s.min);
            w.field_u64("p50", s.p50);
            w.field_u64("p90", s.p90);
            w.field_u64("p99", s.p99);
            w.field_u64("max", s.max);
            w.close();
        }
        w.close();
        w.close();
        w.close();
        w.finish()
    }

    /// Writes the canonical JSON to `<dir>/BENCH_<experiment>.json`,
    /// creating `dir` if needed. Returns the path written.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = bench_path(dir, &self.experiment);
        std::fs::write(&path, self.to_json_string())?;
        Ok(path)
    }
}

/// `<dir>/BENCH_<experiment>.json`: where a sweep is written and where its
/// baseline is kept.
pub fn bench_path(dir: &Path, experiment: &str) -> PathBuf {
    dir.join(format!("BENCH_{experiment}.json"))
}

/// Parses and validates a `BENCH_*.json` document: structurally (every
/// field present, no unknown fields — enforced by serde) and semantically
/// (supported schema version, non-empty metrics, seeds present).
pub fn validate_json(text: &str) -> Result<SweepDoc, String> {
    let doc: SweepDoc = serde_json::from_str(text).map_err(|e| format!("schema mismatch: {e}"))?;
    if doc.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {} (expected {SCHEMA_VERSION})",
            doc.schema_version
        ));
    }
    if doc.seeds.is_empty() {
        return Err("empty seeds".into());
    }
    if doc.metrics.is_empty() {
        return Err("no metrics".into());
    }
    if doc.fingerprint.len() != 16 || !doc.fingerprint.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!("malformed fingerprint {:?}", doc.fingerprint));
    }
    for (name, s) in &doc.metrics {
        if s.count == 0 || s.count > doc.seeds.len() as u64 {
            return Err(format!("metric {name}: count {} out of range", s.count));
        }
    }
    Ok(doc)
}

/// Minimal deterministic pretty-printer for the fixed [`SweepDoc`] shape
/// (objects and flat u64 arrays only).
struct JsonWriter {
    out: String,
    indent: usize,
    /// Whether the current container already has an entry (comma needed).
    has_entry: Vec<bool>,
}

impl JsonWriter {
    fn new() -> Self {
        JsonWriter { out: String::new(), indent: 0, has_entry: Vec::new() }
    }

    fn newline_entry(&mut self) {
        if let Some(has) = self.has_entry.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
            self.out.push('\n');
            for _ in 0..self.indent {
                self.out.push_str("  ");
            }
        }
    }

    fn open(&mut self) {
        self.out.push('{');
        self.indent += 1;
        self.has_entry.push(false);
    }

    fn close(&mut self) {
        let had = self.has_entry.pop().unwrap_or(false);
        self.indent -= 1;
        if had {
            self.out.push('\n');
            for _ in 0..self.indent {
                self.out.push_str("  ");
            }
        }
        self.out.push('}');
    }

    fn key(&mut self, key: &str) {
        self.newline_entry();
        self.push_string(key);
        self.out.push_str(": ");
    }

    fn field_str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.push_string(v);
    }

    fn field_u64(&mut self, key: &str, v: u64) {
        self.key(key);
        self.out.push_str(&v.to_string());
    }

    fn field_f64(&mut self, key: &str, v: f64) {
        assert!(v.is_finite(), "non-finite {key} in JSON output");
        self.key(key);
        // Rust's shortest-round-trip Display, suffixed so the value parses
        // as a JSON float even when it lands on an integer.
        let s = v.to_string();
        self.out.push_str(&s);
        if !s.contains('.') && !s.contains('e') {
            self.out.push_str(".0");
        }
    }

    fn field_u64_array(&mut self, key: &str, vs: &[u64]) {
        self.key(key);
        self.out.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.out.push_str(&v.to_string());
        }
        self.out.push(']');
    }

    fn push_string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\t' => self.out.push_str("\\t"),
                '\r' => self.out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_hand_computation() {
        let s = compute_stats(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev of this classic set is sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.p50, 4.0);
        assert_eq!(s.p95, 9.0);
        assert!((s.ci95 - 1.96 * s.std_dev / (8.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stats_of_one_run_have_zero_spread() {
        let s = compute_stats(&[3.5]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.p50, 3.5);
        assert_eq!(s.p95, 3.5);
    }

    #[test]
    fn stats_are_order_insensitive() {
        let a = compute_stats(&[1.0, 2.0, 3.0, 4.0]);
        let b = compute_stats(&[4.0, 2.0, 1.0, 3.0]);
        assert_eq!(a, b);
    }

    struct Affine;
    impl Experiment for Affine {
        fn id(&self) -> &'static str {
            "affine"
        }
        fn title(&self) -> &'static str {
            "seed-affine toy experiment"
        }
        fn run(&self, ctx: &RunCtx) -> Report {
            let mut r = Report::new();
            r.scalar("value", ctx.seed as f64 * 2.0 + 1.0);
            r.metrics.add("runs", 1);
            r.metrics.histogram("seed").record(ctx.seed);
            r
        }
    }

    #[test]
    fn sweep_json_is_independent_of_job_count() {
        let mk = |jobs| {
            let cfg = SweepConfig::first_n(16, jobs, Scale::Quick);
            run_sweep(&Affine, &cfg).doc.to_json_string()
        };
        let serial = mk(1);
        assert_eq!(serial, mk(8), "jobs must not change a byte");
        assert_eq!(serial, mk(16));
        assert_eq!(serial, mk(1), "re-running must reproduce the bytes");
    }

    #[test]
    fn sweep_merges_scalars_counters_and_histograms() {
        let cfg = SweepConfig::first_n(4, 2, Scale::Quick);
        let out = run_sweep(&Affine, &cfg);
        let stats = &out.doc.metrics["value"];
        // Seeds 1..=4 → values 3, 5, 7, 9.
        assert_eq!(stats.count, 4);
        assert_eq!(stats.mean, 6.0);
        assert_eq!(stats.min, 3.0);
        assert_eq!(stats.max, 9.0);
        assert_eq!(out.doc.merged.counters["runs"], 4);
        assert_eq!(out.doc.merged.histograms["seed"].count, 4);
        assert_eq!(out.reports.len(), 4);
        assert_eq!(out.doc.fingerprint.len(), 16);
    }

    #[test]
    fn canonical_json_has_fixed_shape() {
        let cfg = SweepConfig {
            seeds: vec![1, 2],
            jobs: 1,
            scale: Scale::Quick,
            engine: EngineConfig::default(),
        };
        let json = run_sweep(&Affine, &cfg).doc.to_json_string();
        assert!(json.starts_with("{\n  \"schema_version\": 1,"));
        assert!(json.contains("\"experiment\": \"affine\""));
        assert!(json.contains("\"seeds\": [1, 2]"));
        assert!(json.contains("\"mean\": 4.0"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn first_n_reserves_seed_zero() {
        let cfg = SweepConfig::first_n(3, 1, Scale::Full);
        assert_eq!(cfg.seeds, vec![1, 2, 3]);
    }
}
