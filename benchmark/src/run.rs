//! Passes and the timed (untraced) run.
//!
//! A *pass* is one complete, deterministic unit of a workload: set-up
//! (build plus warm-up) followed by a fixed list of timed samples. A run is
//! one counted reference pass, which fixes the simulated statistics and the
//! model fingerprint for the seed, then timed passes until `--seconds` of
//! wall time are spent. Every pass covers the same simulated stretch, so
//! neither the simulated numbers nor peak memory depend on how many passes
//! the host got through, and every timed pass doubles as a determinism
//! check against the reference.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use metaclass_bench::experiments::scenario::ScenarioExperiment;
use metaclass_bench::sweep::{run_sweep, validate_json, SweepConfig};
use metaclass_bench::Scale;
use metaclass_core::ClassroomSession;
use metaclass_netsim::{EngineConfig, MetricsSnapshot};

use crate::alloc::count_allocs;
use crate::stats::{median, quartiles, Quartiles};
use crate::workloads::{SessionWorkload, Size, Workload};

/// One self-check; a failed one fails the command.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The values compared, for the log.
    pub detail: String,
}

impl Check {
    /// A check that two values are equal.
    pub fn equal<T: PartialEq + std::fmt::Debug>(
        name: impl Into<String>,
        left: T,
        right: T,
    ) -> Check {
        Check { name: name.into(), ok: left == right, detail: format!("{left:?} vs {right:?}") }
    }
}

/// Seed-determined simulated statistics of one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Mean of the audience display-latency histogram, simulated ms.
    pub display_mean_ms: f64,
    /// p99 of the same histogram (bucket resolution, ~6%), simulated ms.
    pub display_p99_ms: f64,
    /// Packets the simulated network delivered.
    pub delivered: u64,
    /// Packets it dropped (loss, queues, outages).
    pub dropped: u64,
}

impl SimStats {
    /// `delivered / (delivered + dropped)`.
    pub fn delivery_ratio(&self) -> f64 {
        self.delivered as f64 / (self.delivered + self.dropped).max(1) as f64
    }
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall seconds spent constructing the inputs (session build, spec
    /// load); part of `setup_s`.
    pub build_s: f64,
    /// Wall seconds from pass start to the first timed sample.
    pub setup_s: f64,
    /// Host milliseconds per simulated second, one entry per sample.
    pub samples: Vec<f64>,
    /// Simulated seconds the samples cover.
    pub sim_seconds: f64,
    /// Wall seconds the samples took.
    pub wall_s: f64,
    /// Allocator calls during the samples (0 unless counted).
    pub allocs: u64,
    /// Events processed over the whole pass, set-up included.
    pub events: u64,
    /// Events processed during the samples alone.
    pub sample_events: u64,
    /// Hash of the model's observable end state.
    pub fingerprint: u64,
    /// Simulated statistics at the end of the pass.
    pub sim: SimStats,
    /// The session's full metric registry (session workloads only).
    pub snapshot: Option<MetricsSnapshot>,
    /// Self-checks made along the way.
    pub checks: Vec<Check>,
}

impl Pass {
    /// Wall seconds spent processing events: warm-up plus samples.
    pub fn run_s(&self) -> f64 {
        self.setup_s - self.build_s + self.wall_s
    }

    /// Median of the per-sample costs.
    pub fn median_ms_per_sim_s(&self) -> f64 {
        median(&self.samples)
    }
}

/// FNV-1a, the digest family the simulator's own fingerprints use (theirs
/// is private to its crate).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The model fingerprint: every counter and histogram summary outside the
/// `engine.` namespace (which describes the executor and may differ between
/// engines) plus the event count.
pub fn model_fingerprint(session: &ClassroomSession) -> u64 {
    let snap = session.sim().metrics().snapshot().without_prefix("engine.");
    let mut h = Fnv::new();
    for (name, value) in &snap.counters {
        h.write(name.as_bytes());
        h.write(&value.to_le_bytes());
    }
    for (name, s) in &snap.histograms {
        h.write(name.as_bytes());
        for v in [s.count, s.mean.to_bits(), s.min, s.p50, s.p90, s.p99, s.max] {
            h.write(&v.to_le_bytes());
        }
    }
    h.write(&session.sim().events_processed().to_le_bytes());
    h.finish()
}

fn sim_stats(session: &ClassroomSession, display_histogram: &str) -> SimStats {
    let report = session.report();
    let (mean, p99) = session
        .sim()
        .metrics()
        .histogram_if_present(display_histogram)
        .map_or((0.0, 0), |h| (h.mean(), h.percentile(99.0)));
    SimStats {
        display_mean_ms: mean / 1e6,
        display_p99_ms: p99 as f64 / 1e6,
        delivered: report.net_delivered,
        dropped: report.net_dropped,
    }
}

/// Runs one pass of a session workload under `engine`.
pub fn session_pass(
    w: &SessionWorkload,
    engine: EngineConfig,
    seed: u64,
    size: Size,
    counted: bool,
) -> Pass {
    let start = Instant::now();
    let mut session = (w.build)(seed, size).engine_config(engine).build();
    let build_s = start.elapsed().as_secs_f64();
    if w.warmup.as_nanos() > 0 {
        session.run_for(w.warmup);
    }
    let setup_s = start.elapsed().as_secs_f64();
    let setup_events = session.sim().events_processed();
    let window_s = w.window.as_secs_f64();
    let measured = Instant::now();
    let (samples, allocs) = count_allocs(counted, || {
        (0..w.windows)
            .map(|_| {
                let t = Instant::now();
                session.run_for(w.window);
                t.elapsed().as_secs_f64() * 1e3 / window_s
            })
            .collect::<Vec<f64>>()
    });
    Pass {
        build_s,
        setup_s,
        samples,
        sim_seconds: window_s * w.windows as f64,
        wall_s: measured.elapsed().as_secs_f64(),
        allocs,
        events: session.sim().events_processed(),
        sample_events: session.sim().events_processed() - setup_events,
        fingerprint: model_fingerprint(&session),
        sim: sim_stats(&session, w.display_histogram),
        snapshot: Some(session.sim().metrics().snapshot()),
        checks: Vec::new(),
    }
}

/// The repository root: the benchmark reads the committed scenario specs
/// and sweep baselines from it. The binary is always built inside the
/// checkout it measures, so the compile-time location is the right one.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ sits in the repo").into()
}

/// The five committed scenario specs, in sweep order.
pub const SCENARIOS: [&str; 5] = ["broadcast", "exam", "lab", "lecture", "stress"];

/// Seeds of the committed `BENCH_scenario_*.json` baselines (quick scale).
const BASELINE_SEEDS: u64 = 4;

/// The shape of the sweep workload at a size.
#[derive(Debug, Clone, Copy)]
pub struct SweepShape {
    /// Scale of the timed sweeps.
    pub scale: Scale,
    /// Seeds per scenario per sample.
    pub seeds: u64,
    /// Samples per pass.
    pub samples: u32,
}

impl SweepShape {
    /// The sweep workload's shape at `size`.
    pub fn at(size: Size) -> SweepShape {
        match size {
            Size::Full => SweepShape { scale: Scale::Full, seeds: 4, samples: 3 },
            Size::Smoke => SweepShape { scale: Scale::Quick, seeds: 2, samples: 1 },
        }
    }

    /// The sweep seeds `--seed` selects: consecutive, disjoint between
    /// benchmark seeds.
    pub fn seeds_for(&self, seed: u64) -> Vec<u64> {
        let first = seed.saturating_sub(1) * self.seeds + 1;
        (first..first + self.seeds).collect()
    }
}

/// Loads the committed specs — the sweep workload's inputs.
///
/// # Panics
///
/// Panics if a committed spec does not load: that is a broken checkout.
pub fn load_scenarios() -> Vec<ScenarioExperiment> {
    let dir = repo_root().join("scenarios");
    SCENARIOS
        .iter()
        .map(|name| {
            let path = dir.join(format!("{name}.toml"));
            ScenarioExperiment::from_file(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        })
        .collect()
}

/// Runs all five sweeps once and renders their documents: one timed sample
/// of the sweep workload. Returns the JSON texts in [`SCENARIOS`] order.
pub fn sweep_sample(
    exps: &[ScenarioExperiment],
    seeds: &[u64],
    jobs: usize,
    scale: Scale,
) -> Vec<String> {
    let cfg = SweepConfig { seeds: seeds.to_vec(), ..SweepConfig::first_n(1, jobs, scale) };
    exps.iter().map(|exp| run_sweep(exp, &cfg).doc.to_json_string()).collect()
}

/// The sweep workload's fingerprint: a digest of one sample's documents.
pub fn docs_fingerprint(docs: &[String]) -> u64 {
    let mut fp = Fnv::new();
    docs.iter().for_each(|d| fp.write(d.as_bytes()));
    fp.finish()
}

/// Simulated seconds one sweep sample covers.
pub fn sweep_sim_seconds(exps: &[ScenarioExperiment], seeds: usize, scale: Scale) -> f64 {
    exps.iter()
        .map(|e| if scale.is_quick() { e.spec().duration() } else { e.spec().full_duration() })
        .map(|d| d.as_secs_f64() * seeds as f64)
        .sum()
}

/// Runs one pass of the sweep workload: load the specs and run the
/// quick-scale warm-up sweep (set-up), then the timed samples.
pub fn sweep_pass(seed: u64, size: Size, jobs: usize, counted: bool) -> Pass {
    let shape = SweepShape::at(size);
    let seeds = shape.seeds_for(seed);
    let start = Instant::now();
    let exps = load_scenarios();
    let build_s = start.elapsed().as_secs_f64();
    let baseline_seeds: Vec<u64> = (1..=BASELINE_SEEDS).collect();
    let warm = sweep_sample(&exps, &baseline_seeds, jobs, Scale::Quick);
    let setup_s = start.elapsed().as_secs_f64();

    let per_sample = sweep_sim_seconds(&exps, seeds.len(), shape.scale);
    let measured = Instant::now();
    let (timed, allocs) = count_allocs(counted, || {
        (0..shape.samples)
            .map(|_| {
                let t = Instant::now();
                let docs = sweep_sample(&exps, &seeds, jobs, shape.scale);
                (t.elapsed().as_secs_f64() * 1e3 / per_sample, docs)
            })
            .collect::<Vec<_>>()
    });
    let wall_s = measured.elapsed().as_secs_f64();

    let mut checks = Vec::new();
    let baselines = repo_root().join("results/baselines");
    for (name, text) in SCENARIOS.iter().zip(&warm) {
        let path = baselines.join(format!("BENCH_scenario_{name}.json"));
        let committed = std::fs::read_to_string(&path).unwrap_or_default();
        checks.push(Check {
            name: format!("warm-up sweep of {name} equals {}", path.display()),
            ok: *text == committed,
            detail: format!("{} vs {} bytes", text.len(), committed.len()),
        });
    }
    let (samples, docs): (Vec<f64>, Vec<Vec<String>>) = timed.into_iter().unzip();
    checks.push(Check {
        name: "every sample of the pass rendered the same documents".into(),
        ok: docs.iter().all(|d| *d == docs[0]),
        detail: format!("{} samples", docs.len()),
    });

    let mut sim = SimStats { display_mean_ms: 0.0, display_p99_ms: 0.0, delivered: 0, dropped: 0 };
    let mut events = 0.0;
    for (name, text) in SCENARIOS.iter().zip(&docs[0]) {
        match validate_json(text) {
            Ok(doc) => {
                let counter = |k: &str| doc.merged.counters.get(k).copied().unwrap_or(0);
                sim.delivered += counter("net.delivered");
                sim.dropped += ["loss", "queue", "down"]
                    .iter()
                    .map(|r| counter(&format!("net.dropped.{r}")))
                    .sum::<u64>();
                let scalar = |k: &str| doc.metrics.get(k).map_or(0.0, |s| s.mean);
                events += scalar("events_processed") * seeds.len() as f64;
                if *name == "stress" {
                    // The remote audience of the one scenario that composes
                    // faults, mobility and a flash crowd.
                    sim.display_mean_ms = doc
                        .merged
                        .histograms
                        .get("client.display_latency_ns")
                        .map_or(0.0, |h| h.mean / 1e6);
                    sim.display_p99_ms = scalar("vr_display_p99_ms");
                }
            }
            Err(e) => checks.push(Check {
                name: format!("sweep document of {name} validates"),
                ok: false,
                detail: e,
            }),
        }
    }
    Pass {
        build_s,
        setup_s,
        samples,
        sim_seconds: per_sample * shape.samples as f64,
        wall_s,
        allocs,
        events: events.round() as u64,
        sample_events: events.round() as u64 * shape.samples as u64,
        fingerprint: docs_fingerprint(&docs[0]),
        sim,
        snapshot: None,
        checks,
    }
}

/// Threads the sweep workload uses — the `--jobs` a user on this host
/// would get by default, capped at the two the workload was sized for.
pub fn sweep_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Runs one pass of any workload on its own engine.
pub fn pass(workload: Workload, seed: u64, size: Size, counted: bool) -> Pass {
    match workload.session(size) {
        Some(w) => session_pass(&w, w.engine, seed, size, counted),
        None => sweep_pass(seed, size, sweep_jobs(), counted),
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric value with the samples behind it, when it is a median.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// The reported value.
    pub value: f64,
    /// Quartiles of the samples `value` is the median of.
    pub spread: Option<Quartiles>,
}

impl From<f64> for Measured {
    fn from(value: f64) -> Self {
        Measured { value, spread: None }
    }
}

fn median_of(samples: &[f64]) -> Measured {
    let q = quartiles(samples);
    Measured { value: q.median, spread: Some(q) }
}

/// The result of a run: named metrics plus the evidence for `correct`.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<String, Measured>,
    /// Every self-check made.
    pub checks: Vec<Check>,
    /// Passes completed.
    pub passes: u64,
    /// The reference pass's model fingerprint.
    pub fingerprint: u64,
    /// The reference pass's event count.
    pub events: u64,
}

impl Outcome {
    /// Operations attempted: passes plus self-checks.
    pub fn attempted(&self) -> u64 {
        self.passes + self.checks.len() as u64
    }

    /// Operations failed. A pass that panics takes the process down before
    /// any result is printed, so only failed checks are counted here.
    pub fn failed(&self) -> u64 {
        self.checks.iter().filter(|c| !c.ok).count() as u64
    }

    /// Records a metric.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Measured>) {
        self.metrics.insert(name.into(), value.into());
    }
}

/// Checks that only make sense on the sharded workload: a serial pass of
/// the same model reproduces its end state, and no run call fell back to
/// serial execution.
pub fn sharded_checks(sharded: &Pass, serial: &Pass) -> Vec<Check> {
    let fallbacks = sharded
        .snapshot
        .as_ref()
        .and_then(|s| s.counters.get("engine.fallback_serial").copied())
        .unwrap_or(0);
    vec![
        Check::equal("sharded fingerprint equals serial", sharded.fingerprint, serial.fingerprint),
        Check::equal("sharded event count equals serial", sharded.events, serial.events),
        Check::equal("engine.fallback_serial is zero", fallbacks, 0),
    ]
}

/// The untraced run: every end-to-end metric of `workload`.
pub fn run_timed(workload: Workload, seed: u64, seconds: f64, size: Size) -> Outcome {
    let mut out = Outcome::default();

    // Counted reference pass: fingerprint, simulated statistics and the
    // allocation count for this seed. Its timings are discarded — it also
    // absorbs first-touch page faults and allocator growth.
    let reference = pass(workload, seed, size, true);
    out.passes += 1;
    out.checks.extend(reference.checks.iter().cloned());
    if workload == Workload::BlendedCampusSharded2 {
        let w = workload.session(size).expect("a session workload");
        let serial = session_pass(&w, EngineConfig::serial(), seed, size, false);
        out.passes += 1;
        out.checks.extend(sharded_checks(&reference, &serial));
    }

    // Timed passes with counting off. A pass that has started is finished,
    // so every pass contributes the same mix of samples.
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut setups, mut samples, mut reruns_equal) = (Vec::new(), Vec::new(), true);
    while setups.is_empty() || start.elapsed() < budget {
        let p = pass(workload, seed, size, false);
        out.passes += 1;
        reruns_equal &= p.fingerprint == reference.fingerprint && p.events == reference.events;
        out.checks.extend(p.checks);
        setups.push(p.setup_s);
        samples.extend(p.samples);
    }
    out.checks.push(Check {
        name: "uncounted reruns reproduce the counted reference fingerprint".into(),
        ok: reruns_equal,
        detail: format!("{} reruns", setups.len()),
    });

    out.set("setup_s", median_of(&setups));
    out.set("wall_ms_per_sim_s", median_of(&samples));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("allocs_per_sim_s", reference.allocs as f64 / reference.sim_seconds);
    out.set("sim_display_mean_ms", reference.sim.display_mean_ms);
    out.set("sim_delivery_ratio", reference.sim.delivery_ratio());
    out.fingerprint = reference.fingerprint;
    out.events = reference.events;
    out
}
