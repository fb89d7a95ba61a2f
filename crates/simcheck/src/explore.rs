//! Deterministic execution, randomized exploration, and schedule shrinking.
//!
//! [`run_plan`] executes one fault schedule against a [`Scenario`] with an
//! oracle set attached at every engine boundary, probing between 100 ms run
//! slices. [`explore`] samples random schedules case after case from a seed;
//! on violation, [`shrink`] minimizes the schedule while preserving the
//! failure signature (the violated oracle's name): first dropping whole
//! windows to 1-minimality (down to none, for a failure no fault causes),
//! then halving the survivors' durations.
//!
//! Everything is a pure function of the seed — no wall clock, no ambient
//! randomness — so `explore` output is byte-identical across reruns.

use metaclass_core::ScenarioSpec;
use metaclass_netsim::{DetRng, EngineConfig, FaultWindow, Fnv1a, SimTime};

use crate::oracle::{observer_for, shared, Oracle, Probe, Violation};
use crate::plan::{generate_windows, halved};
use crate::scenario::Scenario;

/// SplitMix64-style seed mixer (locally defined so simcheck stays
/// independent of the bench crate).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Outcome of executing one schedule.
#[derive(Debug)]
pub struct RunOutcome {
    /// The first violation, if any oracle fired.
    pub violation: Option<Violation>,
    /// Total engine events processed (part of the exploration fingerprint).
    pub events: u64,
}

/// Time regions in which freshness oracles hold their fire: each window
/// inflated by one probe interval before and the scenario margin after.
fn disturbance_regions(scn: &Scenario, windows: &[FaultWindow]) -> Vec<(SimTime, SimTime)> {
    windows
        .iter()
        .map(|w| {
            let open =
                SimTime::from_nanos(w.from().as_nanos().saturating_sub(scn.probe_every.as_nanos()));
            let close = w.until() + scn.margin();
            (open, close)
        })
        .collect()
}

fn in_region(regions: &[(SimTime, SimTime)], now: SimTime) -> bool {
    regions.iter().any(|&(open, close)| now >= open && now <= close)
}

/// Runs `windows` against a fresh session of `scn` with the given oracles.
/// Stops early at the first violation.
pub fn run_plan(
    scn: &Scenario,
    windows: &[FaultWindow],
    oracles: Vec<Box<dyn Oracle>>,
) -> RunOutcome {
    let (mut session, topology) = scn.build();
    let registry = shared(oracles);
    session.sim_mut().set_observer(observer_for(&registry));
    session.sim_mut().apply_fault_plan(windows);
    let regions = disturbance_regions(scn, windows);
    let end = scn.end();

    loop {
        session.run_for(scn.probe_every);
        let now = session.time();
        let done = now >= end;
        {
            let mut reg = registry.lock().expect("oracle registry poisoned");
            if reg.violation().is_none() {
                let quiet = now >= scn.warmup && !in_region(&regions, now);
                let probe = Probe { session: &session, topology: &topology, now, quiet };
                reg.check_probe(&probe);
                if done && reg.violation().is_none() {
                    reg.check_end(&probe);
                }
            }
            if done || reg.violation().is_some() {
                let events = session.sim().events_processed();
                return RunOutcome { violation: reg.violation().cloned(), events };
            }
        }
    }
}

/// Minimizes `windows` while the run keeps violating the oracle named
/// `target`. Returns the minimal schedule and how many verification runs
/// were spent. The result is 1-minimal at window granularity: removing any
/// single remaining window no longer reproduces the failure. A failure that
/// needs no fault at all shrinks to the empty schedule.
pub fn shrink(
    scn: &Scenario,
    windows: Vec<FaultWindow>,
    target: &str,
    factory: &dyn Fn(&Scenario) -> Vec<Box<dyn Oracle>>,
    max_runs: u32,
) -> (Vec<FaultWindow>, u32) {
    let mut runs = 0u32;
    let fails = |ws: &[FaultWindow], runs: &mut u32| -> bool {
        if *runs >= max_runs {
            return false;
        }
        *runs += 1;
        run_plan(scn, ws, factory(scn)).violation.is_some_and(|v| v.oracle == target)
    };

    let mut current = windows;
    // Phase 1: drop whole windows to 1-minimality.
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if fails(&candidate, &mut runs) {
                current = candidate;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if !reduced || current.is_empty() {
            break;
        }
    }
    // Phase 2: halve surviving windows' durations while the failure holds.
    for i in 0..current.len() {
        while let Some(smaller) = halved(&current[i]) {
            let mut candidate = current.clone();
            candidate[i] = smaller;
            if !fails(&candidate, &mut runs) {
                break;
            }
            current = candidate;
        }
    }
    (current, runs)
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Master seed; case `i` derives its session seed and schedule from it.
    pub seed: u64,
    /// Number of random schedules to run.
    pub cases: u32,
    /// Quick (test-sized) or full scenario.
    pub quick: bool,
    /// Flyweight pooled audience added to every case's spec as its
    /// `stress.population` ([`Scenario::add_pool`]; 0, the default, adds
    /// none).
    pub pooled: u64,
    /// Execution engine each case's session runs on. Per-run state, so
    /// explorations with different engines can share a process.
    pub engine: EngineConfig,
    /// Workload spec every case's session is built from in place of the
    /// classic two-campus spec of [`Scenario::quick`] / [`Scenario::full`]
    /// (`--scenario FILE`). Either way the session is built from a spec, and
    /// its stress faults become fixed windows prepended to each generated
    /// schedule.
    pub scenario: Option<ScenarioSpec>,
}

impl Default for ExploreConfig {
    /// `bench simcheck` with no flags: seed 7, 200 quick cases of the
    /// classic spec, no pool, on the serial engine.
    fn default() -> Self {
        ExploreConfig {
            seed: 7,
            cases: 200,
            quick: true,
            pooled: 0,
            engine: EngineConfig::default(),
            scenario: None,
        }
    }
}

/// One caught-and-shrunk violation.
#[derive(Debug)]
pub struct FoundViolation {
    /// Index of the failing case.
    pub case_index: u32,
    /// The session seed the case ran with (needed to replay).
    pub session_seed: u64,
    /// The violation as first observed.
    pub violation: Violation,
    /// Window count of the original random schedule.
    pub original_windows: usize,
    /// The minimal failing schedule.
    pub minimal: Vec<FaultWindow>,
    /// Verification runs the shrinker spent.
    pub shrink_runs: u32,
}

/// Result of an exploration sweep.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// Cases executed.
    pub cases: u32,
    /// Cases with no violation.
    pub clean: u32,
    /// Caught violations, shrunk.
    pub violations: Vec<FoundViolation>,
    /// FNV-1a fingerprint over per-case outcomes; byte-identical across
    /// reruns with the same config.
    pub fingerprint: u64,
}

impl ExploreOutcome {
    /// The fingerprint as a fixed-width hex string.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }
}

/// Explores `cfg.cases` random schedules with the standard oracle set.
///
/// # Errors
///
/// A workload [`Scenario::new`] rejects, before any case runs.
pub fn explore(cfg: &ExploreConfig) -> Result<ExploreOutcome, String> {
    explore_with(cfg, &crate::oracles::standard_oracles)
}

/// Explores with a caller-supplied oracle factory (used by tests to plant a
/// deliberately broken invariant and watch it get caught and shrunk).
///
/// # Errors
///
/// A workload [`Scenario::new`] rejects, before any case runs.
pub fn explore_with(
    cfg: &ExploreConfig,
    factory: &dyn Fn(&Scenario) -> Vec<Box<dyn Oracle>>,
) -> Result<ExploreOutcome, String> {
    let mut fingerprint = Fnv1a::new();
    let mut clean = 0u32;
    let mut violations = Vec::new();
    for case in 0..cfg.cases {
        let session_seed = mix(cfg.seed, 0x51C4 ^ u64::from(case));
        let mut scn = Scenario::new(cfg.quick, session_seed, cfg.scenario.clone(), cfg.pooled)?;
        scn.engine = cfg.engine;
        let (session, topo) = scn.build();
        let space = scn.plan_space(&topo);
        let mut rng = DetRng::new(cfg.seed).derive(0xFA17 ^ u64::from(case));
        let mut windows = scn.spec.fault_windows(&session);
        windows.extend(generate_windows(&space, &mut rng, scn.max_windows));
        let outcome = run_plan(&scn, &windows, factory(&scn));

        fingerprint.write_u64(u64::from(case));
        fingerprint.write_u64(windows.len() as u64);
        fingerprint.write_u64(outcome.events);
        match outcome.violation {
            None => {
                clean += 1;
                fingerprint.write(b"clean");
            }
            Some(violation) => {
                fingerprint.write(violation.oracle.as_bytes());
                let original_windows = windows.len();
                let (minimal, shrink_runs) = shrink(&scn, windows, violation.oracle, factory, 64);
                fingerprint.write_u64(minimal.len() as u64);
                violations.push(FoundViolation {
                    case_index: case,
                    session_seed,
                    violation,
                    original_windows,
                    minimal,
                    shrink_runs,
                });
            }
        }
    }
    Ok(ExploreOutcome { cases: cfg.cases, clean, violations, fingerprint: fingerprint.finish() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles::{standard_oracles, CanaryOracle};

    #[test]
    fn clean_run_with_no_faults_passes_all_oracles() {
        let scn = Scenario::quick(7);
        let out = run_plan(&scn, &[], standard_oracles(&scn));
        assert!(out.violation.is_none(), "violation: {:?}", out.violation);
        assert!(out.events > 1000, "the session actually ran");
    }

    #[test]
    fn exploration_is_deterministic() {
        let cfg = ExploreConfig { cases: 3, ..ExploreConfig::default() };
        let a = explore(&cfg).unwrap();
        let b = explore(&cfg).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.clean, b.clean);
        let c = explore(&ExploreConfig { seed: 8, ..cfg }).unwrap();
        assert_ne!(a.fingerprint, c.fingerprint, "different seeds explore differently");
    }

    /// A deliberately broken invariant (the canary trips on any link-down
    /// fault) must be caught by the explorer and shrunk to a single window.
    #[test]
    fn broken_invariant_is_caught_and_shrunk_to_a_minimal_plan() {
        let factory = |scn: &Scenario| -> Vec<Box<dyn Oracle>> {
            let mut oracles = standard_oracles(scn);
            oracles.push(Box::new(CanaryOracle { trip_code: 1 })); // LinkDown
            oracles
        };
        let cfg = ExploreConfig { cases: 20, ..ExploreConfig::default() };
        let out = explore_with(&cfg, &factory).unwrap();
        let caught: Vec<_> =
            out.violations.iter().filter(|v| v.violation.oracle == "canary").collect();
        assert!(!caught.is_empty(), "20 cases never drew a link flap");
        for v in caught {
            assert_eq!(v.minimal.len(), 1, "shrunk to a single window: {:?}", v.minimal);
            // Replaying the minimal schedule still trips the canary.
            let scn = Scenario::quick(v.session_seed);
            let replay = run_plan(&scn, &v.minimal, factory(&scn));
            assert_eq!(replay.violation.map(|x| x.oracle), Some("canary"));
        }
    }

    /// Fires at the first probe of every run, whatever the schedule.
    struct AlwaysFires;

    impl Oracle for AlwaysFires {
        fn name(&self) -> &'static str {
            "always"
        }

        fn on_probe(&mut self, _probe: &Probe<'_>) -> Result<(), String> {
            Err("fires with or without faults".into())
        }
    }

    /// A failure no fault causes shrinks to the empty schedule, not to one
    /// unrelated surviving window.
    #[test]
    fn a_fault_free_failure_shrinks_to_no_windows() {
        let scn = Scenario::quick(7);
        let (_, topo) = scn.build();
        let windows = generate_windows(&scn.plan_space(&topo), &mut DetRng::new(7), 4);
        assert!(!windows.is_empty());
        let factory = |_: &Scenario| -> Vec<Box<dyn Oracle>> { vec![Box::new(AlwaysFires)] };
        let (minimal, runs) = shrink(&scn, windows.clone(), "always", &factory, 64);
        assert!(minimal.is_empty(), "shrunk {} -> {} windows", windows.len(), minimal.len());
        assert_eq!(runs as usize, windows.len(), "one removal per window, each still failing");
    }
}
