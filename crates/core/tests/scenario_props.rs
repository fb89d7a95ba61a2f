//! Property tests for the scenario DSL: the expander is fully
//! deterministic — the same spec and seed produce byte-identical sessions
//! (run fingerprints) on the serial and sharded engines and across
//! reruns — and the TOML loader, fed hostile input, answers `Ok` or `Err`,
//! never a panic.

use metaclass_core::{
    FaultKind, FaultSpec, FlashCrowdSpec, MobilityEvent, PopulationSpec, ScenarioCampus,
    ScenarioCohort, ScenarioPattern, ScenarioSpec, StressSpec,
};
use metaclass_edge::DevicePlatform;
use metaclass_netsim::{EngineConfig, LinkClass, Region};
use proptest::prelude::*;

/// SplitMix64 step: a tiny deterministic generator so one sampled `u64`
/// fans out into a whole structured spec.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick(state: &mut u64, bound: u64) -> u64 {
    next(state) % bound.max(1)
}

const REGIONS: [Region; 8] = [
    Region::EastAsia,
    Region::SoutheastAsia,
    Region::SouthAsia,
    Region::Europe,
    Region::NorthAmerica,
    Region::SouthAmerica,
    Region::Oceania,
    Region::Africa,
];

const ACCESS: [LinkClass; 3] =
    [LinkClass::ResidentialAccess, LinkClass::CellularAccess, LinkClass::WiredLan];

const PLATFORMS: [DevicePlatform; 3] =
    [DevicePlatform::VrHeadset, DevicePlatform::MobileAr, DevicePlatform::DesktopSpectator];

/// Derives a structurally valid spec from one seed, covering every
/// optional section with nonzero probability.
fn spec_from_seed(seed: u64) -> ScenarioSpec {
    let mut st = seed;
    let pattern = ScenarioPattern::ALL[pick(&mut st, 4) as usize];
    let duration_ms = 500 + pick(&mut st, 1500);
    let n_campuses = 1 + pick(&mut st, 3) as usize;
    let campuses: Vec<ScenarioCampus> = (0..n_campuses)
        .map(|k| ScenarioCampus {
            name: format!("campus{k}"),
            region: REGIONS[pick(&mut st, 8) as usize],
            students: 1 + pick(&mut st, 4) as u32,
            presenter: k == 0,
        })
        .collect();
    let n_cohorts = pick(&mut st, 3) as usize;
    let cohorts: Vec<ScenarioCohort> = (0..n_cohorts)
        .map(|_| ScenarioCohort {
            region: REGIONS[pick(&mut st, 8) as usize],
            learners: 1 + pick(&mut st, 4) as u32,
            platform: if pick(&mut st, 2) == 0 {
                None
            } else {
                Some(PLATFORMS[pick(&mut st, 3) as usize])
            },
            access: ACCESS[pick(&mut st, 3) as usize],
            joins_at_ms: if pick(&mut st, 2) == 0 { None } else { Some(pick(&mut st, 400)) },
            stagger_ms: if pick(&mut st, 2) == 0 { None } else { Some(pick(&mut st, 100)) },
        })
        .collect();
    let total_learners: u32 = cohorts.iter().map(|c| c.learners).sum();
    let mobility = if total_learners > 0 && pick(&mut st, 2) == 0 {
        let n = 1 + pick(&mut st, 3);
        Some(
            (0..n)
                .map(|_| MobilityEvent {
                    learner: pick(&mut st, u64::from(total_learners)) as u32,
                    at_ms: pick(&mut st, duration_ms),
                    room: pick(&mut st, 3) as u32,
                })
                .collect(),
        )
    } else {
        None
    };
    let stress = if pick(&mut st, 2) == 0 {
        let flash_crowd = if pick(&mut st, 2) == 0 {
            Some(FlashCrowdSpec {
                region: REGIONS[pick(&mut st, 8) as usize],
                learners: 1 + pick(&mut st, 6) as u32,
                access: ACCESS[pick(&mut st, 3) as usize],
                at_ms: pick(&mut st, duration_ms),
            })
        } else {
            None
        };
        let population = if pick(&mut st, 2) == 0 {
            Some(PopulationSpec {
                region: REGIONS[pick(&mut st, 8) as usize],
                members: 1 + pick(&mut st, 300),
                tracers: pick(&mut st, 3) as u32,
                access: ACCESS[pick(&mut st, 3) as usize],
                at_ms: pick(&mut st, duration_ms),
                spread_ms: pick(&mut st, 300),
            })
        } else {
            None
        };
        let faults = if pick(&mut st, 2) == 0 {
            let kinds = [
                FaultKind::LinkFlap,
                FaultKind::LossBurst,
                FaultKind::LatencySpike,
                FaultKind::Partition,
                FaultKind::CrashEdge,
            ];
            let n = 1 + pick(&mut st, 2);
            Some(
                (0..n)
                    .map(|_| FaultSpec {
                        kind: kinds[pick(&mut st, 5) as usize],
                        campus: pick(&mut st, n_campuses as u64) as u32,
                        at_ms: pick(&mut st, duration_ms),
                        for_ms: 50 + pick(&mut st, 400),
                    })
                    .collect(),
            )
        } else {
            None
        };
        if flash_crowd.is_none() && population.is_none() && faults.is_none() {
            None
        } else {
            Some(StressSpec { flash_crowd, population, faults })
        }
    } else {
        None
    };
    ScenarioSpec {
        name: format!("prop{}", seed % 1000),
        pattern,
        duration_ms,
        full_duration_ms: if pick(&mut st, 2) == 0 { None } else { Some(duration_ms * 4) },
        cloud_region: REGIONS[pick(&mut st, 8) as usize],
        campuses,
        cohorts,
        mobility,
        stress,
    }
}

/// Every committed `scenarios/*.toml`, in name order.
fn committed_specs() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ is committed")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no specs under {dir}");
    paths.iter().map(|path| std::fs::read_to_string(path).expect("readable spec")).collect()
}

/// Negative literals whose magnitude does not fit `i128`: the first used to
/// overflow the loader's negation, the second wrapped to `+1`.
const OVERFLOW_LITERALS: [&str; 2] =
    ["-170141183460469231731687303715884105728", "-340282366920938463463374607431768211455"];

/// A numeric literal chosen to hurt: one of [`OVERFLOW_LITERALS`], or a digit
/// run of up to 45 digits (`u64` holds 20), optionally negative.
fn hostile_number(st: &mut u64) -> String {
    match pick(st, 4) {
        k @ 0..=1 => OVERFLOW_LITERALS[k as usize].to_string(),
        _ => {
            let sign = if pick(st, 2) == 0 { "-" } else { "" };
            let digits = (0..1 + pick(st, 45)).map(|_| char::from(b'0' + pick(st, 10) as u8));
            sign.chars().chain(digits).collect()
        }
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(64))]

    /// Hostile input never panics the TOML loader: arbitrary bytes (as the
    /// lossy UTF-8 a file read would hand over), and every committed spec
    /// with one byte flipped, one line deleted, or one value replaced by a
    /// hostile number.
    #[test]
    fn prop_hostile_toml_is_ok_or_err_never_a_panic(
        seed in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut st = seed;
        let _ = ScenarioSpec::from_toml_str(&String::from_utf8_lossy(&bytes));
        for spec in committed_specs() {
            let mut flipped = spec.as_bytes().to_vec();
            let at = pick(&mut st, flipped.len() as u64) as usize;
            flipped[at] ^= 1 + pick(&mut st, 255) as u8;
            let _ = ScenarioSpec::from_toml_str(&String::from_utf8_lossy(&flipped));

            let lines: Vec<&str> = spec.lines().collect();
            let victim = pick(&mut st, lines.len() as u64) as usize;
            let mut deleted = lines.clone();
            deleted.remove(victim);
            let _ = ScenarioSpec::from_toml_str(&deleted.join("\n"));

            let assignments: Vec<usize> =
                (0..lines.len()).filter(|&i| lines[i].contains(" = ")).collect();
            let victim = assignments[pick(&mut st, assignments.len() as u64) as usize];
            let (key, _) = lines[victim].split_once(" = ").expect("filtered on it");
            let hostile = format!("{key} = {}", hostile_number(&mut st));
            let mut replaced = lines.clone();
            replaced[victim] = &hostile;
            let _ = ScenarioSpec::from_toml_str(&replaced.join("\n"));
        }
    }
}

proptest! {
    // Each case runs real simulations three times; keep the count small.
    #![proptest_config(proptest::test_runner::Config::with_cases(4))]

    /// The expander is deterministic end to end: same spec + seed gives
    /// identical fingerprints and event counts on the serial engine, the
    /// sharded engine, and a serial rerun.
    #[test]
    fn prop_expansion_is_byte_identical_across_engines_and_reruns(seed in any::<u64>()) {
        let mut spec = spec_from_seed(seed);
        // Bound the horizon so four cases stay test-sized.
        spec.duration_ms = spec.duration_ms.min(900);
        let fingerprint = |engine: EngineConfig| {
            let mut session = spec.build_session(seed ^ 0xD5, engine);
            session.sim_mut().enable_fingerprint();
            session.run_for(spec.duration());
            let events = session.sim().events_processed();
            (session.sim().fingerprint().expect("fingerprint enabled"), events)
        };
        let serial = fingerprint(EngineConfig::serial());
        let sharded = fingerprint(EngineConfig::sharded(4));
        prop_assert_eq!(&serial, &sharded, "serial vs sharded diverged");
        prop_assert_eq!(&serial, &fingerprint(EngineConfig::serial()), "rerun diverged");
        prop_assert!(serial.1 > 0, "the session must actually run");
    }
}
