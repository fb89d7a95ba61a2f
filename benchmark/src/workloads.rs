//! The five named workloads.
//!
//! `--seed` is the only input: it feeds `SessionBuilder::seed` (or the sweep
//! seed list) and the simulator sees nothing but the built session. Every
//! workload is a closed loop — a simulator consumes its own event queue, so
//! a slower build simply takes longer over the same events.

use metaclass_core::{protocol_codec, Activity, SessionBuilder, SessionConfig};
use metaclass_netsim::{EngineConfig, LinkClass, PopulationProfile, Region, SimDuration, SimTime};

/// How much of each workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the committed reference numbers were taken at.
    Full,
    /// Shrunk rosters and horizons: all five workloads in a few seconds,
    /// for `run.sh --smoke` and the tests.
    Smoke,
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One campus plus 100 individually simulated VR clients.
    RemoteCohort,
    /// Four MR campuses, no remote audience, serial engine.
    BlendedCampus,
    /// The same model under `EngineConfig::sharded(2)`.
    BlendedCampusSharded2,
    /// One campus plus a million pooled members.
    PlanetPool,
    /// Multi-seed sweeps of the five committed scenario specs.
    ScenarioSweep,
}

impl Workload {
    /// Every workload, in the order `run.sh` runs them.
    pub const ALL: [Workload; 5] = [
        Workload::RemoteCohort,
        Workload::BlendedCampus,
        Workload::BlendedCampusSharded2,
        Workload::PlanetPool,
        Workload::ScenarioSweep,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RemoteCohort => "remote_cohort",
            Workload::BlendedCampus => "blended_campus",
            Workload::BlendedCampusSharded2 => "blended_campus_sharded2",
            Workload::PlanetPool => "planet_pool",
            Workload::ScenarioSweep => "scenario_sweep",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The windowed-session description, for every workload but the sweep.
    pub fn session(self, size: Size) -> Option<SessionWorkload> {
        let smoke = size == Size::Smoke;
        let ms = SimDuration::from_millis;
        Some(match self {
            // Cost per simulated second drifts up ~20% over the first dozen
            // seconds as client buffers fill, so the pass is short and every
            // pass covers the same stretch of simulated time.
            Workload::RemoteCohort => SessionWorkload {
                build: remote_cohort,
                engine: EngineConfig::serial(),
                warmup: ms(if smoke { 300 } else { 1000 }),
                windows: if smoke { 2 } else { 8 },
                window: ms(if smoke { 300 } else { 1000 }),
                display_histogram: "client.display_latency_ns",
            },
            Workload::BlendedCampus | Workload::BlendedCampusSharded2 => SessionWorkload {
                build: blended_campus,
                engine: if self == Workload::BlendedCampus {
                    EngineConfig::serial()
                } else {
                    EngineConfig::sharded(2)
                },
                // The sharded engine plans on static estimates in its first
                // run call and replans on observed rates in the second, so
                // the warm-up is its own call.
                warmup: ms(if smoke { 300 } else { 2000 }),
                windows: if smoke { 2 } else { 6 },
                window: ms(if smoke { 300 } else { 2000 }),
                display_histogram: "display.latency_ns",
            },
            // One sample is a fresh build plus the whole flash crowd: no
            // warm-up, because the join burst is the workload.
            Workload::PlanetPool => SessionWorkload {
                build: planet_pool,
                engine: EngineConfig::serial(),
                warmup: SimDuration::ZERO,
                windows: 1,
                window: ms(if smoke { 1500 } else { 5000 }),
                display_histogram: "pool.display_latency_ns",
            },
            Workload::ScenarioSweep => return None,
        })
    }
}

/// A workload that builds one session and advances it in windows.
#[derive(Debug, Clone, Copy)]
pub struct SessionWorkload {
    /// Expands `(seed, size)` into the session program.
    pub build: fn(u64, Size) -> SessionBuilder,
    /// The engine the timed passes run under.
    pub engine: EngineConfig,
    /// Simulated time run before the first timed window (part of set-up).
    pub warmup: SimDuration,
    /// Timed windows per pass.
    pub windows: u32,
    /// Simulated length of one window.
    pub window: SimDuration,
    /// The audience display-latency histogram this workload reports.
    pub display_histogram: &'static str,
}

/// E3's shape: one small campus streaming to individually simulated VR
/// clients. Cloud interest/fan-out and client jitter-buffer/decode do the
/// work; the campus side is a few percent.
pub fn remote_cohort(seed: u64, size: Size) -> SessionBuilder {
    let learners = if size == Size::Smoke { 12 } else { 100 };
    SessionBuilder::new()
        .seed(seed)
        .activity(Activity::Seminar)
        .campus("CWB", Region::EastAsia, 4, true)
        .remote_cohort(Region::EastAsia, learners, LinkClass::ResidentialAccess)
}

/// The paper's MR-to-MR path at four campuses on three continents:
/// headsets, room arrays and edge fusion/encode do the work, at well under
/// a microsecond per event, so engine overhead is a first-order share. Cut
/// at the WAN, it is also a topology the sharded engine can split.
pub fn blended_campus(seed: u64, size: Size) -> SessionBuilder {
    let students = if size == Size::Smoke { 5 } else { 30 };
    SessionBuilder::new()
        .seed(seed)
        .campus("CWB", Region::EastAsia, students, true)
        .campus("EU", Region::Europe, students, true)
        .campus("NA", Region::NorthAmerica, students, true)
        .campus("GZ", Region::EastAsia, students, true)
}

/// Where the pooled population lives, in percent.
const PLANET_MIX: [(Region, u64); 4] = [
    (Region::EastAsia, 40),
    (Region::Europe, 25),
    (Region::NorthAmerica, 25),
    (Region::SouthAmerica, 10),
];

/// E3's planet tier: a million members in four flyweight pools joining as
/// one flash crowd, with the admission bucket and waiting room provisioned
/// for the whole population as `e3_scalability::measure_pooled` does, so
/// accounting and not the interactive default burst decides who gets in.
pub fn planet_pool(seed: u64, size: Size) -> SessionBuilder {
    let (population, tracers): (u64, u32) =
        if size == Size::Smoke { (20_000, 4) } else { (1_000_000, 16) };
    let mut server = SessionConfig::default().server;
    server.codec = protocol_codec();
    server.overload.admission.burst = population as u32;
    server.overload.admission.waiting_room = population as usize;
    let mut builder = SessionBuilder::new()
        .seed(seed)
        .activity(Activity::Seminar)
        .campus("CWB", Region::EastAsia, 4, true)
        .server_config(server);
    for (region, percent) in PLANET_MIX {
        builder = builder.population(
            region,
            population * percent / 100,
            tracers,
            LinkClass::ResidentialAccess,
            PopulationProfile::flash_crowd(
                SimTime::from_millis(200),
                SimDuration::from_millis(500),
            ),
        );
    }
    builder
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
