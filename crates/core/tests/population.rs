//! Population-engine guarantees: a flyweight pool is *accounting-exact*.
//!
//! - Expanding a small population into individual clients (100% tracers)
//!   is byte-identical to an equivalent cohort — same nodes, same seeds,
//!   same metrics, on both engines.
//! - A pooled session replays byte-identically across the serial and
//!   sharded engines.
//! - Aggregate egress accounting conserves bytes and members under faults
//!   (link flaps on the pool's access path, cloud crash-restart, pool
//!   crash-restart): no byte is delivered or dropped that was not sent, and
//!   the pool and cloud re-converge on the exact admitted population.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use metaclass_core::SessionBuilder;
use metaclass_edge::{ClientPoolNode, CloudServerNode};
use metaclass_netsim::{
    EngineConfig, FaultWindow, LinkClass, NodeId, PopulationProfile, Region, SimDuration, SimEvent,
    SimTime, SimView,
};
use proptest::prelude::*;

fn pooled_builder(seed: u64, members: u64, tracers: u32) -> SessionBuilder {
    SessionBuilder::new().seed(seed).campus("CWB", Region::EastAsia, 2, true).population(
        Region::Europe,
        members,
        tracers,
        LinkClass::ResidentialAccess,
        PopulationProfile::flash_crowd(SimTime::from_millis(100), SimDuration::from_millis(400)),
    )
}

/// N ≤ 8, 100% tracers: the population expands into individual clients and
/// must be byte-identical to the same learners declared as a cohort — on
/// the serial and the sharded engine alike.
#[test]
fn fully_traced_pool_is_byte_identical_to_a_cohort_on_both_engines() {
    for engine in [EngineConfig::serial(), EngineConfig::sharded(2)] {
        let run = |pooled: bool| {
            let builder = SessionBuilder::new()
                .seed(41)
                .engine_config(engine)
                .campus("CWB", Region::EastAsia, 3, true)
                .remote_cohort(Region::NorthAmerica, 2, LinkClass::CellularAccess);
            let builder = if pooled {
                builder.population(
                    Region::Europe,
                    8,
                    8,
                    LinkClass::ResidentialAccess,
                    PopulationProfile::flash_crowd(SimTime::from_millis(700), SimDuration::ZERO),
                )
            } else {
                builder.remote_cohort_joining(
                    Region::Europe,
                    8,
                    LinkClass::ResidentialAccess,
                    SimDuration::from_millis(700),
                    SimDuration::ZERO,
                )
            };
            let mut s = builder.build();
            s.run_for(SimDuration::from_secs(4));
            assert_eq!(s.pools().len(), 0, "100% tracers must not create a pool node");
            s.sim().metrics().snapshot().without_prefix("engine.")
        };
        assert_eq!(run(true), run(false), "engine {engine:?}");
    }
}

/// The same pooled session must produce byte-identical metrics on the
/// serial and sharded engines.
#[test]
fn pooled_sessions_replay_byte_identically_across_engines() {
    let run = |engine: EngineConfig| {
        let mut s = pooled_builder(91, 300, 3).engine_config(engine).build();
        s.run_for(SimDuration::from_secs(6));
        s.sim().metrics().snapshot().without_prefix("engine.")
    };
    let serial = run(EngineConfig::serial());
    let sharded = run(EngineConfig::sharded(4));
    assert_eq!(serial, sharded);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under a flapping access link, a cloud crash-restart and optionally a
    /// crash-restart of the pool node itself, aggregate accounting stays
    /// conservative and convergent: pool↔cloud traffic never delivers or
    /// drops bytes that were not sent, the pool's member ledger balances
    /// exactly, and once the faults clear the pool and the cloud agree again
    /// on the exact admitted population.
    #[test]
    fn prop_pooled_accounting_conserves_bytes_and_members_under_faults(
        seed in 0u64..512,
        members in 9u64..400,
        flap_down_ms in 800u64..2000,
        flap_len_ms in 100u64..1500,
        crash_ms in 2500u64..4000,
        pool_crash_ms in (any::<bool>(), 1000u64..4000).prop_map(|(on, ms)| on.then_some(ms)),
    ) {
        let mut s = pooled_builder(seed, members, 2).build();
        let pooled = s.pooled_population();
        prop_assert_eq!(pooled, members - 2);
        let pool_node = s.pools()[0].node;
        let cloud = s.cloud();
        // Bytes (sent, delivered or dropped) per `(src, dst)` pair.
        let bytes = Arc::new(Mutex::new(BTreeMap::<(NodeId, NodeId), (u64, u64)>::new()));
        let tally = Arc::clone(&bytes);
        s.sim_mut().set_observer(move |_: &SimView<'_>, event: &SimEvent<'_>| {
            let mut tally = tally.lock().unwrap();
            match *event {
                SimEvent::Sent { src, dst, size_bytes } => {
                    tally.entry((src, dst)).or_default().0 += u64::from(size_bytes);
                }
                SimEvent::Delivered { src, dst, size_bytes, .. }
                | SimEvent::Dropped { src, dst, size_bytes, .. } => {
                    tally.entry((src, dst)).or_default().1 += u64::from(size_bytes);
                }
                _ => {}
            }
        });
        let mut plan = vec![
            FaultWindow::LinkFlap {
                a: pool_node,
                b: cloud,
                from: SimTime::from_millis(flap_down_ms),
                until: SimTime::from_millis(flap_down_ms + flap_len_ms),
            },
            FaultWindow::CrashRestart {
                node: cloud,
                from: SimTime::from_millis(crash_ms),
                until: SimTime::from_millis(crash_ms + 500),
            },
        ];
        // The crowd has all arrived by 1 s, so a later pool crash replays
        // the whole timeline in the restarted incarnation.
        if let Some(ms) = pool_crash_ms {
            plan.push(FaultWindow::CrashRestart {
                node: pool_node,
                from: SimTime::from_millis(ms),
                until: SimTime::from_millis(ms + 500),
            });
        }
        s.sim_mut().apply_fault_plan(&plan);
        s.run_for(SimDuration::from_secs(12));

        // Byte conservation on the pool↔cloud pair, per direction: every
        // delivered or dropped byte was sent, and the gap is only what is
        // still in flight at the horizon.
        for (src, dst) in [(pool_node, cloud), (cloud, pool_node)] {
            let (sent, resolved) =
                bytes.lock().unwrap().get(&(src, dst)).copied().unwrap_or_default();
            prop_assert!(sent > 0, "{src:?}->{dst:?} carried traffic");
            prop_assert!(
                resolved <= sent,
                "{src:?}->{dst:?}: resolved {resolved} B exceeds sent {sent} B"
            );
        }

        // Member conservation: the ledger balances exactly, and after the
        // fault window the pool re-admits its whole crowd. Each pool
        // incarnation counts every member's arrival once.
        let m = s.sim().metrics();
        let arrived = m.counter_value("pool.members_arrived");
        let incarnations = 1 + u64::from(pool_crash_ms.is_some());
        prop_assert_eq!(arrived, incarnations * pooled, "each member arrives once per incarnation");
        let pool = s.sim().node_as::<ClientPoolNode>(pool_node).unwrap();
        prop_assert_eq!(pool.active(), pooled, "pool recovered every member");
        let cloud_active = s.sim().node_as::<CloudServerNode>(cloud).unwrap().pooled_active();
        prop_assert_eq!(cloud_active, pooled, "cloud agrees with the pool");
    }
}
