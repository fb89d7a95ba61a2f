//! A real classroom session must actually shard (no silent serial
//! fallback) while producing the serial engine's world-facing metrics.
//! That BENCH documents are byte-identical across engines is `bench
//! verify`'s job, on every document and three engines.
//!
//! Engine selection is per-run state ([`EngineConfig`] threaded through
//! [`SessionBuilder::engine_config`]), so the comparison is parallel-safe.

use metaclass_core::{Activity, SessionBuilder};
use metaclass_netsim::{EngineConfig, LinkClass, Region, SimDuration};

/// One quick E3 session: campus + remote cohort behind the cloud relay —
/// the topology the partitioner is expected to cut at the WAN.
fn e3_session(engine: EngineConfig) -> metaclass_core::ClassroomSession {
    SessionBuilder::new()
        .seed(3)
        .engine_config(engine)
        .activity(Activity::Seminar)
        .campus("CWB", Region::EastAsia, 4, true)
        .remote_cohort(Region::EastAsia, 10, LinkClass::ResidentialAccess)
        .build()
}

#[test]
fn e3_session_shards_and_matches_serial() {
    let run = |engine| {
        let mut s = e3_session(engine);
        s.run_for(SimDuration::from_secs(1));
        let windows = s.sim().metrics().counter_value("engine.shard.windows");
        (s.sim().metrics().snapshot().without_prefix("engine."), windows)
    };
    let (serial_metrics, serial_windows) = run(EngineConfig::serial());
    let (sharded_metrics, sharded_windows) = run(EngineConfig::sharded(4));
    assert_eq!(serial_windows, 0, "serial engine must not report shard windows");
    assert!(sharded_windows > 0, "the E3 topology must actually shard, not fall back");
    assert_eq!(serial_metrics, sharded_metrics, "world-facing metrics diverged");
}
