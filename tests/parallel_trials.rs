//! Concurrency stress: whole sessions are `Send`, so experiment harnesses
//! can run seeded trials on worker threads. Determinism must survive
//! parallel execution — each trial's result depends only on its seed.

use metaclassroom::core::SessionBuilder;
use metaclassroom::netsim::{LinkClass, Region, SimDuration};

fn trial(seed: u64) -> (u64, f64) {
    let mut s = SessionBuilder::new()
        .seed(seed)
        .campus("CWB", Region::EastAsia, 4, true)
        .remote_cohort(Region::Europe, 2, LinkClass::ResidentialAccess)
        .build();
    s.run_for(SimDuration::from_secs(2));
    let r = s.report();
    (r.updates_sent, r.replication_bandwidth_bps())
}

#[test]
fn parallel_trials_match_serial_execution() {
    let seeds: Vec<u64> = (0..8).collect();

    // Serial reference.
    let serial: Vec<_> = seeds.iter().map(|&s| trial(s)).collect();

    // Parallel run on scoped threads.
    let mut parallel: Vec<Option<(u64, f64)>> = vec![None; seeds.len()];
    std::thread::scope(|scope| {
        for (slot, &seed) in parallel.iter_mut().zip(&seeds) {
            scope.spawn(move || {
                *slot = Some(trial(seed));
            });
        }
    });

    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(Some(*s), *p, "trial {i} diverged between serial and parallel runs");
    }

    // Different seeds genuinely explore different executions.
    let distinct: std::collections::BTreeSet<u64> =
        serial.iter().map(|(updates, _)| *updates).collect();
    assert!(distinct.len() > 1, "all seeds produced identical traffic");
}

#[test]
fn sessions_can_be_moved_across_threads_mid_run() {
    let mut s = SessionBuilder::new().seed(3).campus("CWB", Region::EastAsia, 3, false).build();
    s.run_for(SimDuration::from_secs(1));
    let handle = std::thread::spawn(move || {
        s.run_for(SimDuration::from_secs(1));
        s.report().updates_sent
    });
    let sent = handle.join().expect("no panic");
    assert!(sent > 0);
}
