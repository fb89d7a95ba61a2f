//! The counting allocator's gate. One `#[test]` only: the counter is
//! process-global, and a second test thread would pollute it.

use metabench::alloc::{count_allocs, CountingAlloc};
use metabench::run::session_pass;
use metabench::workloads::{Size, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn counting_changes_the_count_and_nothing_else() {
    let w = Workload::RemoteCohort.session(Size::Smoke).expect("a session workload");
    let counted = session_pass(&w, w.engine, 3, Size::Smoke, true);
    let uncounted = session_pass(&w, w.engine, 3, Size::Smoke, false);
    assert!(counted.allocs > 0, "a counted pass sees the simulator allocate");
    assert_eq!(uncounted.allocs, 0, "the gate is shut unless asked");
    assert_eq!(counted.fingerprint, uncounted.fingerprint);
    assert_eq!(counted.events, uncounted.events);
    assert_eq!(counted.sim, uncounted.sim);

    // The gate closes again after a counted section, and counts are exact
    // for a deterministic single-threaded section.
    let ((), first) = count_allocs(true, || drop(vec![0u8; 64]));
    let ((), second) = count_allocs(true, || drop(vec![0u8; 64]));
    let ((), off) = count_allocs(false, || drop(vec![0u8; 64]));
    assert_eq!((first, second, off), (1, 1, 0));
}
