//! Property test: the timer wheel's pop order is byte-for-byte the binary
//! heap's pop order for arbitrary legal schedules — including same-timestamp
//! ties (broken by seq), sub-slot jitter, horizon-edge times, far-future
//! events that overflow the wheel into its fallback heap, and periodic
//! same-instant bursts whose drained slots' pool nodes are reused.

use metaclass_netsim::sched::{BinaryHeapQueue, EventQueue, TimerWheel};
use metaclass_netsim::SimTime;
use proptest::prelude::*;

/// Interprets a delta list as an interleaved push/pop workload obeying the
/// queue contract (never scheduling before the last popped event), driving
/// both implementations in lockstep and comparing every popped triple.
fn run_workload(deltas: &[u64], pop_stride: usize) {
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut heap: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    // Lower bound for future pushes: the last popped time.
    let mut clock = 0u64;
    for (i, &delta) in deltas.iter().enumerate() {
        let seq = i as u64;
        let at = SimTime::from_nanos(clock.saturating_add(delta));
        wheel.push(at, seq, seq);
        heap.push(at, seq, seq);
        if i % pop_stride == pop_stride - 1 {
            let got = wheel.pop();
            let want = heap.pop();
            assert_eq!(got, want, "divergence after {} pushes", i + 1);
            if let Some((t, _, _)) = want {
                clock = t.as_nanos();
            }
        }
        assert_eq!(wheel.len(), heap.len());
    }
    loop {
        assert_eq!(wheel.peek_key(), heap.peek_key());
        let got = wheel.pop();
        let want = heap.pop();
        assert_eq!(got, want, "divergence during final drain");
        if want.is_none() {
            break;
        }
    }
}

/// Delta distribution spanning every wheel regime: same-instant ties (0),
/// sub-slot jitter, multi-slot delays, the ~268 ms horizon edge, and
/// far-future overflow.
fn delta_strategy() -> impl Strategy<Value = u64> {
    (0u64..10, 0u64..10_000_000_000).prop_map(|(bucket, raw)| match bucket {
        0 | 1 => 0,                               // tie with a pending event
        2..=4 => raw % 1_000_000,                 // within one slot
        5 | 6 => raw % 250_000_000,               // up to just inside/outside horizon
        7 => 268_000_000 + raw % 10_000_000,      // straddles the horizon edge
        _ => 1_000_000_000 + raw % 9_000_000_000, // deep overflow
    })
}

/// Same-instant bursts at periodic ticks (synchronized update loops): at
/// tick `i` the `i`-th burst of `size` events lands at one instant, then
/// `pops` events are popped. A backlog spreads over several slots and the
/// overflow heap, and every drained slot's nodes are reused by later bursts.
fn run_bursts(period_ns: u64, bursts: &[(usize, usize)]) {
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut heap: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    let mut seq = 0u64;
    for (tick, &(size, pops)) in bursts.iter().enumerate() {
        let at = SimTime::from_nanos(tick as u64 * period_ns);
        for _ in 0..size {
            wheel.push(at, seq, seq);
            heap.push(at, seq, seq);
            seq += 1;
        }
        for _ in 0..pops {
            assert_eq!(wheel.pop(), heap.pop(), "divergence at tick {tick}");
        }
        assert_eq!(wheel.len(), heap.len());
    }
    loop {
        let want = heap.pop();
        assert_eq!(wheel.pop(), want, "divergence during final drain");
        if want.is_none() {
            break;
        }
    }
}

proptest! {
    #[test]
    fn periodic_bursts_match_heap(
        // Sub-slot to multi-slot periods; 200 ticks of the longest period
        // sweep the ~268 ms ring about 30 times.
        period_ns in 500_000u64..40_000_000,
        bursts in proptest::collection::vec((0usize..60, 0usize..80), 1..200),
    ) {
        run_bursts(period_ns, &bursts);
    }

    #[test]
    fn wheel_pop_order_equals_heap_pop_order(
        deltas in proptest::collection::vec(delta_strategy(), 1..300),
        pop_stride in 1usize..5,
    ) {
        run_workload(&deltas, pop_stride);
    }

    #[test]
    fn pure_fill_then_drain_matches(
        deltas in proptest::collection::vec(delta_strategy(), 1..300),
    ) {
        // No interleaved pops: everything lands relative to t = 0, then one
        // long drain (the `run_until_idle` shape).
        run_workload(&deltas, usize::MAX);
    }
}
