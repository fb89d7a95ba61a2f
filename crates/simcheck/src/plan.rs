//! Fault-schedule generation and shrinking over netsim [`FaultWindow`]s.
//!
//! A [`FaultWindow`] is a *paired* disturbance — every start carries its end —
//! so any subset of windows is still a well-formed schedule. The explorer
//! generates random window lists from a [`PlanSpace`], hands them to the
//! engine as they are, and shrinks at window granularity (drop a window,
//! halve its duration) rather than raw-event granularity, which keeps every
//! shrink candidate semantically closed (no crash without restart, no
//! partition without heal).

use metaclass_netsim::{DetRng, FaultWindow, LossModel, NodeId, SimDuration, SimTime};

/// Minimum window duration the shrinker will go down to.
const MIN_WINDOW: SimDuration = SimDuration::from_millis(10);

/// The shrinker's next candidate for `window`: the same window with its
/// duration halved (keeping the start), or `None` once that would go below
/// the 10 ms floor.
pub(crate) fn halved(window: &FaultWindow) -> Option<FaultWindow> {
    let from = window.from();
    let half = SimDuration::from_nanos(window.until().duration_since(from).as_nanos() / 2);
    (half >= MIN_WINDOW).then(|| window.with_span(from, from + half))
}

/// The space of schedules the generator samples from: which connections can
/// fault, which nodes can crash, which full-coverage partition splits exist,
/// and the time range windows must fit in.
#[derive(Debug, Clone)]
pub struct PlanSpace {
    /// Faultable connections (both directions are affected).
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Nodes that may crash (always restarted within the window).
    pub crashable: Vec<NodeId>,
    /// Candidate partition splits; each must cover every node in the
    /// simulation so the partition-isolation oracle is sound.
    pub splits: Vec<Vec<Vec<NodeId>>>,
    /// No window starts before this (lets the session warm up).
    pub earliest: SimTime,
    /// Every window ends by this time.
    pub horizon: SimTime,
}

/// Generates a random window list: between 1 and `max_windows` windows with
/// kinds, targets, and spans drawn from `rng`. Deterministic in the RNG
/// state. Window times are nanosecond-granular draws, so they essentially
/// never coincide with protocol timer instants.
///
/// # Panics
///
/// Panics if the space has no pairs, `earliest >= horizon`, or
/// `max_windows == 0`.
pub fn generate_windows(
    space: &PlanSpace,
    rng: &mut DetRng,
    max_windows: usize,
) -> Vec<FaultWindow> {
    assert!(!space.pairs.is_empty(), "plan space needs at least one faultable pair");
    assert!(space.earliest < space.horizon, "empty time range");
    assert!(max_windows > 0, "max_windows must be at least 1");
    let count = rng.range_u64(1, max_windows as u64 + 1) as usize;
    let lo = space.earliest.as_nanos();
    let hi = space.horizon.as_nanos();
    let mut windows = Vec::with_capacity(count);
    for _ in 0..count {
        // Kinds: 0 flap, 1 loss, 2 latency, 3 partition, 4 crash. Partition
        // and crash kinds degrade to link faults if the space lacks them.
        let mut kind = rng.range_u64(0, 5);
        if kind == 3 && space.splits.is_empty() {
            kind = 0;
        }
        if kind == 4 && space.crashable.is_empty() {
            kind = 1;
        }
        let max_dur: u64 = match kind {
            0 => 800_000_000,   // flap: up to 800 ms down
            1 => 1_200_000_000, // loss burst: up to 1.2 s
            2 => 1_000_000_000, // latency spike: up to 1 s
            3 => 1_000_000_000, // partition: up to 1 s
            _ => 1_200_000_000, // crash: up to 1.2 s outage
        };
        let min_dur = MIN_WINDOW.as_nanos() * 5; // 50 ms
        let start = rng.range_u64(lo, hi - min_dur);
        let dur = rng.range_u64(min_dur, max_dur.min(hi - start).max(min_dur + 1));
        let from = SimTime::from_nanos(start);
        let until = SimTime::from_nanos((start + dur).min(hi));
        let window = match kind {
            0 => {
                let (a, b) = space.pairs[rng.index(space.pairs.len())];
                FaultWindow::LinkFlap { a, b, from, until }
            }
            1 => {
                let (a, b) = space.pairs[rng.index(space.pairs.len())];
                let p = rng.range_f64(0.3, 0.95);
                FaultWindow::LossBurst { a, b, from, until, loss: LossModel::Iid { p } }
            }
            2 => {
                let (a, b) = space.pairs[rng.index(space.pairs.len())];
                let extra = SimDuration::from_nanos(rng.range_u64(50_000_000, 400_000_000));
                FaultWindow::LatencySpike { a, b, from, until, extra }
            }
            3 => {
                let groups = space.splits[rng.index(space.splits.len())].clone();
                FaultWindow::Partition { groups, from, until }
            }
            _ => {
                let node = space.crashable[rng.index(space.crashable.len())];
                FaultWindow::CrashRestart { node, from, until }
            }
        };
        windows.push(window);
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn space() -> PlanSpace {
        PlanSpace {
            pairs: vec![(n(1), n(2)), (n(1), n(0))],
            crashable: vec![n(1), n(2)],
            splits: vec![vec![vec![n(0), n(1)], vec![n(2)]]],
            earliest: SimTime::from_millis(500),
            horizon: SimTime::from_secs(3),
        }
    }

    #[test]
    fn generation_is_deterministic_and_in_range() {
        let s = space();
        let gen = |seed| {
            let mut rng = DetRng::new(seed);
            generate_windows(&s, &mut rng, 4)
        };
        assert_eq!(gen(7), gen(7));
        for seed in 0..50 {
            for w in gen(seed) {
                assert!(w.from() >= s.earliest, "{w:?}");
                assert!(w.until() <= s.horizon, "{w:?}");
                assert!(w.until() > w.from(), "{w:?}");
            }
        }
    }

    #[test]
    fn halving_keeps_the_start_down_to_the_floor() {
        let w = FaultWindow::LinkFlap {
            a: n(0),
            b: n(1),
            from: SimTime::from_millis(100),
            until: SimTime::from_millis(900),
        };
        let half = halved(&w).expect("800 ms halves");
        assert_eq!(half.from(), SimTime::from_millis(100));
        assert_eq!(half.until(), SimTime::from_millis(500));
        let tiny = w.with_span(SimTime::from_millis(100), SimTime::from_millis(115));
        assert!(halved(&tiny).is_none(), "below 2x floor, no candidate");
    }

    #[test]
    fn windows_round_trip_through_json() {
        let s = space();
        let mut rng = DetRng::new(11);
        let windows = generate_windows(&s, &mut rng, 4);
        let json = serde_json::to_string(&windows).unwrap();
        let back: Vec<FaultWindow> = serde_json::from_str(&json).unwrap();
        assert_eq!(windows, back);
    }
}
