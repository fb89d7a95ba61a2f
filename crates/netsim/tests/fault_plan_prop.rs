//! Property tests for [`Simulation::apply_fault_plan`]: windows lower to
//! their start/end actions in list order and execute in (time, list
//! position) order, every action survives, and overlapping partition/flap
//! windows leave links in the state the engine's orthogonal admin/partition
//! semantics prescribe.

use std::sync::{Arc, Mutex};

use metaclass_netsim::{
    Context, FaultAction, FaultWindow, LinkConfig, Node, NodeId, SimDuration, SimEvent, SimTime,
    SimView, Simulation,
};
use proptest::prelude::*;

fn n(i: usize) -> NodeId {
    NodeId::from_index(i)
}

struct Idle;
impl Node<()> for Idle {
    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Executed fault actions are the lowered windows stable-sorted by time:
    /// a permutation of the input, non-decreasing in time, and actions at
    /// equal times keep their list position (window `i`'s start is action
    /// `2i`, its end `2i + 1`).
    #[test]
    fn prop_actions_execute_in_time_then_list_order(
        spans in proptest::collection::vec((0u64..4, 1u64..3), 0..12),
    ) {
        let mut sim: Simulation<()> = Simulation::new(7);
        for i in 0..spans.len() {
            sim.add_node(format!("n{i}"), Idle);
        }
        // CrashRestart on node i tags each action with its window.
        let windows: Vec<FaultWindow> = spans
            .iter()
            .enumerate()
            .map(|(i, &(from, len))| FaultWindow::CrashRestart {
                node: n(i),
                from: SimTime::from_millis(from),
                until: SimTime::from_millis(from + len),
            })
            .collect();
        let mut expected: Vec<(SimTime, usize)> = windows
            .iter()
            .enumerate()
            .flat_map(|(i, w)| [(w.from(), 2 * i), (w.until(), 2 * i + 1)])
            .collect();
        expected.sort();
        let executed = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&executed);
        sim.set_observer(move |view: &SimView<'_>, event: &SimEvent<'_>| {
            let tagged = match event {
                SimEvent::Fault { action: FaultAction::CrashNode { node } } => 2 * node.index(),
                SimEvent::Fault { action: FaultAction::RestartNode { node } } => 2 * node.index() + 1,
                _ => return,
            };
            log.lock().unwrap().push((view.time(), tagged));
        });
        sim.apply_fault_plan(&windows);
        sim.run_until(SimTime::from_millis(10));
        let executed = executed.lock().unwrap().clone();
        prop_assert_eq!(executed, expected);
    }
}

/// A quiet 3-node triangle (0-1, 1-2, 0-2) for executing fault plans.
fn triangle() -> Simulation<()> {
    let mut sim = Simulation::new(7);
    let a = sim.add_node("a", Idle);
    let b = sim.add_node("b", Idle);
    let c = sim.add_node("c", Idle);
    let cfg = LinkConfig::new(SimDuration::from_millis(5));
    sim.connect(a, b, cfg);
    sim.connect(b, c, cfg);
    sim.connect(a, c, cfg);
    sim
}

fn available(sim: &Simulation<()>, a: NodeId, b: NodeId) -> bool {
    let id = sim.link_between(a, b).expect("triangle link exists");
    sim.link(id).is_available()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Overlapping partition windows and link flaps compose orthogonally:
    /// while the partition is active its severed links are unavailable no
    /// matter what the flap did; once both windows close, every link is back
    /// (Heal restores partition-severed links, LinkUp restores admin state).
    #[test]
    fn prop_overlapping_partition_and_flap_end_state(
        // Partition window [p0, p0+pd), flap window [f0, f0+fd) on link 0-1,
        // all within 0..600 ms so every overlap order is exercised.
        p0 in 0u64..300, pd in 1u64..300,
        f0 in 0u64..300, fd in 1u64..300,
        partition_listed_first in any::<bool>(),
    ) {
        let (a, b, c) = (n(0), n(1), n(2));
        let p_from = SimTime::from_millis(p0);
        let p_until = SimTime::from_millis(p0 + pd);
        let f_from = SimTime::from_millis(f0);
        let f_until = SimTime::from_millis(f0 + fd);

        let partition =
            FaultWindow::Partition { groups: vec![vec![a], vec![b, c]], from: p_from, until: p_until };
        let flap = FaultWindow::LinkFlap { a, b, from: f_from, until: f_until };
        let plan =
            if partition_listed_first { [partition, flap] } else { [flap, partition] };

        // Mid-flight: stop 1 ns before the earliest window end; whatever is
        // still open must be visible in link availability.
        let first_end = p_until.min(f_until);
        let probe_at = SimTime::from_nanos(first_end.as_nanos() - 1);
        let mut sim = triangle();
        sim.apply_fault_plan(&plan);
        sim.run_until(probe_at);
        if probe_at >= p_from {
            prop_assert!(!available(&sim, a, b), "0-1 severed while partition active");
            prop_assert!(!available(&sim, a, c), "0-2 severed while partition active");
            prop_assert!(available(&sim, b, c), "1-2 in one group stays up");
        } else if probe_at >= f_from {
            prop_assert!(!available(&sim, a, b), "0-1 admin-down during the flap");
            prop_assert!(available(&sim, b, c));
            prop_assert!(available(&sim, a, c));
        }

        // Past both ends: full recovery regardless of overlap or list order.
        sim.run_until(SimTime::from_millis(700));
        prop_assert!(available(&sim, a, b), "0-1 must recover after flap-up and heal");
        prop_assert!(available(&sim, b, c), "1-2 must recover after heal");
        prop_assert!(available(&sim, a, c), "0-2 must recover after heal");
    }
}

#[test]
#[should_panic(expected = "must end after it starts")]
fn empty_windows_are_rejected() {
    let mut sim = triangle();
    let t = SimTime::from_millis(5);
    sim.apply_fault_plan(&[FaultWindow::LinkFlap { a: n(0), b: n(1), from: t, until: t }]);
}
