//! Scripted fault injection.
//!
//! A fault schedule is a list of [`FaultWindow`]s — link flaps, loss bursts,
//! latency spikes, network partitions, and node crash/restart cycles, each a
//! paired start/end over `[from, until)`.
//! [`Simulation::apply_fault_plan`](crate::Simulation::apply_fault_plan) is
//! the one way to change link or node state once the topology is built: it
//! lowers the windows to [`FaultAction`]s and queues each as an ordinary
//! event, and this module executes them. Because the schedule is data (not
//! callbacks), it is fully replayable: the same seed and windows produce
//! byte-identical traces and metrics across runs and engines.

use serde::{Deserialize, Serialize};

use crate::link::{Link, LossModel};
use crate::node::NodeId;
use crate::observe::SimEvent;
use crate::sched::EventQueue;
use crate::sim::{pack_stamp, Dispatch, EventKind, Simulation, FAULT_ORIGIN};
use crate::time::{SimDuration, SimTime};

/// One scripted fault, applied at a scheduled instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Administratively takes both directions between `a` and `b` down.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Restores both directions between `a` and `b`.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Replaces the loss process on both directions between `a` and `b`.
    LossBurstStart {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The loss process in effect during the burst.
        loss: LossModel,
    },
    /// Restores the configured loss process between `a` and `b`.
    LossBurstEnd {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Adds extra propagation delay on both directions between `a` and `b`.
    LatencySpikeStart {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Delay added on top of the configured propagation delay.
        extra: SimDuration,
    },
    /// Removes the extra delay between `a` and `b`.
    LatencySpikeEnd {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Severs every link whose endpoints fall in different groups.
    Partition {
        /// Disjoint node groups; nodes absent from all groups are unaffected.
        groups: Vec<Vec<NodeId>>,
    },
    /// Heals all partition-severed links (admin-down links stay down).
    Heal,
    /// Crashes a node: its state is reset via
    /// [`Node::on_crash`](crate::Node::on_crash), pending timers are voided,
    /// and traffic addressed to it is blackholed until restart.
    CrashNode {
        /// The node to crash.
        node: NodeId,
    },
    /// Restarts a crashed node; `on_start` runs again to re-arm timers.
    RestartNode {
        /// The node to restart.
        node: NodeId,
    },
}

impl FaultAction {
    /// Stable discriminant used in traces and metrics.
    pub fn code(&self) -> u64 {
        match self {
            FaultAction::LinkDown { .. } => 1,
            FaultAction::LinkUp { .. } => 2,
            FaultAction::LossBurstStart { .. } => 3,
            FaultAction::LossBurstEnd { .. } => 4,
            FaultAction::LatencySpikeStart { .. } => 5,
            FaultAction::LatencySpikeEnd { .. } => 6,
            FaultAction::Partition { .. } => 7,
            FaultAction::Heal => 8,
            FaultAction::CrashNode { .. } => 9,
            FaultAction::RestartNode { .. } => 10,
        }
    }

    /// Metrics counter name bumped when this action executes.
    pub fn metric(&self) -> &'static str {
        match self {
            FaultAction::LinkDown { .. } => "fault.link_down",
            FaultAction::LinkUp { .. } => "fault.link_up",
            FaultAction::LossBurstStart { .. } => "fault.loss_burst_start",
            FaultAction::LossBurstEnd { .. } => "fault.loss_burst_end",
            FaultAction::LatencySpikeStart { .. } => "fault.latency_spike_start",
            FaultAction::LatencySpikeEnd { .. } => "fault.latency_spike_end",
            FaultAction::Partition { .. } => "fault.partition",
            FaultAction::Heal => "fault.heal",
            FaultAction::CrashNode { .. } => "fault.crash",
            FaultAction::RestartNode { .. } => "fault.restart",
        }
    }
}

/// One self-contained disturbance over `[from, until)`: every start carries
/// its end, so any list of windows is a well-formed fault schedule (no crash
/// without a restart, no partition without a heal).
///
/// [`Simulation::apply_fault_plan`](crate::Simulation::apply_fault_plan)
/// lowers each window to its start and end [`FaultAction`]. Windows are
/// serializable so that a schedule can be persisted as replayable JSON.
///
/// # Examples
///
/// ```
/// use metaclass_netsim::{FaultWindow, NodeId, SimTime};
///
/// let a = NodeId::from_index(0);
/// let b = NodeId::from_index(1);
/// let plan = [
///     FaultWindow::LinkFlap { a, b, from: SimTime::from_secs(1), until: SimTime::from_secs(2) },
///     FaultWindow::CrashRestart { node: b, from: SimTime::from_secs(3), until: SimTime::from_secs(4) },
/// ];
/// assert_eq!(plan[1].kind(), "crash_restart");
/// assert_eq!(plan[1].until(), SimTime::from_secs(4));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultWindow {
    /// Administrative link outage of the `a`–`b` connection.
    LinkFlap {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Loss-process override on the `a`–`b` connection.
    LossBurst {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Loss process in effect during the burst.
        loss: LossModel,
    },
    /// Extra propagation delay on the `a`–`b` connection.
    LatencySpike {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Added one-way delay.
        extra: SimDuration,
    },
    /// Network partition into the given groups, healed at `until`.
    Partition {
        /// Disjoint groups. Nodes absent from every group keep all their
        /// links, so a partition-isolation check is only sound when the
        /// groups cover every node.
        groups: Vec<Vec<NodeId>>,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Node crash at `from`, restart at `until`.
    CrashRestart {
        /// The node to crash and restart.
        node: NodeId,
        /// Crash instant.
        from: SimTime,
        /// Restart instant.
        until: SimTime,
    },
}

impl FaultWindow {
    /// Window start time.
    pub fn from(&self) -> SimTime {
        match self {
            FaultWindow::LinkFlap { from, .. }
            | FaultWindow::LossBurst { from, .. }
            | FaultWindow::LatencySpike { from, .. }
            | FaultWindow::Partition { from, .. }
            | FaultWindow::CrashRestart { from, .. } => *from,
        }
    }

    /// Window end time.
    pub fn until(&self) -> SimTime {
        match self {
            FaultWindow::LinkFlap { until, .. }
            | FaultWindow::LossBurst { until, .. }
            | FaultWindow::LatencySpike { until, .. }
            | FaultWindow::Partition { until, .. }
            | FaultWindow::CrashRestart { until, .. } => *until,
        }
    }

    /// Short kind label for logs and file names.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultWindow::LinkFlap { .. } => "link_flap",
            FaultWindow::LossBurst { .. } => "loss_burst",
            FaultWindow::LatencySpike { .. } => "latency_spike",
            FaultWindow::Partition { .. } => "partition",
            FaultWindow::CrashRestart { .. } => "crash_restart",
        }
    }

    /// A copy of this window with a new `[from, until)` span.
    pub fn with_span(&self, from: SimTime, until: SimTime) -> FaultWindow {
        let mut w = self.clone();
        match &mut w {
            FaultWindow::LinkFlap { from: f, until: u, .. }
            | FaultWindow::LossBurst { from: f, until: u, .. }
            | FaultWindow::LatencySpike { from: f, until: u, .. }
            | FaultWindow::Partition { from: f, until: u, .. }
            | FaultWindow::CrashRestart { from: f, until: u, .. } => {
                *f = from;
                *u = until;
            }
        }
        w
    }

    /// The engine actions this window executes: its start at `from`, its
    /// end at `until`.
    pub(crate) fn lower(&self) -> [(SimTime, FaultAction); 2] {
        let (start, end) = match self {
            FaultWindow::LinkFlap { a, b, .. } => {
                (FaultAction::LinkDown { a: *a, b: *b }, FaultAction::LinkUp { a: *a, b: *b })
            }
            FaultWindow::LossBurst { a, b, loss, .. } => (
                FaultAction::LossBurstStart { a: *a, b: *b, loss: *loss },
                FaultAction::LossBurstEnd { a: *a, b: *b },
            ),
            FaultWindow::LatencySpike { a, b, extra, .. } => (
                FaultAction::LatencySpikeStart { a: *a, b: *b, extra: *extra },
                FaultAction::LatencySpikeEnd { a: *a, b: *b },
            ),
            FaultWindow::Partition { groups, .. } => {
                (FaultAction::Partition { groups: groups.clone() }, FaultAction::Heal)
            }
            FaultWindow::CrashRestart { node, .. } => {
                (FaultAction::CrashNode { node: *node }, FaultAction::RestartNode { node: *node })
            }
        };
        [(self.from(), start), (self.until(), end)]
    }
}

impl<M: Clone + 'static> Simulation<M> {
    /// Installs a fault schedule, the one way to change link or node state
    /// once the topology is built. Each window lowers to its start and end
    /// [`FaultAction`], and each action becomes an engine event executed at
    /// its time: counted in metrics (`fault.injected`, a per-action counter
    /// and, for every link it takes out of service, `net.link.flaps`),
    /// folded into the [`Simulation::fingerprint`] when that is enabled, and
    /// handed to the observer as
    /// [`SimEvent::Fault`] with the post-fault view. Actions at the same
    /// instant execute in list order (a window's start before its end).
    ///
    /// # Panics
    ///
    /// Panics if [`Simulation::validate_fault_plan`] rejects the schedule.
    pub fn apply_fault_plan(&mut self, windows: &[FaultWindow]) {
        if let Err(e) = self.validate_fault_plan(windows) {
            panic!("{e}");
        }
        let mut events: Vec<_> = windows.iter().flat_map(FaultWindow::lower).collect();
        // Stable: ties keep list order.
        events.sort_by_key(|&(at, _)| at);
        for (at, action) in events {
            let index = self.fault_actions.len();
            self.fault_actions.push(action);
            let stamp = pack_stamp(0, FAULT_ORIGIN, index as u64);
            self.core.queue.push(at, stamp, EventKind::Fault { index });
        }
    }

    /// Checks a fault schedule against this simulation without installing
    /// it. Every window must end after it starts and start no earlier than
    /// the current time; a link fault needs links both ways between its two
    /// nodes, and a crashed node or partition member must exist. The error
    /// names the first offending window by its index.
    pub fn validate_fault_plan(&self, windows: &[FaultWindow]) -> Result<(), String> {
        let known = |node: &NodeId| node.index() < self.core.nodes.len();
        for (i, w) in windows.iter().enumerate() {
            let problem = if w.until() <= w.from() {
                Some("must end after it starts".to_string())
            } else if w.from() < self.core.time {
                Some("starts in the past".to_string())
            } else {
                match w {
                    FaultWindow::LinkFlap { a, b, .. }
                    | FaultWindow::LossBurst { a, b, .. }
                    | FaultWindow::LatencySpike { a, b, .. } => {
                        (self.link_between(*a, *b).is_none() || self.link_between(*b, *a).is_none())
                            .then(|| format!("no link between {a} and {b}"))
                    }
                    FaultWindow::Partition { groups, .. } => groups
                        .iter()
                        .flatten()
                        .find(|n| !known(n))
                        .map(|n| format!("unknown node {n}")),
                    FaultWindow::CrashRestart { node, .. } => {
                        (!known(node)).then(|| format!("unknown node {node}"))
                    }
                }
            };
            if let Some(problem) = problem {
                return Err(format!("fault window {i} ({}): {problem}", w.kind()));
            }
        }
        Ok(())
    }

    /// Executes the installed fault action `index` at the current instant.
    pub(crate) fn execute_fault(&mut self, index: usize) {
        let action = self.fault_actions[index].clone();
        self.core.metrics.inc("fault.injected");
        self.core.metrics.inc(action.metric());
        // The fingerprint folds the fault before its action runs, so a
        // restarted node's `on_start` sends follow it; the observer sees it
        // afterwards, with the post-fault view.
        if let Some(trace) = &mut self.core.trace {
            trace.record_fault(self.core.time, &action);
        }
        match action {
            FaultAction::LinkDown { a, b } => self.set_connection_up(a, b, false),
            FaultAction::LinkUp { a, b } => self.set_connection_up(a, b, true),
            FaultAction::LossBurstStart { a, b, loss } => {
                self.for_both_directions(a, b, |link| link.set_loss_override(Some(loss)));
            }
            FaultAction::LossBurstEnd { a, b } => {
                self.for_both_directions(a, b, |link| link.set_loss_override(None));
            }
            FaultAction::LatencySpikeStart { a, b, extra } => {
                self.for_both_directions(a, b, |link| link.set_extra_delay(extra));
            }
            FaultAction::LatencySpikeEnd { a, b } => {
                self.for_both_directions(a, b, |link| link.set_extra_delay(SimDuration::ZERO));
            }
            FaultAction::Partition { groups } => self.partition(&groups),
            FaultAction::Heal => self.heal_partition(),
            FaultAction::CrashNode { node } => self.crash_node(node),
            FaultAction::RestartNode { node } => self.restart_node(node),
        }
        self.core.emit(&SimEvent::Fault { action: &self.fault_actions[index] });
    }

    /// Brings both directions between `a` and `b` up or down.
    fn set_connection_up(&mut self, a: NodeId, b: NodeId, up: bool) {
        let mut flaps = 0;
        self.for_both_directions(a, b, |link| flaps += u64::from(link.set_up_at(up)));
        self.count_flaps(flaps);
    }

    fn for_both_directions(&mut self, a: NodeId, b: NodeId, mut apply: impl FnMut(&mut Link)) {
        let ab = self.link_between(a, b).expect("no a->b link");
        let ba = self.link_between(b, a).expect("no b->a link");
        apply(&mut self.core.links[ab.index()]);
        apply(&mut self.core.links[ba.index()]);
    }

    /// Severs every link whose endpoints fall in different `groups`. Nodes
    /// not listed in any group keep all their links.
    fn partition(&mut self, groups: &[Vec<NodeId>]) {
        let mut membership: Vec<Option<usize>> = vec![None; self.core.nodes.len()];
        for (gi, group) in groups.iter().enumerate() {
            for node in group {
                membership[node.index()] = Some(gi);
            }
        }
        let mut flaps = 0;
        for (link, &(from, to)) in self.core.links.iter_mut().zip(self.core.link_ends.iter()) {
            if let (Some(ga), Some(gb)) = (membership[from.index()], membership[to.index()]) {
                if ga != gb {
                    flaps += u64::from(link.set_partitioned_at(true));
                }
            }
        }
        self.count_flaps(flaps);
    }

    /// Heals every partition-severed link. Partition state is kept apart
    /// from admin state, so an administratively downed link stays down, and
    /// a heal never takes a link out of service.
    fn heal_partition(&mut self) {
        for link in &mut self.core.links {
            link.set_partitioned_at(false);
        }
    }

    /// Adds `flaps` links that just went out of service to `net.link.flaps`.
    fn count_flaps(&mut self, flaps: u64) {
        if flaps > 0 {
            self.core.metrics.add("net.link.flaps", flaps);
        }
    }

    /// Crashes `node`: its volatile state is reset via [`Node::on_crash`],
    /// all pending timers are voided, and traffic addressed to it is
    /// blackholed until it restarts. Idempotent.
    ///
    /// [`Node::on_crash`]: crate::Node::on_crash
    fn crash_node(&mut self, node: NodeId) {
        let idx = node.index();
        if self.core.crashed[idx] {
            return;
        }
        self.core.crashed[idx] = true;
        self.core.epochs[idx] += 1;
        self.core.metrics.inc("net.node.crashes");
        let n = self.core.nodes[idx].as_mut().expect("node is being dispatched");
        n.on_crash();
    }

    /// Restarts a crashed node: `on_start` runs again (re-arming timers) and
    /// traffic flows to it once more. No-op if the node is not crashed.
    fn restart_node(&mut self, node: NodeId) {
        let idx = node.index();
        if !self.core.crashed[idx] {
            return;
        }
        self.core.crashed[idx] = false;
        self.core.metrics.inc("net.node.restarts");
        if self.started {
            self.core.dispatch(node, Dispatch::Start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn windows_lower_to_their_start_and_end_actions() {
        let (from, until) = (SimTime::from_millis(1), SimTime::from_millis(2));
        let flap = FaultWindow::LinkFlap { a: n(0), b: n(1), from, until };
        let [(t0, start), (t1, end)] = flap.lower();
        assert_eq!((t0, t1), (from, until));
        assert_eq!(start, FaultAction::LinkDown { a: n(0), b: n(1) });
        assert_eq!(end, FaultAction::LinkUp { a: n(0), b: n(1) });
        let partition =
            FaultWindow::Partition { groups: vec![vec![n(0)], vec![n(1)]], from, until };
        let [(_, start), (_, end)] = partition.lower();
        assert!(matches!(start, FaultAction::Partition { ref groups } if groups.len() == 2));
        assert_eq!(end, FaultAction::Heal);
        let moved = flap.with_span(SimTime::from_millis(5), SimTime::from_millis(9));
        assert_eq!(
            (moved.from(), moved.until()),
            (SimTime::from_millis(5), SimTime::from_millis(9))
        );
        assert_eq!(moved.kind(), "link_flap");
    }

    #[test]
    fn codes_and_metrics_are_distinct() {
        let actions = [
            FaultAction::LinkDown { a: n(0), b: n(1) },
            FaultAction::LinkUp { a: n(0), b: n(1) },
            FaultAction::LossBurstStart { a: n(0), b: n(1), loss: LossModel::None },
            FaultAction::LossBurstEnd { a: n(0), b: n(1) },
            FaultAction::LatencySpikeStart { a: n(0), b: n(1), extra: SimDuration::ZERO },
            FaultAction::LatencySpikeEnd { a: n(0), b: n(1) },
            FaultAction::Partition { groups: vec![] },
            FaultAction::Heal,
            FaultAction::CrashNode { node: n(0) },
            FaultAction::RestartNode { node: n(0) },
        ];
        let mut codes: Vec<u64> = actions.iter().map(|a| a.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), actions.len());
        let mut metrics: Vec<&str> = actions.iter().map(|a| a.metric()).collect();
        metrics.sort_unstable();
        metrics.dedup();
        assert_eq!(metrics.len(), actions.len());
    }
}
