//! The invariant-oracle library.
//!
//! Engine-boundary oracles (clock monotonicity, packet conservation,
//! partition isolation, crashed-node silence) check every observable event;
//! probe-boundary oracles (avatar staleness, resync convergence) inspect the
//! session between run slices. [`standard_oracles`] assembles the default
//! set the explorer and the `bench simcheck` CLI run.

use metaclass_edge::{
    ClientPoolNode, CloudServerNode, EdgeServerNode, LoadShedder, PeerState,
    RemoteAvatarPresentation, RemoteClientNode, ShedTransition,
};
use metaclass_netsim::{FaultAction, NodeId, SimEvent, SimTime, SimView};

use crate::oracle::{Oracle, Probe};
use crate::scenario::Scenario;

/// Simulated time never decreases, and nothing is delivered before it was
/// sent.
#[derive(Debug, Default)]
pub struct ClockMonotonicity {
    last: SimTime,
}

impl Oracle for ClockMonotonicity {
    fn name(&self) -> &'static str {
        "clock-monotonicity"
    }

    fn on_sim_event(&mut self, view: &SimView<'_>, event: &SimEvent<'_>) -> Result<(), String> {
        let now = view.time();
        if now < self.last {
            return Err(format!(
                "time went backwards: {} ns after {} ns",
                now.as_nanos(),
                self.last.as_nanos()
            ));
        }
        self.last = now;
        if let SimEvent::Delivered { sent_at, src, dst, .. } = event {
            if *sent_at > now {
                return Err(format!(
                    "{src} -> {dst} delivered at {} ns before its send at {} ns",
                    now.as_nanos(),
                    sent_at.as_nanos()
                ));
            }
        }
        Ok(())
    }
}

/// Every message is accounted for: deliveries plus drops never exceed sends
/// plus injections (in-flight count stays non-negative at every instant).
#[derive(Debug, Default)]
pub struct PacketConservation {
    sent: u64,
    injected: u64,
    delivered: u64,
    dropped: u64,
    no_route: u64,
}

impl Oracle for PacketConservation {
    fn name(&self) -> &'static str {
        "packet-conservation"
    }

    fn on_sim_event(&mut self, _view: &SimView<'_>, event: &SimEvent<'_>) -> Result<(), String> {
        match event {
            SimEvent::Sent { .. } => self.sent += 1,
            SimEvent::Injected { .. } => self.injected += 1,
            SimEvent::Delivered { .. } => self.delivered += 1,
            SimEvent::Dropped { .. } => self.dropped += 1,
            SimEvent::NoRoute { .. } => self.no_route += 1,
            _ => return Ok(()),
        }
        let terminated = self.delivered + self.dropped + self.no_route;
        let originated = self.sent + self.injected;
        if terminated > originated {
            return Err(format!(
                "{terminated} messages terminated but only {originated} originated \
                 (delivered {}, dropped {}, no-route {})",
                self.delivered, self.dropped, self.no_route
            ));
        }
        Ok(())
    }
}

/// No message crosses an active full-coverage partition: anything sent
/// strictly after a partition severed the sender's group from the receiver's
/// must not be delivered until a heal.
///
/// Mirrors engine semantics exactly: a `Heal` clears *all* active partitions
/// (the engine heals every partition-severed link). A partition whose groups
/// do not cover every node is itself a violation: with uncovered nodes a
/// relay path could legitimately survive, so the check could only pass
/// vacuously.
#[derive(Debug, Default)]
pub struct PartitionIsolation {
    /// Active partitions as (start time, group list).
    active: Vec<(SimTime, Vec<Vec<NodeId>>)>,
}

fn group_of(groups: &[Vec<NodeId>], node: NodeId) -> Option<usize> {
    groups.iter().position(|g| g.contains(&node))
}

impl Oracle for PartitionIsolation {
    fn name(&self) -> &'static str {
        "partition-isolation"
    }

    fn on_sim_event(&mut self, view: &SimView<'_>, event: &SimEvent<'_>) -> Result<(), String> {
        match event {
            SimEvent::Fault { action } => {
                match action {
                    FaultAction::Partition { groups } => {
                        let covered: usize = groups.iter().map(Vec::len).sum();
                        if covered != view.node_count() {
                            return Err(format!(
                                "partition groups cover {covered} of {} nodes; isolation \
                                 cannot be checked",
                                view.node_count()
                            ));
                        }
                        self.active.push((view.time(), groups.clone()));
                    }
                    FaultAction::Heal => self.active.clear(),
                    _ => {}
                }
                Ok(())
            }
            SimEvent::Delivered { src, dst, sent_at, .. } => {
                for (since, groups) in &self.active {
                    let (ga, gb) = (group_of(groups, *src), group_of(groups, *dst));
                    if let (Some(ga), Some(gb)) = (ga, gb) {
                        if ga != gb && *sent_at > *since {
                            return Err(format!(
                                "{src} -> {dst} delivered across a partition active since \
                                 {} ns (sent at {} ns)",
                                since.as_nanos(),
                                sent_at.as_nanos()
                            ));
                        }
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// Crashed nodes are silent: they receive no deliveries and fire no timers
/// until restarted.
#[derive(Debug, Default)]
pub struct CrashedSilence;

impl Oracle for CrashedSilence {
    fn name(&self) -> &'static str {
        "crashed-silence"
    }

    fn on_sim_event(&mut self, view: &SimView<'_>, event: &SimEvent<'_>) -> Result<(), String> {
        match event {
            SimEvent::Delivered { src, dst, .. } if view.is_crashed(*dst) => {
                Err(format!("{src} -> {dst} delivered to a crashed node"))
            }
            SimEvent::TimerFired { node, tag } if view.is_crashed(*node) => {
                Err(format!("timer tag {tag} fired on crashed node {node}"))
            }
            _ => Ok(()),
        }
    }
}

/// In quiet periods every remote avatar is presented live and within the
/// dead-reckoning freshness bound — degradation (hold/freeze) is only
/// acceptable while a fault's disturbance region is open.
#[derive(Debug)]
pub struct StalenessBound {
    bound: metaclass_netsim::SimDuration,
    warmup: SimTime,
}

impl StalenessBound {
    /// Creates the oracle with the scenario's bound and warmup.
    pub fn new(scn: &Scenario) -> Self {
        StalenessBound { bound: scn.staleness_bound(), warmup: scn.warmup }
    }

    fn check_edges(&self, probe: &Probe<'_>, context: &str) -> Result<(), String> {
        for (k, &edge_id) in probe.topology.edges.iter().enumerate() {
            let edge = probe
                .session
                .sim()
                .node_as::<EdgeServerNode>(edge_id)
                .ok_or_else(|| format!("node {edge_id} is not an edge server"))?;
            for avatar in probe.topology.remote_avatars_for(k) {
                let presentation = edge.presentation_of(avatar, probe.now);
                if presentation != RemoteAvatarPresentation::Live {
                    return Err(format!(
                        "{context}: edge {edge_id} presents avatar {avatar:?} as \
                         {presentation:?} in a quiet period"
                    ));
                }
                match edge.remote_captured_at(avatar) {
                    None => {
                        return Err(format!(
                            "{context}: edge {edge_id} has no state for avatar {avatar:?}"
                        ))
                    }
                    Some(t) => {
                        let staleness = probe.now.duration_since(t);
                        if staleness > self.bound {
                            return Err(format!(
                                "{context}: avatar {avatar:?} on edge {edge_id} is \
                                 {} ms stale (bound {} ms)",
                                staleness.as_nanos() / 1_000_000,
                                self.bound.as_nanos() / 1_000_000
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl Oracle for StalenessBound {
    fn name(&self) -> &'static str {
        "staleness-bound"
    }

    fn on_probe(&mut self, probe: &Probe<'_>) -> Result<(), String> {
        if !probe.quiet || probe.now < self.warmup {
            return Ok(());
        }
        self.check_edges(probe, "probe")
    }
}

/// After the last fault heals and the settle window elapses, the session has
/// fully converged: every server sees its peers up, and every remote avatar
/// is live and fresh again (post-heal resync worked).
#[derive(Debug)]
pub struct ResyncConvergence {
    staleness: StalenessBound,
}

impl ResyncConvergence {
    /// Creates the oracle for the scenario.
    pub fn new(scn: &Scenario) -> Self {
        ResyncConvergence { staleness: StalenessBound::new(scn) }
    }
}

impl Oracle for ResyncConvergence {
    fn name(&self) -> &'static str {
        "resync-convergence"
    }

    fn on_end(&mut self, probe: &Probe<'_>) -> Result<(), String> {
        let servers = probe.topology.servers();
        for &edge_id in &probe.topology.edges {
            let edge = probe
                .session
                .sim()
                .node_as::<EdgeServerNode>(edge_id)
                .ok_or_else(|| format!("node {edge_id} is not an edge server"))?;
            for &peer in servers.iter().filter(|&&p| p != edge_id) {
                let health = edge
                    .peer_health(peer)
                    .ok_or_else(|| format!("edge {edge_id} tracks no health for {peer}"))?;
                if health.state() != PeerState::Up {
                    return Err(format!(
                        "end: edge {edge_id} still sees peer {peer} as {:?}",
                        health.state()
                    ));
                }
            }
        }
        self.staleness.check_edges(probe, "end")
    }
}

/// No bounded queue ever exceeds its capacity: the whole point of the
/// backpressure design is that overload shows up as *counted drops and
/// deferrals*, never as unbounded memory. Checked at every probe against
/// the high-water marks, so a transient overshoot between probes is still
/// caught.
#[derive(Debug, Default)]
pub struct QueueBounds;

impl QueueBounds {
    fn check(probe: &Probe<'_>) -> Result<(), String> {
        let mut audit: Vec<(String, usize, usize)> = Vec::new();
        let cloud = probe
            .session
            .sim()
            .node_as::<CloudServerNode>(probe.topology.cloud)
            .ok_or("cloud node is not a CloudServerNode")?;
        audit.extend(cloud.overload_queues());
        for &edge_id in &probe.topology.edges {
            let edge = probe
                .session
                .sim()
                .node_as::<EdgeServerNode>(edge_id)
                .ok_or_else(|| format!("node {edge_id} is not an edge server"))?;
            audit.extend(edge.overload_queues());
        }
        for (name, max_depth, capacity) in audit {
            if max_depth > capacity {
                return Err(format!("queue {name} reached depth {max_depth}, capacity {capacity}"));
            }
        }
        Ok(())
    }
}

impl Oracle for QueueBounds {
    fn name(&self) -> &'static str {
        "queue-bounds"
    }

    fn on_probe(&mut self, probe: &Probe<'_>) -> Result<(), String> {
        QueueBounds::check(probe)
    }

    fn on_end(&mut self, probe: &Probe<'_>) -> Result<(), String> {
        QueueBounds::check(probe)
    }
}

/// No admitted client starves: by the end of the settle window every remote
/// client — steady cohort and flash crowd alike, across any composition of
/// deferrals, rejections, and server crash/restarts — is admitted at the
/// cloud and has received fan-out. A client wedged in join retry or
/// admitted-but-never-served is exactly the overload failure mode this
/// catches.
#[derive(Debug, Default)]
pub struct AdmittedLiveness;

impl Oracle for AdmittedLiveness {
    fn name(&self) -> &'static str {
        "admitted-liveness"
    }

    fn on_end(&mut self, probe: &Probe<'_>) -> Result<(), String> {
        let cloud = probe
            .session
            .sim()
            .node_as::<CloudServerNode>(probe.topology.cloud)
            .ok_or("cloud node is not a CloudServerNode")?;
        let expected = probe.topology.remote_clients.len();
        let admitted = cloud.admission().admitted_count();
        if admitted != expected {
            return Err(format!("end: cloud admitted {admitted} of {expected} remote clients"));
        }
        for &(avatar, node) in &probe.topology.remote_clients {
            let client = probe
                .session
                .sim()
                .node_as::<RemoteClientNode>(node)
                .ok_or_else(|| format!("node {node} is not a remote client"))?;
            if !client.is_admitted() {
                return Err(format!("end: client {avatar:?} never completed its join"));
            }
            if client.updates_received() == 0 {
                return Err(format!("end: client {avatar:?} was admitted but received no fan-out"));
            }
        }
        // The pooled audience converges too: by the end of the settle
        // window the cloud and every pool agree on the exact admitted
        // population, and no pool is starved of fan-out.
        if probe.topology.pooled_members > 0 {
            let pooled = cloud.pooled_active();
            if pooled != probe.topology.pooled_members {
                return Err(format!(
                    "end: cloud carries {pooled} pooled members of {}",
                    probe.topology.pooled_members
                ));
            }
            let mut active = 0u64;
            for &node in &probe.topology.pool_nodes {
                let pool = probe
                    .session
                    .sim()
                    .node_as::<ClientPoolNode>(node)
                    .ok_or_else(|| format!("node {node} is not a client pool"))?;
                active += pool.active();
                if pool.updates_received() == 0 {
                    return Err(format!("end: pool {node} was admitted but received no fan-out"));
                }
            }
            if active != probe.topology.pooled_members {
                return Err(format!(
                    "end: pools carry {active} active members of {}",
                    probe.topology.pooled_members
                ));
            }
        }
        Ok(())
    }
}

/// The fidelity ladder moves with discipline: every recorded transition is
/// exactly one rung, and two consecutive transitions are at least one
/// hysteresis window apart — except across a crash/restart, which resets
/// the shedder's clock.
#[derive(Debug, Default)]
pub struct ShedLadderDiscipline {
    /// Times of executed node crashes (a restart resets shedder state, so
    /// gap checks don't span them).
    crashes: Vec<SimTime>,
}

impl ShedLadderDiscipline {
    fn check_transitions(&self, owner: &str, transitions: &[ShedTransition]) -> Result<(), String> {
        for t in transitions {
            let diff = i16::from(t.to.rung()) - i16::from(t.from.rung());
            if diff.abs() != 1 {
                return Err(format!(
                    "{owner}: ladder jumped {:?} -> {:?} in one transition",
                    t.from, t.to
                ));
            }
        }
        for pair in transitions.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let crossed_crash = self.crashes.iter().any(|&c| c > a.at && c <= b.at);
            if crossed_crash {
                continue;
            }
            let gap = b.at.duration_since(a.at);
            if gap < LoadShedder::HYSTERESIS {
                return Err(format!(
                    "{owner}: ladder moved twice within one hysteresis window \
                     ({} ms apart, window {} ms)",
                    gap.as_nanos() / 1_000_000,
                    LoadShedder::HYSTERESIS.as_nanos() / 1_000_000
                ));
            }
        }
        Ok(())
    }
}

impl Oracle for ShedLadderDiscipline {
    fn name(&self) -> &'static str {
        "shed-ladder-discipline"
    }

    fn on_sim_event(&mut self, view: &SimView<'_>, event: &SimEvent<'_>) -> Result<(), String> {
        if let SimEvent::Fault { action: FaultAction::CrashNode { .. } } = event {
            self.crashes.push(view.time());
        }
        Ok(())
    }

    fn on_end(&mut self, probe: &Probe<'_>) -> Result<(), String> {
        let cloud = probe
            .session
            .sim()
            .node_as::<CloudServerNode>(probe.topology.cloud)
            .ok_or("cloud node is not a CloudServerNode")?;
        let cloud_transitions: Vec<ShedTransition> =
            cloud.shedder().transitions().copied().collect();
        self.check_transitions("cloud", &cloud_transitions)?;
        for &edge_id in &probe.topology.edges {
            let edge = probe
                .session
                .sim()
                .node_as::<EdgeServerNode>(edge_id)
                .ok_or_else(|| format!("node {edge_id} is not an edge server"))?;
            let transitions: Vec<ShedTransition> = edge.shedder().transitions().copied().collect();
            self.check_transitions(&format!("edge {edge_id}"), &transitions)?;
        }
        Ok(())
    }
}

/// Test instrument: trips on any executed fault action with the given code
/// (see [`FaultAction::code`]). Used to prove the explorer catches a broken
/// invariant and shrinks its schedule to a minimal plan.
#[derive(Debug)]
pub struct CanaryOracle {
    /// The fault code that triggers the canary.
    pub trip_code: u64,
}

impl Oracle for CanaryOracle {
    fn name(&self) -> &'static str {
        "canary"
    }

    fn on_sim_event(&mut self, _view: &SimView<'_>, event: &SimEvent<'_>) -> Result<(), String> {
        if let SimEvent::Fault { action } = event {
            if action.code() == self.trip_code {
                return Err(format!("canary tripped on fault code {}", self.trip_code));
            }
        }
        Ok(())
    }
}

/// The default oracle set: every invariant the blueprint's consistency claim
/// rests on.
pub fn standard_oracles(scn: &Scenario) -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(ClockMonotonicity::default()),
        Box::new(PacketConservation::default()),
        Box::new(PartitionIsolation::default()),
        Box::new(CrashedSilence),
        Box::new(StalenessBound::new(scn)),
        Box::new(ResyncConvergence::new(scn)),
        Box::new(QueueBounds),
        Box::new(AdmittedLiveness),
        Box::new(ShedLadderDiscipline::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::run_plan;
    use crate::scenario::Scenario;
    use metaclass_netsim::{FaultWindow, SimTime};

    /// A partition that leaves nodes out of every group cannot be checked
    /// for isolation, so it is a violation rather than a silent pass.
    #[test]
    fn partition_isolation_rejects_partial_coverage() {
        let scn = Scenario::quick(23);
        let ids = |r: std::ops::RangeInclusive<usize>| r.map(NodeId::from_index).collect();
        // Campus 0 + cloud against campus 1; remote clients 8-15 left out.
        let partial = FaultWindow::Partition {
            groups: vec![ids(0..=4), ids(5..=7)],
            from: SimTime::from_millis(1000),
            until: SimTime::from_millis(1600),
        };
        let out = run_plan(&scn, &[partial], standard_oracles(&scn));
        let violation = out.violation.expect("partial coverage must not pass");
        assert_eq!(violation.oracle, "partition-isolation");
        assert!(violation.detail.contains("cover 8 of 16 nodes"), "{}", violation.detail);
    }

    /// The overload oracles must not be vacuous: the quick scenario's flash
    /// crowd really does engage admission control (deferrals happen), and
    /// still every client ends up admitted and served.
    #[test]
    fn quick_flash_crowd_engages_admission_and_everyone_is_served() {
        let scn = Scenario::quick(3);
        let (mut session, topo) = scn.build();
        session.run_for(scn.end().duration_since(SimTime::ZERO));
        let cloud =
            session.sim().node_as::<CloudServerNode>(topo.cloud).expect("cloud server node");
        let (_admitted, deferred, _rejected) = cloud.admission().totals();
        assert!(deferred > 0, "the flash crowd never pressured the admission gate");
        assert_eq!(cloud.admission().admitted_count(), topo.remote_clients.len());
        for &(avatar, node) in &topo.remote_clients {
            let client =
                session.sim().node_as::<RemoteClientNode>(node).expect("remote client node");
            assert!(client.is_admitted(), "client {avatar:?} not admitted");
            assert!(client.updates_received() > 0, "client {avatar:?} starved");
        }
    }
}
