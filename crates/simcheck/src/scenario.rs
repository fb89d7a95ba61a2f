//! The checked scenario: a workload spec run under tight tuning, and its
//! layout.
//!
//! Every checked session is built from a [`ScenarioSpec`]. By default that
//! spec is the deployment E14 uses, the paper's Fig. 3 unit case: two
//! physical campuses (presenter at campus 0) joined over the inter-campus
//! backbone with the cloud server, a steady remote cohort and a flash crowd.
//! It is sized for throughput (one student per campus at quick scale) and
//! run with tight heartbeat tuning so detection, hold/freeze, and resync all
//! fit inside a seconds-long run. `bench simcheck --scenario` swaps in a
//! spec from a file under the same tuning. [`Scenario::new`] is the one
//! constructor of a checked session, for the explorer and a replayed
//! regression case alike.

use metaclass_avatar::AvatarId;
use metaclass_core::{
    ClassroomSession, FlashCrowdSpec, PopulationSpec, ScenarioCampus, ScenarioCohort,
    ScenarioPattern, ScenarioSpec, SessionConfig, StressSpec,
};
use metaclass_edge::{HeartbeatConfig, OverloadConfig};
use metaclass_netsim::{
    EngineConfig, LinkClass, NodeId, PopulationTimeline, Region, SimDuration, SimTime,
};

use crate::plan::PlanSpace;

/// Parameters of one checked session run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Seed of the session under check (motion, jitter, loss draws).
    pub session_seed: u64,
    /// The workload the checked session is built from: the classic
    /// deployment [`Scenario::quick`] and [`Scenario::full`] write, or a
    /// spec loaded by `bench simcheck --scenario`. Its campuses, cohorts,
    /// mobility, and flash-crowd/population overlays are built as written;
    /// its stress faults are not applied by [`Scenario::build`] (the
    /// explorer composes them with its generated schedules).
    pub spec: ScenarioSpec,
    /// When the classic flash crowd and any pooled audience land
    /// (seed-derived, inside the fault horizon).
    pub burst_at: SimTime,
    /// Fault windows must end by this time.
    pub horizon: SimTime,
    /// Quiet tail after the horizon for convergence checks.
    pub settle: SimDuration,
    /// Probe cadence (oracle checks between run slices).
    pub probe_every: SimDuration,
    /// No fault starts before this; freshness checks also begin here.
    pub warmup: SimTime,
    /// Heartbeat failure-detector tuning.
    pub heartbeat: HeartbeatConfig,
    /// Maximum windows per generated schedule.
    pub max_windows: usize,
    /// Execution engine the checked session runs on (per-run state, so
    /// explorations with different engines can share a process).
    pub engine: EngineConfig,
}

/// Whole milliseconds of a session instant (spec fields are in ms).
fn ms(t: SimTime) -> u64 {
    t.as_nanos() / 1_000_000
}

/// The classic deployment as a spec: campuses CWB (with the presenter) and
/// GZ of `students` each, a steady cohort of `steady` remote VR learners,
/// and a flash crowd of `burst` more arriving at `burst_at`, all in East
/// Asia on residential access; the run ends at `end`.
fn classic(
    students: u32,
    steady: u32,
    burst: u32,
    burst_at: SimTime,
    end: SimTime,
) -> ScenarioSpec {
    let campus = |name: &str, presenter| ScenarioCampus {
        name: name.into(),
        region: Region::EastAsia,
        students,
        presenter,
    };
    let steady = ScenarioCohort {
        region: Region::EastAsia,
        learners: steady,
        platform: None,
        access: LinkClass::ResidentialAccess,
        joins_at_ms: None,
        stagger_ms: None,
    };
    let flash_crowd = FlashCrowdSpec {
        region: Region::EastAsia,
        learners: burst,
        access: LinkClass::ResidentialAccess,
        at_ms: ms(burst_at),
    };
    ScenarioSpec {
        name: "classic".into(),
        pattern: ScenarioPattern::Lecture,
        duration_ms: ms(end),
        full_duration_ms: None,
        cloud_region: Region::EastAsia,
        campuses: vec![campus("CWB", true), campus("GZ", false)],
        cohorts: vec![steady],
        mobility: None,
        stress: Some(StressSpec { flash_crowd: Some(flash_crowd), population: None, faults: None }),
    }
}

impl Scenario {
    /// The checked session of one workload: [`Scenario::quick`] or
    /// [`Scenario::full`] at `session_seed`, with `spec` (when given) in
    /// place of the classic spec and a pooled audience of `pooled` members
    /// ([`Scenario::add_pool`]). The explorer builds every case with it and
    /// a [`RegressionCase`](crate::RegressionCase) replays through it, so a
    /// saved case rebuilds the session it was found on.
    ///
    /// # Errors
    ///
    /// A pool over [`PopulationTimeline::MAX_MEMBERS`], a spec without
    /// campuses (nothing to fault between edge and cloud), or a pool on a
    /// spec that declares its own `stress.population`.
    pub fn new(
        quick: bool,
        session_seed: u64,
        spec: Option<ScenarioSpec>,
        pooled: u64,
    ) -> Result<Scenario, String> {
        let max = PopulationTimeline::MAX_MEMBERS;
        if pooled > max {
            return Err(format!("pooled: {pooled} exceeds the {max}-member cap"));
        }
        let mut scn = if quick { Self::quick(session_seed) } else { Self::full(session_seed) };
        if let Some(spec) = spec {
            if spec.campuses.is_empty() {
                return Err(format!(
                    "scenario: `{}` has no campuses; simcheck needs at least one edge–cloud \
                     link to fault",
                    spec.name
                ));
            }
            if pooled > 0 && spec.stress.as_ref().is_some_and(|s| s.population.is_some()) {
                return Err(format!(
                    "pooled: `{}` declares its own stress.population; a session has one",
                    spec.name
                ));
            }
            scn.spec = spec;
        }
        scn.add_pool(pooled);
        Ok(scn)
    }

    /// Test-sized scenario: 1 student per campus, a 2+6 remote cohort with
    /// a seed-placed flash crowd, 3 s fault horizon + 3 s settle, tight
    /// heartbeats. One case runs in tens of milliseconds.
    pub fn quick(session_seed: u64) -> Self {
        // The burst lands somewhere inside the fault horizon so the
        // explorer composes it with outages in seed-varied phases.
        let burst_at = SimTime::from_millis(700 + (session_seed % 5) * 300);
        let (horizon, settle) = (SimTime::from_secs(3), SimDuration::from_secs(3));
        Scenario {
            session_seed,
            spec: classic(1, 2, 6, burst_at, horizon + settle),
            burst_at,
            horizon,
            settle,
            probe_every: SimDuration::from_millis(100),
            warmup: SimTime::from_millis(700),
            heartbeat: HeartbeatConfig {
                interval: SimDuration::from_millis(20),
                degraded_after: SimDuration::from_millis(80),
                timeout: SimDuration::from_millis(150),
                hold: SimDuration::from_millis(200),
            },
            max_windows: 4,
            engine: EngineConfig::default(),
        }
    }

    /// Full-sized scenario: 4 students per campus, a 4+12 remote cohort, a
    /// longer horizon, and the default (production) heartbeat tuning.
    pub fn full(session_seed: u64) -> Self {
        let burst_at = SimTime::from_secs(2) + SimDuration::from_secs(session_seed % 4);
        let (horizon, settle) = (SimTime::from_secs(8), SimDuration::from_secs(6));
        Scenario {
            session_seed,
            spec: classic(4, 4, 12, burst_at, horizon + settle),
            burst_at,
            horizon,
            settle,
            probe_every: SimDuration::from_millis(200),
            warmup: SimTime::from_secs(2),
            heartbeat: HeartbeatConfig::default(),
            max_windows: 6,
            engine: EngineConfig::default(),
        }
    }

    /// Lands a flyweight pooled audience of `members` with the burst, as
    /// the spec's `stress.population` (0 adds none): East Asia, residential
    /// access, arrivals spread over 300 ms around `burst_at`, so fault
    /// schedules compose with aggregate admission the way they do with
    /// individual joins. One tracer keeps the fully simulated path (and the
    /// AdmittedLiveness oracle) engaged. Replaces any population the spec
    /// declared.
    pub fn add_pool(&mut self, members: u64) {
        if members == 0 {
            return;
        }
        let population = PopulationSpec {
            region: Region::EastAsia,
            members,
            tracers: 1,
            access: LinkClass::ResidentialAccess,
            at_ms: ms(self.burst_at),
            spread_ms: 300,
        };
        let stress = self.spec.stress.get_or_insert(StressSpec {
            flash_crowd: None,
            population: None,
            faults: None,
        });
        stress.population = Some(population);
    }

    /// The overload tuning the checked session runs under: tight enough
    /// that the flash crowd actually engages admission control and the
    /// shedding ladder, generous enough that every client is admitted well
    /// before the settle window closes.
    pub fn overload(&self) -> OverloadConfig {
        let mut cfg = OverloadConfig::default();
        cfg.admission.burst = 4;
        cfg.admission.refill_every = SimDuration::from_millis(25);
        cfg.admission.waiting_room = 16;
        cfg.egress_budget_per_tick = 48;
        cfg.backlog_capacity = 16;
        cfg
    }

    /// Builds the session and its precomputed layout: the spec expanded at
    /// the session seed on the scenario's engine, under the tight server
    /// and client tuning. The spec's stress faults are not applied here; the
    /// explorer takes them from [`ScenarioSpec::fault_windows`] and composes
    /// them with its generated schedules, so the shrinker sees them.
    pub fn build(&self) -> (ClassroomSession, Topology) {
        let mut cfg = SessionConfig::default();
        cfg.server.heartbeat = self.heartbeat;
        cfg.server.overload = self.overload();
        cfg.client.heartbeat = self.heartbeat;
        cfg.client.clock_probe_interval =
            self.heartbeat.interval.min(SimDuration::from_millis(100));
        let session = self
            .spec
            .session_builder(self.session_seed)
            .engine_config(self.engine)
            .server_config(cfg.server)
            .client_config(cfg.client)
            .build();
        let topology = Topology::of(&session);
        (session, topology)
    }

    /// The schedule space over this scenario's topology: backbone and
    /// edge–cloud connections can fault, all servers can crash, and the two
    /// campus-vs-campus splits (cloud on either side) partition the network.
    pub fn plan_space(&self, topo: &Topology) -> PlanSpace {
        PlanSpace {
            pairs: topo.server_pairs(),
            crashable: topo.servers(),
            splits: topo.splits.clone(),
            earliest: self.warmup,
            horizon: self.horizon,
        }
    }

    /// End of the run (horizon + settle).
    pub fn end(&self) -> SimTime {
        self.horizon + self.settle
    }

    /// How far a fault window's effects may outlast it: failure detection
    /// (timeout), display hold, and full-snapshot resync slack. Freshness
    /// oracles only check outside windows inflated by this margin.
    pub fn margin(&self) -> SimDuration {
        self.heartbeat.timeout + self.heartbeat.hold + SimDuration::from_millis(1500)
    }

    /// Maximum staleness a remote avatar may show in quiet periods: the
    /// dead-reckoning refresh ceiling plus transport and probe slack.
    pub fn staleness_bound(&self) -> SimDuration {
        let dr = metaclass_sync::DeadReckoningConfig::default().max_interval;
        dr + SimDuration::from_millis(400)
    }
}

/// Node and avatar layout of the built session, precomputed for oracles.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The cloud server.
    pub cloud: NodeId,
    /// Edge servers, in campus order.
    pub edges: Vec<NodeId>,
    /// All nodes of each campus: edge, room array, headsets.
    pub campus_nodes: Vec<Vec<NodeId>>,
    /// Avatars physically present at each campus.
    pub campus_avatars: Vec<Vec<AvatarId>>,
    /// Remote VR clients (steady cohort, flash crowd, and pool tracers
    /// alike), in avatar order. They attach to the cloud, so partition
    /// splits keep them on the cloud's side.
    pub remote_clients: Vec<(AvatarId, NodeId)>,
    /// Flyweight pool nodes (empty unless the scenario enables a pooled
    /// audience). Cloud-attached, like the remote clients.
    pub pool_nodes: Vec<NodeId>,
    /// Members modeled in aggregate by those pools (tracers excluded).
    pub pooled_members: u64,
    /// Full-coverage partition splits, one per campus
    /// ([`ClassroomSession::campus_partition`]), campuses isolated in
    /// descending order; empty with fewer than two campuses. For the classic
    /// two-campus deployment this is the historical campus-0-with-cloud /
    /// campus-1-with-cloud pair, byte for byte.
    pub splits: Vec<Vec<Vec<NodeId>>>,
}

impl Topology {
    /// Computes the layout from a built session.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the campus groups plus the cloud do not cover every
    /// node — the coverage property the partition oracle relies on.
    pub fn of(session: &ClassroomSession) -> Topology {
        let cloud = session.cloud();
        let edges = session.edges().to_vec();
        let campus_nodes: Vec<Vec<NodeId>> =
            (0..edges.len()).map(|k| session.campus_nodes(k).to_vec()).collect();
        let mut campus_avatars: Vec<Vec<AvatarId>> = vec![Vec::new(); edges.len()];
        for p in session.participants() {
            match p.role {
                metaclass_core::Role::Student { campus }
                | metaclass_core::Role::Presenter { campus } => {
                    campus_avatars[campus].push(p.avatar)
                }
                metaclass_core::Role::RemoteLearner { .. } => {}
            }
        }
        let remote_clients: Vec<(AvatarId, NodeId)> = session
            .participants()
            .iter()
            .filter(|p| matches!(p.role, metaclass_core::Role::RemoteLearner { .. }))
            .map(|p| (p.avatar, p.node))
            .collect();
        let pool_nodes: Vec<NodeId> = session.pools().iter().map(|p| p.node).collect();
        let pooled_members = session.pooled_population();
        let covered: usize = 1
            + campus_nodes.iter().map(Vec::len).sum::<usize>()
            + remote_clients.len()
            + pool_nodes.len();
        debug_assert_eq!(
            covered,
            session.sim().node_count(),
            "campus groups + cloud + remote clients + pools must cover every node"
        );
        let splits = if edges.len() < 2 {
            Vec::new()
        } else {
            (0..edges.len()).rev().map(|k| session.campus_partition(k)).collect()
        };
        Topology {
            cloud,
            edges,
            campus_nodes,
            campus_avatars,
            remote_clients,
            pool_nodes,
            pooled_members,
            splits,
        }
    }

    /// All server nodes: every edge, then the cloud.
    pub fn servers(&self) -> Vec<NodeId> {
        let mut s = self.edges.clone();
        s.push(self.cloud);
        s
    }

    /// Faultable server-to-server connections: edge–edge and edge–cloud.
    pub fn server_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs = Vec::new();
        for (i, &a) in self.edges.iter().enumerate() {
            for &b in &self.edges[i + 1..] {
                pairs.push((a, b));
            }
            pairs.push((a, self.cloud));
        }
        pairs
    }

    /// Avatars hosted on any campus other than `campus` (what that campus's
    /// edge replicates remotely).
    pub fn remote_avatars_for(&self, campus: usize) -> Vec<AvatarId> {
        self.campus_avatars
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != campus)
            .flat_map(|(_, avs)| avs.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaclass_netsim::FaultWindow;

    #[test]
    fn topology_covers_every_node_and_numbers_avatars_by_campus() {
        // Both classic deployments, pooled or not, are specs the loader
        // would accept.
        for mut scn in [Scenario::quick(42), Scenario::full(42)] {
            scn.spec.validate().unwrap_or_else(|e| panic!("classic spec: {e}"));
            scn.add_pool(PopulationTimeline::MAX_MEMBERS);
            scn.spec.validate().unwrap_or_else(|e| panic!("pooled classic spec: {e}"));
        }
        let scn = Scenario::quick(42);
        let (session, topo) = scn.build();
        assert_eq!(topo.edges.len(), 2);
        let covered: usize =
            1 + topo.campus_nodes.iter().map(Vec::len).sum::<usize>() + topo.remote_clients.len();
        assert_eq!(covered, session.sim().node_count());
        // Campus 0: student 0 + presenter 1; campus 1: student 1000.
        assert_eq!(topo.campus_avatars[0], vec![AvatarId(0), AvatarId(1)]);
        assert_eq!(topo.campus_avatars[1], vec![AvatarId(1000)]);
        assert_eq!(topo.remote_avatars_for(1), vec![AvatarId(0), AvatarId(1)]);
        // Steady cohort (2) + flash crowd (6), numbered from 10_000.
        assert_eq!(topo.remote_clients.len(), 8);
        assert_eq!(topo.remote_clients[0].0, AvatarId(10_000));
    }

    #[test]
    fn burst_phase_is_seed_varied_but_inside_the_fault_horizon() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..10 {
            let scn = Scenario::quick(seed);
            assert!(scn.burst_at >= scn.warmup);
            assert!(scn.burst_at < scn.horizon);
            seen.insert(scn.burst_at.as_nanos());
        }
        assert!(seen.len() > 1, "burst phase must vary with the seed");
    }

    #[test]
    fn pooled_scenario_covers_pool_nodes_and_keeps_splits_full() {
        let mut scn = Scenario::quick(4);
        scn.add_pool(12);
        let (session, topo) = scn.build();
        assert_eq!(topo.pool_nodes.len(), 1);
        assert_eq!(topo.pooled_members, 11, "one member is promoted to a tracer");
        assert_eq!(topo.remote_clients.len(), 2 + 6 + 1, "the tracer counts as a remote client");
        let n = session.sim().node_count();
        for split in &topo.splits {
            assert_eq!(split.iter().map(Vec::len).sum::<usize>(), n, "split must cover every node");
        }
    }

    const THREE_CAMPUS: &str = r#"
name = "tri"
pattern = "Lab"
duration_ms = 2000
cloud_region = "EastAsia"

[[campuses]]
name = "CWB"
region = "EastAsia"
students = 1
presenter = true

[[campuses]]
name = "GZ"
region = "EastAsia"
students = 1
presenter = false

[[campuses]]
name = "MEL"
region = "Oceania"
students = 1
presenter = false

[[cohorts]]
region = "Europe"
learners = 2
access = "ResidentialAccess"

[[stress.faults]]
kind = "LossBurst"
campus = 1
at_ms = 1000
for_ms = 400

[[stress.faults]]
kind = "Partition"
campus = 2
at_ms = 1200
for_ms = 300
"#;

    #[test]
    fn spec_driven_scenario_generalizes_topology_and_splits() {
        let spec = ScenarioSpec::from_toml_str(THREE_CAMPUS).unwrap();
        let mut scn = Scenario::quick(5);
        scn.spec = spec.clone();
        let (session, topo) = scn.build();
        assert_eq!(topo.edges.len(), 3);
        let n = session.sim().node_count();
        assert_eq!(topo.splits.len(), 3, "one isolating split per campus");
        for split in &topo.splits {
            assert_eq!(split.iter().map(Vec::len).sum::<usize>(), n, "split must cover all nodes");
        }
        assert_eq!(topo.server_pairs().len(), 6, "3 edge-edge + 3 edge-cloud");
        // The spec's scripted partition of campus 2 is the explorer's own
        // campus-2 split: one lowering, one set of groups.
        let fixed = spec.fault_windows(&session);
        assert_eq!(fixed.len(), 2);
        let FaultWindow::Partition { groups, .. } = &fixed[1] else {
            panic!("expected a partition window");
        };
        assert_eq!(groups, &topo.splits[0]);
    }

    #[test]
    fn splits_are_full_coverage_and_pairs_link_all_servers() {
        let scn = Scenario::quick(1);
        let (session, topo) = scn.build();
        let n = session.sim().node_count();
        for split in &topo.splits {
            let covered: usize = split.iter().map(Vec::len).sum();
            assert_eq!(covered, n, "split must cover every node");
        }
        // Cloud 0; campus 0 is nodes 1-4, campus 1 nodes 5-7; remote
        // clients 8-15. Campus 1 is isolated first, and the group holding
        // campus 0 is always listed first.
        let ids = |r: &[usize]| r.iter().copied().map(NodeId::from_index).collect::<Vec<_>>();
        let remote: Vec<usize> = (8..16).collect();
        let campus0_side = [&[1, 2, 3, 4, 0][..], &remote].concat();
        let campus1_side = [&[5, 6, 7, 0][..], &remote].concat();
        assert_eq!(topo.splits[0], vec![ids(&campus0_side), ids(&[5, 6, 7])]);
        assert_eq!(topo.splits[1], vec![ids(&[1, 2, 3, 4]), ids(&campus1_side)]);
        assert_eq!(topo.server_pairs().len(), 3, "edge-edge, edge0-cloud, edge1-cloud");
    }
}
