//! The checked scenario: a two-campus Figure-3 session and its layout.
//!
//! Simcheck explores fault schedules against the same deployment E14 uses —
//! two physical campuses (presenter at campus 0) joined over the inter-campus
//! backbone with the cloud server — but sized for throughput: one student per
//! campus at quick scale, with the tight heartbeat tuning so detection,
//! hold/freeze, and resync all fit inside a seconds-long run.

use metaclass_avatar::AvatarId;
use metaclass_core::{Activity, ClassroomSession, ScenarioSpec, SessionBuilder, SessionConfig};
use metaclass_edge::{HeartbeatConfig, OverloadConfig};
use metaclass_netsim::{
    EngineConfig, LinkClass, NodeId, PopulationProfile, Region, SimDuration, SimTime,
};

use crate::plan::PlanSpace;

/// Parameters of one checked session run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Seed of the session under check (motion, jitter, loss draws).
    pub session_seed: u64,
    /// Students per campus (campus 0 additionally hosts the presenter).
    pub students_per_campus: u32,
    /// Remote VR learners joining at class start (the steady cohort).
    pub remote_learners: u32,
    /// Remote VR learners arriving all at once at `burst_at` (the flash
    /// crowd the fuzzer composes with its fault schedules).
    pub burst_learners: u32,
    /// When the flash crowd lands (seed-derived, inside the fault horizon).
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
    /// Flyweight pooled audience joining as a flash crowd at `burst_at`
    /// (one tracer promoted to a fully simulated client). 0 — the default
    /// for both scenario sizes — disables the population layer entirely, so
    /// standard explorations are unchanged.
    pub pooled_members: u64,
    /// Execution engine the checked session runs on (per-run state, so
    /// explorations with different engines can share a process).
    pub engine: EngineConfig,
    /// Workload spec the checked session is built from instead of the
    /// classic two-campus Figure-3 deployment (`bench simcheck --scenario`).
    /// The spec supplies campuses, cohorts, mobility, and stress overlays;
    /// the scenario keeps its tight heartbeat/overload tuning, time bounds,
    /// and engine so exploration throughput is unchanged.
    pub spec: Option<ScenarioSpec>,
}

impl Scenario {
    /// Test-sized scenario: 1 student per campus, a 2+6 remote cohort with
    /// a seed-placed flash crowd, 3 s fault horizon + 3 s settle, tight
    /// heartbeats. One case runs in tens of milliseconds.
    pub fn quick(session_seed: u64) -> Self {
        Scenario {
            session_seed,
            students_per_campus: 1,
            remote_learners: 2,
            burst_learners: 6,
            // The burst lands somewhere inside the fault horizon so the
            // explorer composes it with outages in seed-varied phases.
            burst_at: SimTime::from_millis(700 + (session_seed % 5) * 300),
            horizon: SimTime::from_secs(3),
            settle: SimDuration::from_secs(3),
            probe_every: SimDuration::from_millis(100),
            warmup: SimTime::from_millis(700),
            heartbeat: HeartbeatConfig {
                interval: SimDuration::from_millis(20),
                degraded_after: SimDuration::from_millis(80),
                timeout: SimDuration::from_millis(150),
                hold: SimDuration::from_millis(200),
            },
            max_windows: 4,
            pooled_members: 0,
            engine: EngineConfig::default(),
            spec: None,
        }
    }

    /// Full-sized scenario: more students, a longer horizon, and the default
    /// (production) heartbeat tuning.
    pub fn full(session_seed: u64) -> Self {
        Scenario {
            session_seed,
            students_per_campus: 4,
            remote_learners: 4,
            burst_learners: 12,
            burst_at: SimTime::from_secs(2) + SimDuration::from_secs(session_seed % 4),
            horizon: SimTime::from_secs(8),
            settle: SimDuration::from_secs(6),
            probe_every: SimDuration::from_millis(200),
            warmup: SimTime::from_secs(2),
            heartbeat: HeartbeatConfig::default(),
            max_windows: 6,
            pooled_members: 0,
            engine: EngineConfig::default(),
            spec: None,
        }
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

    /// Builds the session and its precomputed layout.
    pub fn build(&self) -> (ClassroomSession, Topology) {
        let mut cfg = SessionConfig::default();
        cfg.server.heartbeat = self.heartbeat;
        cfg.server.overload = self.overload();
        cfg.client.heartbeat = self.heartbeat;
        cfg.client.clock_probe_interval = if self.heartbeat.interval < SimDuration::from_millis(100)
        {
            self.heartbeat.interval
        } else {
            SimDuration::from_millis(100)
        };
        // A workload spec replaces the classic deployment wholesale (its
        // campuses, cohorts, mobility, and flash-crowd/population overlays);
        // the tight tuning above still applies so detection and resync fit
        // the exploration time bounds. Spec stress faults are NOT applied
        // here — the explorer takes them from `ScenarioSpec::fault_windows`
        // and composes them with its generated schedules (so the shrinker
        // sees them).
        let mut builder = match &self.spec {
            Some(spec) => spec
                .session_builder(self.session_seed)
                .engine_config(self.engine)
                .server_config(cfg.server)
                .client_config(cfg.client),
            None => SessionBuilder::new()
                .seed(self.session_seed)
                .engine_config(self.engine)
                .activity(Activity::Lecture)
                .server_config(cfg.server)
                .client_config(cfg.client)
                .campus("CWB", Region::EastAsia, self.students_per_campus, true)
                .campus("GZ", Region::EastAsia, self.students_per_campus, false)
                .remote_cohort(Region::EastAsia, self.remote_learners, LinkClass::ResidentialAccess)
                .remote_cohort_joining(
                    Region::EastAsia,
                    self.burst_learners,
                    LinkClass::ResidentialAccess,
                    SimDuration::from_nanos(self.burst_at.as_nanos()),
                    SimDuration::ZERO,
                ),
        };
        if self.pooled_members > 0 {
            // The pool's flash crowd lands with the individual burst, so
            // fault schedules compose with aggregate admission the same way
            // they do with individual joins. One tracer keeps the fully
            // simulated path (and the AdmittedLiveness oracle) engaged.
            builder = builder.population(
                Region::EastAsia,
                self.pooled_members,
                1,
                LinkClass::ResidentialAccess,
                PopulationProfile::flash_crowd(self.burst_at, SimDuration::from_millis(300)),
            );
        }
        let session = builder.build();
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
        // Steady cohort + flash crowd, numbered from 10_000.
        assert_eq!(topo.remote_clients.len() as u32, scn.remote_learners + scn.burst_learners);
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
        scn.pooled_members = 12;
        let (session, topo) = scn.build();
        assert_eq!(topo.pool_nodes.len(), 1);
        assert_eq!(topo.pooled_members, 11, "one member is promoted to a tracer");
        assert_eq!(
            topo.remote_clients.len() as u32,
            scn.remote_learners + scn.burst_learners + 1,
            "the tracer counts as a remote client"
        );
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
        scn.spec = Some(spec.clone());
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
