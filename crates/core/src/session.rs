//! Assembling and running a blended-classroom session.
//!
//! [`SessionBuilder`] constructs the full Figure-3 deployment — any number of
//! physical campuses, the cloud VR classroom, and remote learner cohorts
//! around the world — wires it over calibrated links, and returns a runnable
//! [`ClassroomSession`].

use std::collections::BTreeMap;

use metaclass_avatar::{AvatarId, Vec3};
use metaclass_edge::{
    pool_avatar, ClassMsg, ClassroomLayout, ClientConfig, ClientPoolNode, CloudServerNode,
    DevicePlatform, EdgeServerNode, FanoutConfig, HeadsetNode, PoolConfig, RemoteClientNode,
    RoomArrayNode, ServerConfig,
};
use metaclass_netsim::{
    DetRng, EngineConfig, LinkClass, LinkConfig, NodeId, PopulationProfile, PopulationTimeline,
    Region, SimDuration, SimTime, Simulation,
};
use metaclass_sensors::MotionScript;
use serde::{Deserialize, Serialize};

use crate::report::SessionReport;

/// The classroom activity being run (§3.1's interaction scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activity {
    /// A lecture: presenter at the podium, students seated.
    Lecture,
    /// A seminar: seated discussion (same kinematics, more speech).
    Seminar,
    /// Group work: students walk between tables.
    GroupWork,
}

/// One physical campus classroom.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampusSpec {
    /// Campus name (e.g. "HKUST-CWB").
    pub name: String,
    /// Where the campus sits (sets backbone latencies).
    pub region: Region,
    /// Seated students in the room.
    pub students: u32,
    /// Whether a presenter teaches from this campus's podium.
    pub has_presenter: bool,
}

/// A cohort of remote VR learners in one region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CohortSpec {
    /// The learners' region.
    pub region: Region,
    /// Cohort size.
    pub learners: u32,
    /// Their last-mile access class.
    pub access: LinkClass,
    /// When the cohort starts joining (session time). Zero means at class
    /// start; a later instant models a flash crowd arriving mid-session.
    #[serde(default)]
    pub joins_at: SimDuration,
    /// Spacing between consecutive joins within the cohort (zero = everyone
    /// at once).
    #[serde(default)]
    pub join_stagger: SimDuration,
    /// The hardware class every learner in this cohort attends through.
    pub platform: DevicePlatform,
}

/// A pooled remote population in one region: `members` statistically
/// identical learners modeled by one flyweight [`ClientPoolNode`] with exact
/// aggregate bandwidth/admission/latency accounting, plus a `tracers` subset
/// kept as fully simulated [`RemoteClientNode`]s for tail-latency fidelity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolSpec {
    /// The population's region.
    pub region: Region,
    /// Total population this spec models (tracers included).
    pub members: u64,
    /// How many members are promoted to fully simulated tracer clients
    /// (capped at `members`; `tracers >= members` expands everyone and
    /// creates no pool node).
    pub tracers: u32,
    /// The members' last-mile access class. The pool's aggregate link is
    /// this class scaled by the pooled member count.
    pub access: LinkClass,
    /// Deterministic flash-crowd arrivals of the population.
    pub profile: PopulationProfile,
}

/// One constructed pool node, as seen from the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolInfo {
    /// Pool identifier (order of [`SessionBuilder::population`] calls).
    pub pool: u32,
    /// The pool's region.
    pub region: Region,
    /// Members modeled in aggregate (excludes the tracer subset).
    pub pooled: u64,
    /// Fully simulated tracer clients split off this pool.
    pub tracers: u32,
    /// The flyweight node standing in for the pooled members.
    pub node: NodeId,
}

/// Population timelines are frozen over this horizon; arrivals a flash
/// crowd would place later are clamped to it. One hour comfortably covers a
/// class session.
pub(crate) const POPULATION_HORIZON: SimTime = SimTime::from_secs(3600);

/// Who a participant is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Role {
    /// A seated student at campus `campus`.
    Student {
        /// Campus index (order of [`SessionBuilder::campus`] calls).
        campus: usize,
    },
    /// The presenter at campus `campus`.
    Presenter {
        /// Campus index.
        campus: usize,
    },
    /// A remote VR learner.
    RemoteLearner {
        /// The learner's region.
        region: Region,
    },
}

/// One member of the session roster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Participant {
    /// The participant's avatar.
    pub avatar: AvatarId,
    /// Their role.
    pub role: Role,
    /// The simulation node embodying them (headset or VR client).
    pub node: NodeId,
}

/// Session-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// The activity everyone performs.
    pub activity: Activity,
    /// Region hosting the cloud VR classroom.
    pub cloud_region: Region,
    /// Server tuning (dead reckoning, codec, heartbeats, overload control).
    pub server: ServerConfig,
    /// Cloud fan-out tuning.
    pub fanout: FanoutConfig,
    /// Remote-client tuning.
    pub client: ClientConfig,
    /// Executor of the underlying simulation, carried per session — nothing
    /// process-global.
    pub engine: EngineConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            seed: 42,
            activity: Activity::Lecture,
            cloud_region: Region::EastAsia,
            server: ServerConfig::default(),
            fanout: FanoutConfig::default(),
            client: ClientConfig::default(),
            engine: EngineConfig::default(),
        }
    }
}

/// Builder for a [`ClassroomSession`].
///
/// # Examples
///
/// The paper's unit case: two HKUST campuses plus remote learners.
///
/// ```
/// use metaclass_core::SessionBuilder;
/// use metaclass_netsim::{LinkClass, Region, SimDuration};
///
/// let mut session = SessionBuilder::new()
///     .seed(7)
///     .campus("HKUST-CWB", Region::EastAsia, 8, true)
///     .campus("HKUST-GZ", Region::EastAsia, 6, false)
///     .remote_cohort(Region::Europe, 3, LinkClass::ResidentialAccess)
///     .build();
/// session.run_for(SimDuration::from_secs(2));
/// let report = session.report();
/// assert_eq!(report.physical_participants, 15);
/// assert_eq!(report.remote_participants, 3);
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    cfg: SessionConfig,
    campuses: Vec<CampusSpec>,
    cohorts: Vec<CohortSpec>,
    pools: Vec<PoolSpec>,
    /// Scripted inter-room moves: `(remote learner index, at, room)`.
    mobility: Vec<(u32, SimDuration, u32)>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionBuilder {
    /// Creates a builder with default configuration and no rooms.
    pub fn new() -> Self {
        SessionBuilder {
            cfg: SessionConfig::default(),
            campuses: Vec::new(),
            cohorts: Vec::new(),
            pools: Vec::new(),
            mobility: Vec::new(),
        }
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the activity.
    pub fn activity(mut self, activity: Activity) -> Self {
        self.cfg.activity = activity;
        self
    }

    /// Places the cloud VR classroom.
    pub fn cloud_region(mut self, region: Region) -> Self {
        self.cfg.cloud_region = region;
        self
    }

    /// Overrides the server configuration (tick, dead reckoning, codec).
    pub fn server_config(mut self, server: ServerConfig) -> Self {
        self.cfg.server = server;
        self
    }

    /// Overrides the cloud fan-out configuration.
    pub fn fanout_config(mut self, fanout: FanoutConfig) -> Self {
        self.cfg.fanout = fanout;
        self
    }

    /// Overrides the remote-client configuration (upload cadence, dead
    /// reckoning, jitter buffering). The codec must match the server's.
    pub fn client_config(mut self, client: ClientConfig) -> Self {
        self.cfg.client = client;
        self
    }

    /// Selects the simulation executor for this session (traces and metrics
    /// are byte-identical across engines).
    pub fn engine_config(mut self, engine: EngineConfig) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Adds a physical campus classroom.
    pub fn campus(
        mut self,
        name: impl Into<String>,
        region: Region,
        students: u32,
        has_presenter: bool,
    ) -> Self {
        self.campuses.push(CampusSpec { name: name.into(), region, students, has_presenter });
        self
    }

    /// Adds a fully specified remote cohort (the expander's entry point —
    /// platform, join time, and stagger all in one spec).
    pub fn cohort(mut self, spec: CohortSpec) -> Self {
        self.cohorts.push(spec);
        self
    }

    /// Adds a cohort of remote VR learners joining at class start.
    pub fn remote_cohort(self, region: Region, learners: u32, access: LinkClass) -> Self {
        self.remote_cohort_joining(region, learners, access, SimDuration::ZERO, SimDuration::ZERO)
    }

    /// Adds a cohort of remote VR learners that starts joining at
    /// `joins_at`, one learner every `stagger` (zero = all at once) — the
    /// flash-crowd shape of the overload experiments.
    pub fn remote_cohort_joining(
        self,
        region: Region,
        learners: u32,
        access: LinkClass,
        joins_at: SimDuration,
        stagger: SimDuration,
    ) -> Self {
        self.cohort(CohortSpec {
            region,
            learners,
            access,
            joins_at,
            join_stagger: stagger,
            platform: DevicePlatform::VrHeadset,
        })
    }

    /// Schedules an inter-room move: remote learner `learner` (global index
    /// across every cohort, in declaration order) announces a move to
    /// virtual room `room` at session time `at`. Moves queue behind
    /// admission: a learner not yet admitted retries until it is.
    pub fn mobility(mut self, learner: u32, at: SimDuration, room: u32) -> Self {
        self.mobility.push((learner, at, room));
        self
    }

    /// Adds a pooled remote population: `members` learners in `region`
    /// arriving per `profile`, modeled by one flyweight pool node with exact
    /// aggregate accounting, plus `tracers` of them kept as fully simulated
    /// clients (sampled across the arrival curve) for p99 motion-to-photon
    /// fidelity. `tracers >= members` expands the whole population into
    /// individual clients — byte-identical to an equivalent cohort.
    pub fn population(
        mut self,
        region: Region,
        members: u64,
        tracers: u32,
        access: LinkClass,
        profile: PopulationProfile,
    ) -> Self {
        self.pools.push(PoolSpec { region, members, tracers, access, profile });
        self
    }

    /// A last-mile access link extended by the backbone distance to the
    /// cloud's region.
    fn compose_access(access: LinkClass, from: Region, to: Region) -> LinkConfig {
        let base = access.config();
        let backbone_ms = from.one_way_ms(to);
        LinkConfig::new(base.delay() + SimDuration::from_millis(backbone_ms))
            .with_jitter(
                base.jitter_std() + SimDuration::from_millis_f64(backbone_ms as f64 * 0.05),
            )
            .with_loss(base.loss())
            .with_bandwidth_bps(base.bandwidth_bps().unwrap_or(100_000_000))
            .with_queue_capacity_bytes(base.queue_capacity_bytes().unwrap_or(512 * 1024))
    }

    /// A pool's aggregate access link: `members` independent last-miles of
    /// the composed class, serialized over one link with `members`× the
    /// bandwidth and queue. An aggregate message carrying N clients' bytes
    /// then occupies the wire exactly as long as one client's message would
    /// occupy one last-mile; propagation delay, jitter, and loss stay
    /// per-message, as they are per-packet on the real paths.
    fn scale_access_for_pool(base: LinkConfig, members: u64) -> LinkConfig {
        let m = members.max(1);
        LinkConfig::new(base.delay())
            .with_jitter(base.jitter_std())
            .with_loss(base.loss())
            .with_bandwidth_bps(base.bandwidth_bps().unwrap_or(100_000_000).saturating_mul(m))
            .with_queue_capacity_bytes(
                base.queue_capacity_bytes().unwrap_or(512 * 1024).saturating_mul(m),
            )
    }

    /// Assembles the deployment.
    ///
    /// # Panics
    ///
    /// Panics if no campus and no cohort was added (an empty session), if
    /// a campus has more participants than its room has seats, or if a
    /// population exceeds [`PopulationTimeline::MAX_MEMBERS`].
    pub fn build(self) -> ClassroomSession {
        assert!(
            !self.campuses.is_empty() || !self.cohorts.is_empty() || !self.pools.is_empty(),
            "a session needs at least one campus, cohort, or population"
        );
        let cfg = self.cfg;
        let mut sim: Simulation<ClassMsg> = Simulation::with_config(cfg.seed, cfg.engine);

        // ---- Freeze each population's timeline; split off its tracers. ----
        // Every pool draws from its own derived stream, so adding a pool
        // never perturbs another pool's (or any node's) randomness.
        let pool_rng = DetRng::new(cfg.seed).derive(0x504f_4f4c); // "POOL"
        let mut pool_plans: Vec<(PopulationTimeline, Vec<SimTime>)> = Vec::new();
        for (p, spec) in self.pools.iter().enumerate() {
            let mut rng = pool_rng.derive(p as u64);
            let full = PopulationTimeline::generate(
                &spec.profile,
                spec.members,
                POPULATION_HORIZON,
                &mut rng,
            );
            pool_plans.push(full.split_tracers((spec.tracers as u64).min(spec.members)));
        }

        // ---- Precompute node indices (nodes are added in this order). ----
        let cloud_id = NodeId::from_index(0);
        let mut next = 1usize;
        struct CampusIds {
            edge: NodeId,
            array: NodeId,
            headsets: Vec<NodeId>,
        }
        let mut campus_ids = Vec::new();
        for spec in &self.campuses {
            let participants = spec.students + u32::from(spec.has_presenter);
            let edge = NodeId::from_index(next);
            let array = NodeId::from_index(next + 1);
            let headsets =
                (0..participants).map(|i| NodeId::from_index(next + 2 + i as usize)).collect();
            campus_ids.push(CampusIds { edge, array, headsets });
            next += 2 + participants as usize;
        }
        let mut client_ids = Vec::new();
        for cohort in &self.cohorts {
            for _ in 0..cohort.learners {
                client_ids.push(NodeId::from_index(next));
                next += 1;
            }
        }
        for (_, tracer_joins) in &pool_plans {
            for _ in 0..tracer_joins.len() {
                client_ids.push(NodeId::from_index(next));
                next += 1;
            }
        }
        let pool_node_ids: Vec<Option<NodeId>> = pool_plans
            .iter()
            .map(|(pooled, _)| {
                if pooled.members() > 0 {
                    let id = NodeId::from_index(next);
                    next += 1;
                    Some(id)
                } else {
                    None
                }
            })
            .collect();

        // ---- Rosters, scripts, anchors. ----
        let mut participants = Vec::new();
        let mut campus_rosters: Vec<Vec<(AvatarId, NodeId, metaclass_avatar::AnchorFrame)>> =
            Vec::new();
        let mut campus_scripts: Vec<Vec<(AvatarId, MotionScript, u64)>> = Vec::new();
        let layout = ClassroomLayout::lecture(6, 8); // 48 seats per room

        for (k, spec) in self.campuses.iter().enumerate() {
            let mut roster = Vec::new();
            let mut scripts = Vec::new();
            let count = spec.students + u32::from(spec.has_presenter);
            assert!(
                (count as usize) <= layout.capacity(),
                "campus {} has {count} participants but the room seats {}",
                spec.name,
                layout.capacity()
            );
            for i in 0..count {
                let avatar = AvatarId(k as u32 * 1000 + i);
                let headset = campus_ids[k].headsets[i as usize];
                let is_presenter = spec.has_presenter && i == spec.students;
                let (anchor, script) = if is_presenter {
                    let podium = layout.podium;
                    (
                        podium,
                        MotionScript::Presenter {
                            center: podium.pose.position,
                            area_half: Vec3::new(1.4, 0.0, 0.9),
                        },
                    )
                } else {
                    let seat = layout.seats[i as usize];
                    let floor = Vec3::new(seat.pose.position.x, 0.0, seat.pose.position.z);
                    let script = match cfg.activity {
                        Activity::Lecture | Activity::Seminar => {
                            MotionScript::SeatedLecture { seat: floor }
                        }
                        Activity::GroupWork => {
                            // Four tables; students cycle starting at theirs.
                            let tables = [
                                Vec3::new(8.0, 0.0, 5.0),
                                Vec3::new(12.0, 0.0, 5.0),
                                Vec3::new(8.0, 0.0, 9.0),
                                Vec3::new(12.0, 0.0, 9.0),
                            ];
                            let mut order: Vec<Vec3> =
                                (0..4).map(|t| tables[(t + i as usize) % 4]).collect();
                            order.dedup();
                            MotionScript::GroupWork { tables: order, dwell_secs: 10.0 }
                        }
                    };
                    (seat, script)
                };
                let role = if is_presenter {
                    Role::Presenter { campus: k }
                } else {
                    Role::Student { campus: k }
                };
                participants.push(Participant { avatar, role, node: headset });
                roster.push((avatar, headset, anchor));
                scripts.push((avatar, script, cfg.seed ^ (avatar.0 as u64) << 8));
            }
            campus_rosters.push(roster);
            campus_scripts.push(scripts);
        }

        let mut client_map = BTreeMap::new();
        {
            let mut j = 0usize;
            let cohort_regions = self.cohorts.iter().map(|c| (c.region, c.learners as usize));
            let tracer_regions = self
                .pools
                .iter()
                .zip(&pool_plans)
                .map(|(spec, (_, tracer_joins))| (spec.region, tracer_joins.len()));
            for (region, count) in cohort_regions.chain(tracer_regions) {
                for _ in 0..count {
                    let avatar = AvatarId(10_000 + j as u32);
                    client_map.insert(avatar, client_ids[j]);
                    participants.push(Participant {
                        avatar,
                        role: Role::RemoteLearner { region },
                        node: client_ids[j],
                    });
                    j += 1;
                }
            }
        }

        // ---- Instantiate nodes in the precomputed order. ----
        let all_edges: Vec<NodeId> = campus_ids.iter().map(|c| c.edge).collect();
        let cloud = sim.add_node(
            "cloud",
            CloudServerNode::new(
                cfg.server,
                cfg.fanout,
                client_map.clone(),
                all_edges.clone(),
                2048,
            ),
        );
        debug_assert_eq!(cloud, cloud_id);

        for (k, spec) in self.campuses.iter().enumerate() {
            let peers: Vec<NodeId> = all_edges
                .iter()
                .copied()
                .filter(|&e| e != campus_ids[k].edge)
                .chain(std::iter::once(cloud_id))
                .collect();
            let edge = sim.add_node(
                format!("edge-{}", spec.name),
                EdgeServerNode::new(cfg.server, layout.clone(), campus_rosters[k].clone(), peers),
            );
            debug_assert_eq!(edge, campus_ids[k].edge);
            let array = sim.add_node(
                format!("array-{}", spec.name),
                RoomArrayNode::new(edge, campus_scripts[k].clone()),
            );
            debug_assert_eq!(array, campus_ids[k].array);
            sim.connect(array, edge, LinkClass::WiredLan.config());
            for (avatar, script, seed) in campus_scripts[k].clone() {
                let hs = sim.add_node(
                    format!("headset-{avatar}"),
                    HeadsetNode::new(avatar, edge, cfg.server.codec, script, seed),
                );
                sim.connect(hs, edge, LinkClass::Wifi.config());
            }
        }

        let mut pool_infos = Vec::new();
        {
            // Cohort learners, then pool tracers — a single construction
            // path, so a fully traced pool is byte-identical to a cohort.
            let cohort_delays = self.cohorts.iter().flat_map(|cohort| {
                (0..cohort.learners).map(move |i| {
                    let delay =
                        SimDuration::from_nanos(cohort.joins_at.as_nanos().saturating_add(
                            cohort.join_stagger.as_nanos().saturating_mul(i as u64),
                        ));
                    (cohort.region, cohort.access, delay, cohort.platform)
                })
            });
            let tracer_delays = self.pools.iter().zip(&pool_plans).flat_map(|(spec, plan)| {
                plan.1.iter().map(move |at| {
                    (
                        spec.region,
                        spec.access,
                        SimDuration::from_nanos(at.as_nanos()),
                        DevicePlatform::VrHeadset,
                    )
                })
            });
            for (j, (region, access, join_delay, platform)) in
                cohort_delays.chain(tracer_delays).enumerate()
            {
                let avatar = AvatarId(10_000 + j as u32);
                // Remote learners "sit" near the origin of their own
                // home space; the cloud reseats them in the auditorium.
                let script = MotionScript::SeatedLecture {
                    seat: Vec3::new(1.0 + (j % 5) as f64 * 0.8, 0.0, 1.0 + (j / 5 % 8) as f64),
                };
                let mut ccfg = platform.apply(cfg.client);
                ccfg.join_delay = join_delay;
                let mut client = RemoteClientNode::new(
                    avatar,
                    cloud_id,
                    ccfg,
                    script,
                    cfg.seed ^ ((avatar.0 as u64) << 16),
                );
                let moves: Vec<(SimDuration, u32)> = self
                    .mobility
                    .iter()
                    .filter(|(l, _, _)| *l as usize == j)
                    .map(|&(_, at, room)| (at, room))
                    .collect();
                if !moves.is_empty() {
                    client = client.with_mobility(moves);
                }
                let node = sim.add_node(format!("client-{avatar}"), client);
                debug_assert_eq!(node, client_ids[j]);
                sim.connect(node, cloud_id, Self::compose_access(access, region, cfg.cloud_region));
            }

            // Flyweight pool nodes, after every individually simulated
            // client, each over an access link scaled by its member count
            // (N parallel last-miles, modeled as one wide one).
            for (p, (spec, (timeline, tracer_joins))) in
                self.pools.iter().zip(pool_plans).enumerate()
            {
                let Some(expected) = pool_node_ids[p] else { continue };
                let pooled = timeline.members();
                let pool = p as u32;
                let node = sim.add_node(
                    format!("pool-{pool}"),
                    ClientPoolNode::new(
                        PoolConfig {
                            pool,
                            tick: cfg.client.pose_rate,
                            dead_reckoning: cfg.client.dead_reckoning,
                            codec: cfg.client.codec,
                        },
                        timeline,
                        cloud_id,
                        MotionScript::SeatedLecture { seat: Vec3::new(1.0, 0.0, 1.0) },
                        cfg.seed ^ ((pool_avatar(pool).0 as u64) << 16),
                    ),
                );
                debug_assert_eq!(node, expected);
                let base = Self::compose_access(spec.access, spec.region, cfg.cloud_region);
                sim.connect(node, cloud_id, Self::scale_access_for_pool(base, pooled));
                pool_infos.push(PoolInfo {
                    pool,
                    region: spec.region,
                    pooled,
                    tracers: tracer_joins.len() as u32,
                    node,
                });
            }
        }

        // ---- Inter-server links. ----
        for (k, spec) in self.campuses.iter().enumerate() {
            sim.connect(campus_ids[k].edge, cloud_id, spec.region.backbone_to(cfg.cloud_region));
            for (m, other) in self.campuses.iter().enumerate().skip(k + 1) {
                sim.connect(
                    campus_ids[k].edge,
                    campus_ids[m].edge,
                    spec.region.backbone_to(other.region),
                );
            }
        }

        // The presenter of campus 0 (if any) is the session's speaker.
        let speaker = participants.iter().find_map(|p| match p.role {
            Role::Presenter { campus: 0 } => Some(p.avatar),
            _ => None,
        });
        if let Some(s) = speaker {
            sim.node_as_mut::<CloudServerNode>(cloud_id).expect("cloud node").set_speaker(Some(s));
        }
        if !pool_infos.is_empty() {
            sim.node_as_mut::<CloudServerNode>(cloud_id)
                .expect("cloud node")
                .set_pools(pool_infos.iter().map(|p| (p.pool, p.node)).collect());
        }

        ClassroomSession {
            sim,
            cfg,
            cloud: cloud_id,
            edges: all_edges,
            campus_nodes: campus_ids
                .into_iter()
                .map(|c| [c.edge, c.array].into_iter().chain(c.headsets).collect())
                .collect(),
            campuses: self.campuses,
            participants,
            pools: pool_infos,
        }
    }
}

/// A running virtual-physical blended classroom.
pub struct ClassroomSession {
    sim: Simulation<ClassMsg>,
    cfg: SessionConfig,
    cloud: NodeId,
    edges: Vec<NodeId>,
    campus_nodes: Vec<Vec<NodeId>>,
    campuses: Vec<CampusSpec>,
    participants: Vec<Participant>,
    pools: Vec<PoolInfo>,
}

impl ClassroomSession {
    /// Advances the session by `duration`.
    pub fn run_for(&mut self, duration: SimDuration) {
        let until = self.sim.time() + duration;
        self.sim.run_until(until);
    }

    /// Current session time.
    pub fn time(&self) -> SimTime {
        self.sim.time()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The underlying simulation (metrics, nodes, links).
    pub fn sim(&self) -> &Simulation<ClassMsg> {
        &self.sim
    }

    /// Mutable access to the underlying simulation (failure injection,
    /// node inspection).
    pub fn sim_mut(&mut self) -> &mut Simulation<ClassMsg> {
        &mut self.sim
    }

    /// The cloud server's node id.
    pub fn cloud(&self) -> NodeId {
        self.cloud
    }

    /// Edge-server node ids, in campus order.
    pub fn edges(&self) -> &[NodeId] {
        &self.edges
    }

    /// Every node of campus `campus`, in build order: the edge server, the
    /// room array, then one headset per participant.
    ///
    /// # Panics
    ///
    /// Panics if `campus` is not a campus index of this session.
    pub fn campus_nodes(&self, campus: usize) -> &[NodeId] {
        &self.campus_nodes[campus]
    }

    /// The partition groups that isolate campus `campus` from every other
    /// node: the campus's own nodes in one group; the other campuses (in
    /// campus order), the cloud, the remote learners and the pool nodes in
    /// the other. The groups cover every node, and the one holding campus 0
    /// is listed first.
    ///
    /// # Panics
    ///
    /// Panics if `campus` is not a campus index of this session.
    pub fn campus_partition(&self, campus: usize) -> Vec<Vec<NodeId>> {
        let isolated = self.campus_nodes[campus].clone();
        let remote_learners = self
            .participants
            .iter()
            .filter(|p| matches!(p.role, Role::RemoteLearner { .. }))
            .map(|p| p.node);
        let rest: Vec<NodeId> = self
            .campus_nodes
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != campus)
            .flat_map(|(_, nodes)| nodes.iter().copied())
            .chain(std::iter::once(self.cloud))
            .chain(remote_learners)
            .chain(self.pools.iter().map(|p| p.node))
            .collect();
        if campus == 0 {
            vec![isolated, rest]
        } else {
            vec![rest, isolated]
        }
    }

    /// The session roster.
    pub fn participants(&self) -> &[Participant] {
        &self.participants
    }

    /// Campus specifications, in campus order.
    pub fn campuses(&self) -> &[CampusSpec] {
        &self.campuses
    }

    /// Constructed pool nodes, in pool order. A population fully covered by
    /// tracers creates no pool node and does not appear here.
    pub fn pools(&self) -> &[PoolInfo] {
        &self.pools
    }

    /// Members modeled in aggregate across every pool (tracers excluded —
    /// those are real participants).
    pub fn pooled_population(&self) -> u64 {
        self.pools.iter().map(|p| p.pooled).sum()
    }

    /// Builds a report from the metrics accumulated so far.
    pub fn report(&self) -> SessionReport {
        SessionReport::from_session(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_case() -> ClassroomSession {
        SessionBuilder::new()
            .seed(11)
            .campus("CWB", Region::EastAsia, 5, true)
            .campus("GZ", Region::EastAsia, 4, false)
            .remote_cohort(Region::Europe, 2, LinkClass::ResidentialAccess)
            .remote_cohort(Region::NorthAmerica, 1, LinkClass::CellularAccess)
            .build()
    }

    #[test]
    fn roster_matches_specs() {
        let s = unit_case();
        let students =
            s.participants().iter().filter(|p| matches!(p.role, Role::Student { .. })).count();
        let presenters =
            s.participants().iter().filter(|p| matches!(p.role, Role::Presenter { .. })).count();
        let remote = s
            .participants()
            .iter()
            .filter(|p| matches!(p.role, Role::RemoteLearner { .. }))
            .count();
        assert_eq!((students, presenters, remote), (9, 1, 3));
        assert_eq!(s.edges().len(), 2);
    }

    #[test]
    fn avatars_replicate_across_all_three_rooms() {
        let mut s = unit_case();
        s.run_for(SimDuration::from_secs(4));
        // Cloud sees everyone.
        let cloud = s.cloud();
        let population = s.sim().node_as::<CloudServerNode>(cloud).unwrap().population();
        assert_eq!(population, 13);
        // Each edge displays the other campus + remote learners.
        for &edge in s.edges() {
            let remote_count = s.sim().node_as::<EdgeServerNode>(edge).unwrap().remote_count();
            assert!(remote_count >= 5, "edge shows {remote_count}");
        }
    }

    #[test]
    fn group_work_sessions_generate_more_traffic_than_lectures() {
        let run = |activity| {
            let mut s = SessionBuilder::new()
                .seed(3)
                .activity(activity)
                .campus("CWB", Region::EastAsia, 6, false)
                .campus("GZ", Region::EastAsia, 6, false)
                .build();
            s.run_for(SimDuration::from_secs(20));
            s.sim().metrics().counter_value("edge.update_bytes")
        };
        let lecture = run(Activity::Lecture);
        let group = run(Activity::GroupWork);
        // Expression replication (speech-driven jaw motion) dominates both
        // activities; walking between tables adds measurably on top.
        assert!(
            group as f64 > lecture as f64 * 1.02,
            "group work {group} B vs lecture {lecture} B"
        );
    }

    #[test]
    #[should_panic(expected = "at least one campus")]
    fn empty_sessions_are_rejected() {
        let _ = SessionBuilder::new().build();
    }

    #[test]
    fn pooled_population_admits_and_receives_displays() {
        let mut s = SessionBuilder::new()
            .seed(17)
            .campus("CWB", Region::EastAsia, 3, true)
            .population(
                Region::SouthAsia,
                500,
                4,
                LinkClass::ResidentialAccess,
                PopulationProfile::flash_crowd(
                    SimTime::from_millis(200),
                    SimDuration::from_millis(300),
                ),
            )
            .build();
        assert_eq!(s.pools().len(), 1);
        assert_eq!(s.pooled_population(), 496);
        let tracers = s
            .participants()
            .iter()
            .filter(|p| matches!(p.role, Role::RemoteLearner { .. }))
            .count();
        assert_eq!(tracers, 4);

        s.run_for(SimDuration::from_secs(5));
        let cloud = s.cloud();
        let active = s.sim().node_as::<CloudServerNode>(cloud).unwrap().pooled_active();
        assert_eq!(active, 496, "every pooled member admitted");
        let pool_node = s.pools()[0].node;
        let pool = s.sim().node_as::<ClientPoolNode>(pool_node).unwrap();
        assert_eq!(pool.active(), 496, "pool agrees with the cloud");
        assert!(pool.updates_received() > 0, "crowd saw fan-out updates");
        let latency = s
            .sim()
            .metrics()
            .histogram_if_present("pool.display_latency_ns")
            .expect("member-weighted latency recorded")
            .summary();
        assert!(latency.count >= 496, "one sample per member per batch");
    }

    #[test]
    fn fully_traced_population_is_byte_identical_to_a_cohort() {
        let run = |pooled: bool| {
            let builder = SessionBuilder::new().seed(23).campus("CWB", Region::EastAsia, 2, true);
            let builder = if pooled {
                builder.population(
                    Region::Europe,
                    3,
                    3,
                    LinkClass::ResidentialAccess,
                    PopulationProfile::flash_crowd(SimTime::from_millis(500), SimDuration::ZERO),
                )
            } else {
                builder.remote_cohort_joining(
                    Region::Europe,
                    3,
                    LinkClass::ResidentialAccess,
                    SimDuration::from_millis(500),
                    SimDuration::ZERO,
                )
            };
            let mut s = builder.build();
            s.run_for(SimDuration::from_secs(3));
            (s.pools().len(), s.sim().metrics().snapshot())
        };
        let (pools, pooled_metrics) = run(true);
        let (_, cohort_metrics) = run(false);
        assert_eq!(pools, 0, "100% tracers must not create a pool node");
        assert_eq!(pooled_metrics, cohort_metrics);
    }

    #[test]
    #[should_panic(expected = "seats")]
    fn overfull_campus_is_rejected() {
        let _ = SessionBuilder::new().campus("X", Region::Europe, 500, false).build();
    }
}
