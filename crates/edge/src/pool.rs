//! The flyweight client pool: N statistically-identical remote clients in
//! one region, collapsed into a single scheduled entity.
//!
//! The paper's §3.3 "thousands of remote users" — and the ROADMAP's
//! 100k–1M+ population tier — cannot be reached by scheduling one node per
//! client. A [`ClientPoolNode`] stands in for a whole region's audience:
//!
//! - **Arrivals** come from a pre-generated, deterministic flash-crowd
//!   [`PopulationTimeline`], consumed with a cursor — per tick a search of
//!   its bucket table and a scan of one bucket, never O(members × ticks).
//!   Admitted members stay to the end of class.
//! - **Admission** is exact: the pool batches [`ClassMsg::PoolJoin`]
//!   requests and the cloud spends one real token-bucket token per pooled
//!   client, replying with an admitted count and a retry hint. The pool is
//!   its own regional waiting room; individually simulated joiners keep
//!   strict priority at the cloud.
//! - **Bandwidth** is exact: aggregate messages are charged the wire bytes
//!   of the N individual messages they stand for
//!   (see [`ClassMsg::wire_bytes`]), and the session layer scales the
//!   pool's access link by the member count so N parallel last-miles
//!   serialize in the same time one client's would.
//! - **Latency accounting** is member-weighted: each fan-out batch records
//!   every pooled client's display latency via `Histogram::record_n`, so
//!   aggregate percentiles cost O(1) per batch. Full tail *fidelity* (p99
//!   motion-to-photon through jitter buffers and per-client links) comes
//!   from the tracer subset — a configurable handful of pool members the
//!   session layer keeps as fully simulated [`crate::RemoteClientNode`]s.
//!
//! Pools are per-region, communicate only with the cloud, and draw all
//! randomness from their own derived [`metaclass_netsim::DetRng`] streams,
//! so they partition cleanly across the sharded engine and replay
//! byte-identically.

use metaclass_avatar::{AvatarCodec, AvatarId, CodecConfig};
use metaclass_netsim::{Context, Node, NodeId, PopulationTimeline, SimDuration, SimTime, Timer};
use metaclass_sensors::{MotionScript, Trajectory};
use metaclass_sync::{DeadReckoningConfig, DeadReckoningSender, SnapshotSender};

use crate::messages::ClassMsg;

const TAG_POOL_TICK: u64 = 40;

/// Fallback retry cadence when the cloud's hint is silent or already past.
const JOIN_RETRY_FLOOR: SimDuration = SimDuration::from_millis(250);

/// How long an in-flight join batch may go unanswered before its members
/// re-queue and a fresh batch is sent. Covers a lost `PoolJoin` *or* a lost
/// `PoolJoinReply`; the duplicate-admission drift a lost reply can cause is
/// reconciled by the cloud against the next pose's authoritative count.
const JOIN_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Avatar-id base for pool representatives: far above campus (`k*1000+i`)
/// and remote (`10_000+j`) avatar ranges.
pub const POOL_AVATAR_BASE: u32 = 2_000_000;

/// The avatar id of pool `pool`'s representative in the virtual classroom.
pub fn pool_avatar(pool: u32) -> AvatarId {
    AvatarId(POOL_AVATAR_BASE + pool)
}

/// Tuning of one client pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Pool identifier (stable per region, unique per session).
    pub pool: u32,
    /// Pool tick cadence — also the representative pose upload rate
    /// (matches the individual clients' `pose_rate`).
    pub tick: SimDuration,
    /// Dead-reckoning thresholds for the representative upload.
    pub dead_reckoning: DeadReckoningConfig,
    /// Avatar codec configuration — must match the serving cloud's.
    pub codec: CodecConfig,
}

/// A region's pooled remote audience, as one node.
pub struct ClientPoolNode {
    cfg: PoolConfig,
    server: NodeId,
    seed: u64,
    script: MotionScript,
    trajectory: Trajectory,
    uplink: SnapshotSender,
    dead_reckoner: DeadReckoningSender,
    /// Pre-generated arrival schedule of the pooled members (the tracer
    /// subset excluded); the pool's only copy of it.
    timeline: PopulationTimeline,
    /// Members that have arrived but are not yet admitted or in flight.
    unjoined: u64,
    /// Members whose batched join request is in flight.
    pending: u64,
    /// Members admitted by the cloud (the crowd currently in class).
    active: u64,
    join_attempt: u32,
    /// When the in-flight join batch was sent, for retransmission.
    join_sent_at: Option<SimTime>,
    /// Cloud-hinted earliest next join batch (from a partial admission).
    earliest_rejoin: SimTime,
    updates_received: u64,
}

impl ClientPoolNode {
    /// Creates the pool for the members `timeline` schedules, serving
    /// `server` (the cloud), with its representative moving along `script`.
    /// `seed` feeds the trajectory only; all population randomness is
    /// already frozen in the timeline.
    pub fn new(
        cfg: PoolConfig,
        timeline: PopulationTimeline,
        server: NodeId,
        script: MotionScript,
        seed: u64,
    ) -> Self {
        ClientPoolNode {
            uplink: SnapshotSender::new(AvatarCodec::new(cfg.codec), 60),
            dead_reckoner: DeadReckoningSender::new(cfg.dead_reckoning),
            trajectory: Trajectory::new(script.clone(), seed),
            server,
            seed,
            script,
            timeline,
            cfg,
            unjoined: 0,
            pending: 0,
            active: 0,
            join_attempt: 0,
            join_sent_at: None,
            earliest_rejoin: SimTime::ZERO,
            updates_received: 0,
        }
    }

    /// The pool's representative avatar id.
    pub fn avatar(&self) -> AvatarId {
        pool_avatar(self.cfg.pool)
    }

    /// Members currently admitted (in class).
    pub fn active(&self) -> u64 {
        self.active
    }

    /// Members this pool stands for.
    pub fn members(&self) -> u64 {
        self.timeline.members()
    }

    /// Aggregate display updates received so far (member-weighted).
    pub fn updates_received(&self) -> u64 {
        self.updates_received
    }

    /// The cloud forgot us (crash-restart): every member re-queues.
    fn reset_to_unjoined(&mut self, ctx: &mut Context<'_, ClassMsg>, now: SimTime) {
        ctx.metrics().inc("pool.evictions");
        self.unjoined += self.active + self.pending;
        self.active = 0;
        self.pending = 0;
        self.join_sent_at = None;
        self.earliest_rejoin = now;
        self.uplink = SnapshotSender::new(AvatarCodec::new(self.cfg.codec), 60);
        self.dead_reckoner = DeadReckoningSender::new(self.cfg.dead_reckoning);
    }
}

impl Node<ClassMsg> for ClientPoolNode {
    fn on_start(&mut self, ctx: &mut Context<'_, ClassMsg>) {
        ctx.set_timer(self.cfg.tick, TAG_POOL_TICK);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ClassMsg>, timer: Timer) {
        if timer.tag != TAG_POOL_TICK {
            return;
        }
        let now = ctx.now();
        let joins = self.timeline.drain_until(now);
        if joins > 0 {
            self.unjoined += joins;
            ctx.metrics().add("pool.members_arrived", joins);
        }

        // A batch unanswered past the timeout re-queues: either the request
        // or its reply was lost on a faulty path.
        if self.pending > 0
            && self.join_sent_at.is_some_and(|sent| now.duration_since(sent) >= JOIN_TIMEOUT)
        {
            ctx.metrics().inc("pool.join_retries");
            self.unjoined += self.pending;
            self.pending = 0;
            self.join_sent_at = None;
        }

        // One batched join request at a time; retries honor the hint.
        if self.unjoined > 0 && self.pending == 0 && now >= self.earliest_rejoin {
            self.join_attempt += 1;
            self.pending = self.unjoined;
            self.unjoined = 0;
            self.join_sent_at = Some(now);
            ctx.metrics().inc("pool.join_batches_sent");
            ctx.metrics().add("pool.joins_sent", self.pending);
            ClassMsg::PoolJoin {
                pool: self.cfg.pool,
                count: self.pending,
                attempt: self.join_attempt,
            }
            .send_to(ctx, self.server);
        }

        // The representative pose, uploaded on behalf of the active crowd.
        if self.active > 0 {
            let truth = self.trajectory.state_at(now.as_secs_f64());
            if self.dead_reckoner.should_send(now, &truth) {
                self.dead_reckoner.mark_sent(now, truth);
                let frame = self.uplink.encode(&truth);
                let size = ClassMsg::PoolPose {
                    pool: self.cfg.pool,
                    count: self.active,
                    frame,
                    captured_at: now,
                }
                .send_to(ctx, self.server);
                ctx.metrics().add("pool.poses_sent", self.active);
                ctx.metrics().add("pool.pose_bytes", size as u64);
            } else {
                self.dead_reckoner.mark_suppressed();
            }
        }
        ctx.set_timer(self.cfg.tick, TAG_POOL_TICK);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ClassMsg>, _from: NodeId, msg: ClassMsg) {
        let now = ctx.now();
        match msg {
            ClassMsg::PoolJoinReply { pool, admitted, waiting, retry_after }
                if pool == self.cfg.pool =>
            {
                let admitted = admitted.min(self.pending);
                self.pending -= admitted;
                self.active += admitted;
                self.join_sent_at = None;
                ctx.metrics().add("pool.members_admitted", admitted);
                // The un-admitted remainder re-queues locally; the pool is
                // its own regional waiting room.
                let waiting = waiting.min(self.pending);
                self.pending -= waiting;
                self.unjoined += waiting;
                if waiting > 0 {
                    ctx.metrics().add("pool.members_deferred", waiting);
                    let hint = retry_after.max(JOIN_RETRY_FLOOR);
                    self.earliest_rejoin = now.saturating_add(hint);
                }
            }
            ClassMsg::PoolDisplay { pool, members, captured } if pool == self.cfg.pool => {
                let batch = members.saturating_mul(captured.len() as u64);
                self.updates_received += batch;
                ctx.metrics().add("pool.updates_received", batch);
                for captured_at in captured {
                    ctx.metrics()
                        .histogram("pool.display_latency_ns")
                        .record_n(now.duration_since(captured_at).as_nanos(), members);
                }
            }
            ClassMsg::PoolEvict { pool } if pool == self.cfg.pool => {
                self.reset_to_unjoined(ctx, now);
            }
            ClassMsg::AvatarAck { avatar, seq } if avatar == self.avatar() => {
                self.uplink.on_ack(seq);
            }
            ClassMsg::KeyframeRequest { avatar } if avatar == self.avatar() => {
                self.uplink.request_keyframe();
            }
            _ => {}
        }
    }

    fn on_crash(&mut self) {
        // A crashed pool process loses its volatile membership view; the
        // timeline (the region's population) replays from the top when
        // `on_start` re-arms the tick.
        self.timeline.rewind();
        self.unjoined = 0;
        self.pending = 0;
        self.active = 0;
        self.join_attempt = 0;
        self.join_sent_at = None;
        self.earliest_rejoin = SimTime::ZERO;
        self.updates_received = 0;
        self.uplink = SnapshotSender::new(AvatarCodec::new(self.cfg.codec), 60);
        self.dead_reckoner = DeadReckoningSender::new(self.cfg.dead_reckoning);
        self.trajectory = Trajectory::new(self.script.clone(), self.seed);
    }
}
