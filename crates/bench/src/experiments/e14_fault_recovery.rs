//! E14 — Fault recovery: crash detection, graceful degradation, resync.
//!
//! The blueprint's always-on blended classroom has to survive the failures
//! §3.3 worries about — edge servers dropping off the inter-campus link,
//! lossy last miles — without showing students stale avatars as if they were
//! live. Two measurements:
//!
//! 1. **Crash / restart** (scenario A): an edge server crashes mid-lecture
//!    and restarts later, injected as a [`FaultWindow`]. We report
//!    how long the surviving edge takes to detect the outage, how its copy
//!    of the dead campus's avatars degrades (dead-reckoning *hold*, then
//!    *freeze*), how stale they got, and how quickly a full-snapshot resync
//!    restores freshness after the restart.
//! 2. **Adaptive vs fixed RTO** (scenario B): the same reliable interaction
//!    stream is driven over a jittery, bursty-loss channel with the RFC
//!    6298-style adaptive estimator and with the pre-adaptive fixed-RTO
//!    baseline. The fixed timeout sits below the channel's RTT tail, so it
//!    retransmits spuriously; the estimator learns the tail and does not.
//!
//! [`FaultWindow`]: metaclass_netsim::FaultWindow

use metaclass_avatar::AvatarId;
use metaclass_core::{Activity, SessionBuilder, SessionConfig};
use metaclass_edge::{EdgeServerNode, HeartbeatConfig, PeerState, RemoteAvatarPresentation};
use metaclass_netsim::{DetRng, FaultWindow, Region, SimDuration, SimTime};
use metaclass_sync::{ReliableConfig, ReliableReceiver, ReliableSender};

use crate::{mix_seed, Experiment, Report, RunCtx, Table};

/// Measurements from the crash/restart scenario.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Time from the injected crash to the surviving edge marking its peer
    /// down, in milliseconds.
    pub detection_ms: f64,
    /// Whether the dead campus's avatars were in dead-reckoning hold right
    /// after detection.
    pub held: bool,
    /// Whether they were frozen once the hold window elapsed.
    pub frozen: bool,
    /// Staleness of a dead campus's avatar at the end of the outage, ms.
    pub outage_staleness_ms: f64,
    /// Whether fresh updates resumed after the restart.
    pub recovered: bool,
    /// Time from the restart until the surviving edge held a post-restart
    /// state of the probed avatar, in milliseconds.
    pub recovery_ms: f64,
    /// Staleness of the probed avatar well after recovery, ms.
    pub post_staleness_ms: f64,
}

/// One retransmission-policy measurement from scenario B.
#[derive(Debug, Clone)]
pub struct RtoRow {
    /// Policy name ("adaptive" / "fixed").
    pub variant: &'static str,
    /// Events delivered exactly-once in order.
    pub delivered: u64,
    /// Total retransmitted copies.
    pub retransmissions: u64,
    /// Retransmitted copies per delivered event.
    pub retransmit_ratio: f64,
}

/// Outcome of E14.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Crash/restart measurements.
    pub fault: FaultRow,
    /// RTO-policy comparison, adaptive first.
    pub rto: Vec<RtoRow>,
    /// Rendered table.
    pub table: Table,
}

/// The heartbeat tuning used by the scenario (tight in quick mode so the
/// whole outage fits in a test-sized run).
fn heartbeat(quick: bool) -> HeartbeatConfig {
    if quick {
        HeartbeatConfig {
            interval: SimDuration::from_millis(20),
            degraded_after: SimDuration::from_millis(80),
            timeout: SimDuration::from_millis(150),
            hold: SimDuration::from_millis(200),
        }
    } else {
        HeartbeatConfig::default()
    }
}

fn measure_fault(quick: bool, ctx: &RunCtx) -> FaultRow {
    let hb = heartbeat(quick);
    let mut cfg = SessionConfig::default();
    cfg.server.heartbeat = hb;
    let (students, warmup) =
        if quick { (2, SimDuration::from_secs(2)) } else { (5, SimDuration::from_secs(3)) };
    let mut session = SessionBuilder::new()
        .seed(mix_seed(ctx.seed, 0xE14))
        .engine_config(ctx.engine)
        .activity(Activity::Lecture)
        .server_config(cfg.server)
        .campus("CWB", Region::EastAsia, students, true)
        .campus("GZ", Region::EastAsia, students, false)
        .build();
    let edges = session.edges().to_vec();
    let (survivor, victim) = (edges[0], edges[1]);
    // Campus-1 avatars are numbered from 1000; probe the first one.
    let probe = AvatarId(1000);

    let crash_at = SimTime::ZERO + warmup;
    let outage = hb.timeout + hb.hold + hb.hold; // detect, hold, then freeze
    let restart_at = crash_at + outage;
    let crash = FaultWindow::CrashRestart { node: victim, from: crash_at, until: restart_at };
    session.sim_mut().apply_fault_plan(&[crash]);

    // Warm up until the crash fires, then give detection time to trip:
    // timeout plus a few replication ticks of polling slack.
    let slack = SimDuration::from_millis(60);
    session.run_for(warmup + hb.timeout + slack);
    let now = session.time();
    let edge = session.sim().node_as::<EdgeServerNode>(survivor).expect("edge");
    let health = edge.peer_health(victim).expect("victim is a peer");
    let detection_ms = match (health.state(), health.down_since()) {
        (PeerState::Down, Some(at)) => at.duration_since(crash_at).as_secs_f64() * 1e3,
        _ => f64::NAN,
    };
    let held = edge.presentation_of(probe, now) == RemoteAvatarPresentation::Hold;

    // Let the hold window elapse; the avatar must now be frozen, not
    // extrapolating ever-staler motion.
    session.run_for(hb.hold + slack);
    let now = session.time();
    let edge = session.sim().node_as::<EdgeServerNode>(survivor).expect("edge");
    let frozen = edge.presentation_of(probe, now) == RemoteAvatarPresentation::Frozen;
    let outage_staleness_ms = edge
        .remote_captured_at(probe)
        .map(|t| now.duration_since(t).as_secs_f64() * 1e3)
        .unwrap_or(f64::NAN);

    // Run past the restart and step until the survivor holds a state of the
    // probed avatar captured *after* the restart (full resync completed).
    let recovery_deadline = restart_at + SimDuration::from_secs(3);
    let mut recovered_at = None;
    while session.time() < recovery_deadline {
        session.run_for(SimDuration::from_millis(10));
        let edge = session.sim().node_as::<EdgeServerNode>(survivor).expect("edge");
        if edge.remote_captured_at(probe).is_some_and(|t| t > restart_at) {
            recovered_at = Some(session.time());
            break;
        }
    }
    let (recovered, recovery_ms) = match recovered_at {
        Some(t) => (true, t.duration_since(restart_at).as_secs_f64() * 1e3),
        None => (false, f64::NAN),
    };

    // Settle, then measure steady-state freshness again.
    session.run_for(SimDuration::from_millis(500));
    let now = session.time();
    let edge = session.sim().node_as::<EdgeServerNode>(survivor).expect("edge");
    let post_staleness_ms = edge
        .remote_captured_at(probe)
        .map(|t| now.duration_since(t).as_secs_f64() * 1e3)
        .unwrap_or(f64::NAN);

    FaultRow {
        detection_ms,
        held,
        frozen,
        outage_staleness_ms,
        recovered,
        recovery_ms,
        post_staleness_ms,
    }
}

/// Drives one reliable stream over a synthetic channel: RTT jittering
/// around `BASE_RTT` with a Gilbert–Elliott loss process averaging ≈5%,
/// events paced every 40 ms, retransmissions pumped every 5 ms.
fn measure_rto(cfg: ReliableConfig, events: u64, seed: u64) -> (u64, u64) {
    const BASE_RTT_MS: f64 = 120.0;
    const JITTER_MS: f64 = 60.0;
    let step = SimDuration::from_millis(5);
    let pace = SimDuration::from_millis(40);

    let mut tx: ReliableSender<u64> = ReliableSender::with_config(cfg);
    let mut rx: ReliableReceiver<u64> = ReliableReceiver::new();
    let mut rng = DetRng::new(seed);
    let mut bursty = false; // Gilbert–Elliott loss state

    // (arrival, seq, item) data in flight; (arrival, ack) acks in flight.
    let mut data: Vec<(SimTime, u64, u64)> = Vec::new();
    let mut acks: Vec<(SimTime, u64)> = Vec::new();
    let mut delivered = 0u64;
    let mut sent = 0u64;
    let mut next_send = SimTime::ZERO;
    let mut now = SimTime::ZERO;
    let deadline = SimTime::from_secs(120);

    let transmit = |now: SimTime,
                    seq: u64,
                    item: u64,
                    rng: &mut DetRng,
                    bursty: &mut bool,
                    data: &mut Vec<(SimTime, u64, u64)>| {
        // Two-state loss: ~0.5% in the good state, 35% in bursts; the
        // stationary mix averages ≈5%.
        *bursty = if *bursty { !rng.chance(0.20) } else { rng.chance(0.03) };
        let lost = rng.chance(if *bursty { 0.35 } else { 0.005 });
        if !lost {
            let one_way = (BASE_RTT_MS + rng.range_f64(-JITTER_MS, JITTER_MS)) / 2.0;
            data.push((now + SimDuration::from_millis_f64(one_way), seq, item));
        }
    };

    while now < deadline && (delivered < events || tx.in_flight() > 0 || tx.queued() > 0) {
        // Deliver due data, ack cumulatively over the reverse path.
        let mut arrived: Vec<(u64, u64)> = Vec::new();
        data.retain(|&(at, seq, item)| {
            if at <= now {
                arrived.push((seq, item));
                false
            } else {
                true
            }
        });
        arrived.sort_unstable();
        for (seq, item) in arrived {
            delivered += rx.on_packet(seq, item).len() as u64;
            if let Some(ack) = rx.cumulative_ack() {
                let one_way = (BASE_RTT_MS + rng.range_f64(-JITTER_MS, JITTER_MS)) / 2.0;
                acks.push((now + SimDuration::from_millis_f64(one_way), ack));
            }
        }
        let mut acked: Vec<u64> = Vec::new();
        acks.retain(|&(at, ack)| {
            if at <= now {
                acked.push(ack);
                false
            } else {
                true
            }
        });
        for ack in acked {
            tx.on_ack_at(ack, now);
        }

        // Original sends on the pacing clock.
        if sent < events && now >= next_send {
            let (seq, wire) = tx.send(sent, now);
            if let Some(item) = wire {
                transmit(now, seq, item, &mut rng, &mut bursty, &mut data);
            }
            sent += 1;
            next_send += pace;
        }
        // Retransmissions (and window admissions) on the pump clock.
        for (seq, item) in tx.due_retransmits(now) {
            transmit(now, seq, item, &mut rng, &mut bursty, &mut data);
        }
        now += step;
    }
    (delivered, tx.retransmission_count())
}

/// Runs both scenarios.
pub fn run(ctx: &RunCtx) -> Outcome {
    let quick = ctx.scale.is_quick();
    let seed = ctx.seed;
    let fault = measure_fault(quick, ctx);

    let events = if quick { 200 } else { 1000 };
    let rto_ms = SimDuration::from_millis(100);
    let mut rto = Vec::new();
    for (variant, cfg) in
        [("adaptive", ReliableConfig::adaptive(rto_ms)), ("fixed", ReliableConfig::fixed(rto_ms))]
    {
        let (delivered, retransmissions) = measure_rto(cfg, events, mix_seed(seed, 0xE14));
        rto.push(RtoRow {
            variant,
            delivered,
            retransmissions,
            retransmit_ratio: retransmissions as f64 / delivered.max(1) as f64,
        });
    }

    let mut table = Table::new(
        "E14: fault recovery (edge crash/restart + RTO policy under 5% burst loss)",
        &["measurement", "value"],
    );
    table.row_strings(vec!["detection latency".into(), format!("{:.0} ms", fault.detection_ms)]);
    table.row_strings(vec![
        "degradation".into(),
        format!("hold={} freeze={}", fault.held, fault.frozen),
    ]);
    table.row_strings(vec![
        "staleness at end of outage".into(),
        format!("{:.0} ms", fault.outage_staleness_ms),
    ]);
    table.row_strings(vec![
        "resync after restart".into(),
        format!("{} ({:.0} ms)", if fault.recovered { "yes" } else { "NO" }, fault.recovery_ms),
    ]);
    table.row_strings(vec![
        "post-recovery staleness".into(),
        format!("{:.0} ms", fault.post_staleness_ms),
    ]);
    for r in &rto {
        table.row_strings(vec![
            format!("{} RTO retransmits", r.variant),
            format!(
                "{} ({:.2}/event, {} delivered)",
                r.retransmissions, r.retransmit_ratio, r.delivered
            ),
        ]);
    }
    Outcome { fault, rto, table }
}

/// E14 as a sweepable [`Experiment`].
pub struct E14FaultRecovery;

impl Experiment for E14FaultRecovery {
    fn id(&self) -> &'static str {
        "e14"
    }

    fn title(&self) -> &'static str {
        "fault recovery: crash detection, degradation, resync"
    }

    fn run(&self, ctx: &RunCtx) -> Report {
        let out = run(ctx);
        let mut r = Report::new();
        let f = &out.fault;
        // Timings are NaN when the corresponding event never happened; a
        // missing scalar (count < seeds in the sweep stats) reports that
        // honestly, where NaN would poison every aggregate.
        for (key, v) in [
            ("detection_ms", f.detection_ms),
            ("outage_staleness_ms", f.outage_staleness_ms),
            ("recovery_ms", f.recovery_ms),
            ("post_staleness_ms", f.post_staleness_ms),
        ] {
            if v.is_finite() {
                r.scalar(key, v);
            }
        }
        r.flag("held", f.held);
        r.flag("frozen", f.frozen);
        r.flag("recovered", f.recovered);
        for row in &out.rto {
            let key = crate::slug(row.variant);
            r.scalar(format!("{key}_retransmit_ratio"), row.retransmit_ratio);
            r.metrics.add(&format!("{key}_delivered"), row.delivered);
            r.metrics.add(&format!("{key}_retransmissions"), row.retransmissions);
        }
        r.table(out.table);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn crash_is_detected_degraded_and_resynced() {
        let out = run(&RunCtx::new(Scale::Quick, 0));
        let hb = heartbeat(true);
        let f = &out.fault;
        // Detection within the heartbeat timeout plus polling slack.
        let bound_ms = (hb.timeout.as_secs_f64() + 0.1) * 1e3;
        assert!(
            f.detection_ms.is_finite() && f.detection_ms <= bound_ms,
            "detected in {} ms (bound {bound_ms} ms)",
            f.detection_ms
        );
        // Graceful degradation: hold first, freeze after the hold window —
        // never stale-state-presented-as-live.
        assert!(f.held, "avatar should dead-reckon (hold) right after detection");
        assert!(f.frozen, "avatar should freeze once the hold window elapses");
        // The outage made the avatar at least timeout+hold stale...
        assert!(
            f.outage_staleness_ms >= (hb.timeout + hb.hold).as_secs_f64() * 1e3,
            "outage staleness {} ms",
            f.outage_staleness_ms
        );
        // ...and the restart resync restored freshness.
        assert!(f.recovered, "survivor never saw a post-restart state");
        assert!(f.recovery_ms < 1_500.0, "recovery took {} ms", f.recovery_ms);
        assert!(f.post_staleness_ms < 500.0, "post-recovery staleness {} ms", f.post_staleness_ms);
    }

    #[test]
    fn adaptive_rto_retransmits_strictly_less_than_fixed() {
        let out = run(&RunCtx::new(Scale::Quick, 0));
        let adaptive = &out.rto[0];
        let fixed = &out.rto[1];
        assert_eq!(adaptive.variant, "adaptive");
        assert_eq!(adaptive.delivered, 200, "adaptive must deliver everything");
        assert_eq!(fixed.delivered, 200, "fixed must deliver everything");
        // The fixed 100 ms timeout sits below the channel's RTT tail, so it
        // retransmits spuriously; the estimator learns the tail.
        assert!(
            adaptive.retransmissions < fixed.retransmissions,
            "adaptive {} vs fixed {}",
            adaptive.retransmissions,
            fixed.retransmissions
        );
    }
}
