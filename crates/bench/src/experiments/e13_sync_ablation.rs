//! E13 — Ablation: which synchronization mechanism buys what.
//!
//! E3 compares the full stack against a fully naive baseline; this ablation
//! removes one mechanism at a time — dead reckoning, delta coding, interest
//! management — and measures what each contributes to the bandwidth budget
//! of the same seminar.

use metaclass_core::{Activity, SessionBuilder, SessionConfig};
use metaclass_edge::FanoutConfig;
use metaclass_netsim::{LinkClass, Region, SimDuration};
use metaclass_sync::{DeadReckoningConfig, InterestConfig};

use crate::{mix_seed, Experiment, Report, RunCtx, Table};

/// Which mechanism is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Everything on (the production stack).
    Full,
    /// Dead reckoning off: every estimate is sent, still delta-coded.
    NoDeadReckoning,
    /// Delta coding off: every frame is a keyframe, DR still filters.
    NoDeltas,
    /// Interest management off: unlimited fan-out budget and radius.
    NoInterest,
    /// Everything off (the E3 naive baseline, for reference).
    NoneOfIt,
}

impl Variant {
    /// All variants, full stack first.
    pub const ALL: [Variant; 5] = [
        Variant::Full,
        Variant::NoDeadReckoning,
        Variant::NoDeltas,
        Variant::NoInterest,
        Variant::NoneOfIt,
    ];
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Variant::Full => "full stack",
            Variant::NoDeadReckoning => "- dead reckoning",
            Variant::NoDeltas => "- delta coding",
            Variant::NoInterest => "- interest mgmt",
            Variant::NoneOfIt => "none (naive)",
        })
    }
}

/// One ablation row.
#[derive(Debug, Clone)]
pub struct Row {
    /// The variant measured.
    pub variant: Variant,
    /// Edge replication bandwidth, kbit/s.
    pub replication_kbps: f64,
    /// Cloud fan-out per client, kbit/s.
    pub per_client_kbps: f64,
    /// Relative cost vs the full stack (fan-out).
    pub cost_factor: f64,
}

/// Outcome of E13.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Measured rows, [Variant::ALL] order.
    pub rows: Vec<Row>,
    /// Rendered table.
    pub table: Table,
}

fn always_send() -> DeadReckoningConfig {
    DeadReckoningConfig {
        position_threshold: 0.0,
        orientation_threshold_deg: 0.0,
        hand_threshold: 0.0,
        expression_threshold: 0.0,
        max_interval: SimDuration::from_millis(1),
    }
}

fn no_interest() -> InterestConfig {
    InterestConfig { radius: 10_000.0 }
}

fn measure(variant: Variant, clients: u32, secs: u64, ctx: &RunCtx) -> (f64, f64) {
    let mut cfg = SessionConfig::default();
    match variant {
        Variant::Full => {}
        Variant::NoDeadReckoning => {
            cfg.server.dead_reckoning = always_send();
            cfg.client.dead_reckoning = always_send();
        }
        Variant::NoDeltas => {
            cfg.server.keyframe_interval = 1;
        }
        Variant::NoInterest => {
            cfg.fanout =
                FanoutConfig { budget_per_client: clients as usize + 16, interest: no_interest() };
        }
        Variant::NoneOfIt => {
            cfg.server.dead_reckoning = always_send();
            cfg.client.dead_reckoning = always_send();
            cfg.server.keyframe_interval = 1;
            cfg.fanout =
                FanoutConfig { budget_per_client: clients as usize + 16, interest: no_interest() };
        }
    }
    let mut session = SessionBuilder::new()
        .seed(mix_seed(ctx.seed, 0xE13))
        .engine_config(ctx.engine)
        .activity(Activity::Seminar)
        .server_config(cfg.server)
        .client_config(cfg.client)
        .fanout_config(cfg.fanout)
        .campus("CWB", Region::EastAsia, 6, true)
        .remote_cohort(Region::EastAsia, clients, LinkClass::ResidentialAccess)
        .build();
    session.run_for(SimDuration::from_secs(secs));
    let report = session.report();
    (report.replication_bandwidth_bps() / 1e3, report.fanout_bandwidth_bps() / clients as f64 / 1e3)
}

/// Runs the ablation.
pub fn run(ctx: &RunCtx) -> Outcome {
    let quick = ctx.scale.is_quick();
    let (clients, secs) = if quick { (20, 3) } else { (100, 10) };
    let mut rows = Vec::new();
    let mut full_per_client = 0.0;
    for variant in Variant::ALL {
        let (replication_kbps, per_client_kbps) = measure(variant, clients, secs, ctx);
        if variant == Variant::Full {
            full_per_client = per_client_kbps;
        }
        rows.push(Row {
            variant,
            replication_kbps,
            per_client_kbps,
            cost_factor: per_client_kbps / full_per_client.max(1e-9),
        });
    }
    let mut table = Table::new(
        format!("E13: sync-mechanism ablation ({clients} remote learners)"),
        &["variant", "edge replication (kbit/s)", "per-client fan-out (kbit/s)", "vs full"],
    );
    for r in &rows {
        table.row_strings(vec![
            r.variant.to_string(),
            format!("{:.0}", r.replication_kbps),
            format!("{:.1}", r.per_client_kbps),
            format!("{:.2}x", r.cost_factor),
        ]);
    }
    Outcome { rows, table }
}

/// E13 as a sweepable [`Experiment`].
pub struct E13SyncAblation;

impl Experiment for E13SyncAblation {
    fn id(&self) -> &'static str {
        "e13"
    }

    fn title(&self) -> &'static str {
        "sync-mechanism ablation: what each mechanism buys"
    }

    fn run(&self, ctx: &RunCtx) -> Report {
        let out = run(ctx);
        let mut r = Report::new();
        for row in &out.rows {
            let key = crate::slug(&row.variant.to_string());
            r.scalar(format!("{key}_replication_kbps"), row.replication_kbps);
            r.scalar(format!("{key}_per_client_kbps"), row.per_client_kbps);
            r.scalar(format!("{key}_cost_factor"), row.cost_factor);
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
    fn mechanism_contributions_match_their_roles() {
        let out = run(&RunCtx::new(Scale::Quick, 0));
        let by = |v: Variant| out.rows.iter().find(|r| r.variant == v).expect("present");
        let full = by(Variant::Full);
        // Dead reckoning is the big lever: removing it roughly doubles
        // replication traffic.
        assert!(
            by(Variant::NoDeadReckoning).replication_kbps > 1.5 * full.replication_kbps,
            "DR: {} vs {}",
            by(Variant::NoDeadReckoning).replication_kbps,
            full.replication_kbps
        );
        // Delta coding's marginal saving *after* DR is small (when DR decides
        // to send, most fields have changed), but never negative.
        assert!(
            by(Variant::NoDeltas).replication_kbps >= full.replication_kbps,
            "deltas: {} vs {}",
            by(Variant::NoDeltas).replication_kbps,
            full.replication_kbps
        );
        // Interest management binds at large populations (see E3), not at
        // this scale — removing it must not *reduce* cost.
        assert!(
            by(Variant::NoInterest).per_client_kbps >= full.per_client_kbps * 0.99,
            "interest: {} vs {}",
            by(Variant::NoInterest).per_client_kbps,
            full.per_client_kbps
        );
        // The naive baseline is the worst of all.
        let naive = by(Variant::NoneOfIt);
        for r in &out.rows {
            assert!(naive.per_client_kbps >= r.per_client_kbps * 0.99, "{}", r.variant);
        }
        assert!(naive.per_client_kbps > 1.8 * full.per_client_kbps);
    }
}
