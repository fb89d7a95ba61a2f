//! E1 — The Figure-3 architecture, end to end (also reproduces Figure 2's
//! unit case).
//!
//! Builds the paper's unit case — HKUST CWB + GZ classrooms and the cloud VR
//! classroom with worldwide remote learners — runs a lecture, and reports the
//! measured per-path latency distributions next to the analytic per-hop
//! budgets.

use metaclass_core::{
    mr_to_mr_budget, mr_to_vr_budget, vr_to_mr_budget, Activity, SessionBuilder, SessionReport,
};
use metaclass_edge::ServerConfig;
use metaclass_netsim::{LinkClass, Region, SimDuration};

use crate::{mix_seed, Experiment, Report, RunCtx, Table};

/// Outcome of E1.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The session's measured report.
    pub report: SessionReport,
    /// Rendered tables.
    pub tables: Vec<Table>,
}

/// Runs the experiment. [`crate::Scale::Quick`] shrinks the roster and
/// duration for tests; `ctx.seed` perturbs every random stream (seed 0
/// reproduces the historical single-run numbers exactly).
pub fn run(ctx: &RunCtx) -> Outcome {
    let quick = ctx.scale.is_quick();
    let seed = ctx.seed;
    let (students, secs) = if quick { (4, 5) } else { (16, 60) };
    let mut session = SessionBuilder::new()
        .seed(mix_seed(seed, 2022))
        .engine_config(ctx.engine)
        .activity(Activity::Lecture)
        .cloud_region(Region::EastAsia)
        .campus("HKUST-CWB", Region::EastAsia, students, true)
        .campus("HKUST-GZ", Region::EastAsia, students, false)
        .remote_cohort(Region::EastAsia, if quick { 2 } else { 6 }, LinkClass::ResidentialAccess)
        .remote_cohort(Region::Europe, if quick { 1 } else { 4 }, LinkClass::ResidentialAccess)
        .remote_cohort(
            Region::NorthAmerica,
            if quick { 1 } else { 4 },
            LinkClass::ResidentialAccess,
        )
        .build();
    session.run_for(SimDuration::from_secs(secs));
    let report = session.report();

    let tick = SimDuration::from_rate_hz(ServerConfig::TICK_HZ);
    let mut analytic = Table::new(
        "E1a: analytic per-path motion-to-photon budgets (Figure 3)",
        &["path", "budget (ms)"],
    );
    let paths = [
        mr_to_mr_budget(Region::EastAsia, Region::EastAsia, tick),
        mr_to_vr_budget(Region::EastAsia, Region::EastAsia, Region::EastAsia, tick),
        mr_to_vr_budget(Region::EastAsia, Region::EastAsia, Region::Europe, tick),
        mr_to_vr_budget(Region::EastAsia, Region::EastAsia, Region::NorthAmerica, tick),
        vr_to_mr_budget(Region::Europe, Region::EastAsia, Region::EastAsia),
    ];
    for p in &paths {
        analytic.row_strings(vec![p.name.clone(), format!("{:.1}", p.total().as_millis_f64())]);
    }

    let mut measured = Table::new(
        "E1b: measured latencies (unit case lecture)",
        &["path", "n", "p50 (ms)", "p90 (ms)", "p99 (ms)"],
    );
    for (name, s) in [
        ("sensor -> edge ingestion", &report.sensor_latency),
        ("edge -> peer edge (inter-campus)", &report.inter_campus_latency),
        ("capture -> MR display", &report.mr_display_latency),
        ("capture -> VR client display", &report.vr_display_latency),
    ] {
        measured.row_strings(vec![
            name.to_string(),
            s.count.to_string(),
            format!("{:.1}", s.p50 as f64 / 1e6),
            format!("{:.1}", s.p90 as f64 / 1e6),
            format!("{:.1}", s.p99 as f64 / 1e6),
        ]);
    }

    let mut traffic = Table::new("E1c: replication traffic", &["metric", "value"]);
    traffic.row_strings(vec!["avatar updates sent".into(), report.updates_sent.to_string()]);
    traffic.row_strings(vec![
        "dead-reckoning suppression".into(),
        format!("{:.0}%", report.suppression_ratio() * 100.0),
    ]);
    traffic.row_strings(vec![
        "edge replication bandwidth".into(),
        format!("{:.0} kbit/s", report.replication_bandwidth_bps() / 1e3),
    ]);
    traffic.row_strings(vec![
        "cloud fan-out bandwidth".into(),
        format!("{:.0} kbit/s", report.fanout_bandwidth_bps() / 1e3),
    ]);
    traffic.row_strings(vec![
        "network delivery ratio".into(),
        format!("{:.2}%", report.delivery_ratio() * 100.0),
    ]);

    Outcome { report, tables: vec![analytic, measured, traffic] }
}

/// E1 as a sweepable [`Experiment`].
pub struct E1Architecture;

impl Experiment for E1Architecture {
    fn id(&self) -> &'static str {
        "e1"
    }

    fn title(&self) -> &'static str {
        "Figure-3 architecture end to end (unit case lecture)"
    }

    fn run(&self, ctx: &RunCtx) -> Report {
        let out = run(ctx);
        let mut r = Report::new();
        let rep = &out.report;
        r.scalar("updates_sent", rep.updates_sent as f64);
        r.scalar("suppression_ratio", rep.suppression_ratio());
        r.scalar("replication_kbps", rep.replication_bandwidth_bps() / 1e3);
        r.scalar("fanout_kbps", rep.fanout_bandwidth_bps() / 1e3);
        r.scalar("delivery_ratio", rep.delivery_ratio());
        for (path, s) in [
            ("mr_display", &rep.mr_display_latency),
            ("vr_display", &rep.vr_display_latency),
            ("sensor_ingest", &rep.sensor_latency),
            ("inter_campus", &rep.inter_campus_latency),
        ] {
            r.scalar(format!("{path}_p50_ms"), s.p50 as f64 / 1e6);
            r.scalar(format!("{path}_p99_ms"), s.p99 as f64 / 1e6);
        }
        for t in out.tables {
            r.table(t);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use crate::{RunCtx, Scale};

    #[test]
    fn quick_run_produces_sane_numbers() {
        let out = super::run(&RunCtx::new(Scale::Quick, 0));
        assert!(out.report.updates_sent > 0);
        assert!(out.report.mr_display_latency.count > 0);
        assert!(out.report.vr_display_latency.count > 0);
        // Intra-Asia MR path within the interactivity budget.
        assert!(out.report.mr_display_latency.p50 < 100_000_000);
        assert_eq!(out.tables.len(), 3);
    }
}
