//! E2 — The 100 ms interactivity rule.
//!
//! §3.3: "users start to notice latency above 100 ms. Besides, a latency
//! below 100 ms still affects user performance despite less noticeable"
//! (Claypool & Claypool). Sweeps end-to-end latency and reports per-action
//! performance, noticeability, and blended activity scores; the measured
//! column comes from real round trips over composed simulated links.

use metaclass_netsim::{
    Context, EngineConfig, LinkConfig, LossModel, Node, NodeId, SimDuration, SimTime, Simulation,
};
use metaclass_sync::{activity, blended_performance, is_noticeable, ActionClass};

use crate::{mix_seed, Experiment, Report, RunCtx, Table};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Nominal one-way latency, milliseconds.
    pub one_way_ms: u64,
    /// Measured mean RTT over the simulated link, milliseconds.
    pub measured_rtt_ms: f64,
    /// Performance per action class at the measured RTT.
    pub performance: Vec<(ActionClass, f64)>,
}

/// Outcome of E2.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Sweep points, ascending latency.
    pub points: Vec<Point>,
    /// Rendered tables.
    pub tables: Vec<Table>,
}

struct Echo;
impl Node<u32> for Echo {
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
        ctx.send(from, msg, 64);
    }
}

struct Prober {
    server: NodeId,
    pending: Option<SimTime>,
    rtts: Vec<SimDuration>,
    remaining: u32,
}
impl Node<u32> for Prober {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        self.pending = Some(ctx.now());
        ctx.send(self.server, 0, 64);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: NodeId, msg: u32) {
        if let Some(sent) = self.pending.take() {
            self.rtts.push(ctx.now().duration_since(sent));
        }
        if self.remaining > 0 {
            self.remaining -= 1;
            self.pending = Some(ctx.now());
            ctx.send(self.server, msg + 1, 64);
        }
    }
}

fn measure_rtt(one_way: SimDuration, probes: u32, seed: u64, engine: EngineConfig) -> f64 {
    let mut sim: Simulation<u32> = Simulation::with_config(seed, engine);
    let server = sim.add_node("server", Echo);
    let client = sim
        .add_node("client", Prober { server, pending: None, rtts: Vec::new(), remaining: probes });
    let cfg = LinkConfig::new(one_way)
        .with_jitter(one_way.mul_f64(0.05))
        .with_loss(LossModel::Iid { p: 0.0 });
    sim.connect(client, server, cfg);
    sim.run_until_idle();
    let rtts = &sim.node_as::<Prober>(client).unwrap().rtts;
    rtts.iter().map(|r| r.as_millis_f64()).sum::<f64>() / rtts.len() as f64
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Outcome {
    let quick = ctx.scale.is_quick();
    let seed = ctx.seed;
    let sweep: &[u64] =
        if quick { &[10, 50, 100, 200] } else { &[5, 10, 25, 50, 75, 100, 150, 200, 300, 400] };
    let probes = if quick { 20 } else { 200 };

    let mut per_action = Table::new(
        "E2a: user performance vs end-to-end latency (per action class)",
        &[
            "one-way (ms)",
            "RTT meas. (ms)",
            "noticeable",
            "head-track",
            "manipulate",
            "converse",
            "navigate",
            "deliberate",
        ],
    );
    let mut per_activity = Table::new(
        "E2b: blended performance per classroom activity",
        &["one-way (ms)", "lecture", "lab", "seminar"],
    );

    let mut points = Vec::new();
    for &ms in sweep {
        let rtt = measure_rtt(
            SimDuration::from_millis(ms),
            probes,
            mix_seed(seed, 0xE2 ^ ms),
            ctx.engine,
        );
        let lat = SimDuration::from_millis_f64(rtt);
        let perf: Vec<(ActionClass, f64)> =
            ActionClass::ALL.iter().map(|&a| (a, a.performance(lat))).collect();
        per_action.row_strings(vec![
            ms.to_string(),
            format!("{rtt:.1}"),
            if is_noticeable(lat) { "yes".into() } else { "no".into() },
            format!("{:.2}", perf[0].1),
            format!("{:.2}", perf[1].1),
            format!("{:.2}", perf[2].1),
            format!("{:.2}", perf[3].1),
            format!("{:.2}", perf[4].1),
        ]);
        per_activity.row_strings(vec![
            ms.to_string(),
            format!("{:.2}", blended_performance(lat, &activity::LECTURE)),
            format!("{:.2}", blended_performance(lat, &activity::LAB)),
            format!("{:.2}", blended_performance(lat, &activity::SEMINAR)),
        ]);
        points.push(Point { one_way_ms: ms, measured_rtt_ms: rtt, performance: perf });
    }

    Outcome { points, tables: vec![per_action, per_activity] }
}

/// E2 as a sweepable [`Experiment`].
pub struct E2LatencyThreshold;

impl Experiment for E2LatencyThreshold {
    fn id(&self) -> &'static str {
        "e2"
    }

    fn title(&self) -> &'static str {
        "user performance vs end-to-end latency (100 ms rule)"
    }

    fn run(&self, ctx: &RunCtx) -> Report {
        let out = run(ctx);
        let mut r = Report::new();
        for p in &out.points {
            let key = format!("rtt_ms_at_{}ms", p.one_way_ms);
            r.scalar(key, p.measured_rtt_ms);
            for (action, perf) in &p.performance {
                r.scalar(
                    format!("perf_{}_at_{}ms", crate::slug(&format!("{action:?}")), p.one_way_ms),
                    *perf,
                );
            }
        }
        for t in out.tables {
            r.table(t);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn performance_degrades_across_the_sweep() {
        let out = run(&RunCtx::new(Scale::Quick, 0));
        assert_eq!(out.points.len(), 4);
        // Measured RTT tracks 2x the nominal one-way latency.
        for p in &out.points {
            let expected = 2.0 * p.one_way_ms as f64;
            assert!(
                (p.measured_rtt_ms - expected).abs() / expected < 0.2,
                "one-way {} ms measured {:.1}",
                p.one_way_ms,
                p.measured_rtt_ms
            );
        }
        // Head tracking collapses across the sweep; deliberate barely moves.
        let first = &out.points.first().unwrap().performance;
        let last = &out.points.last().unwrap().performance;
        assert!(first[0].1 - last[0].1 > 0.5);
        assert!(first[4].1 - last[4].1 < 0.1);
    }
}
