//! E10 — Synchronizing the three classrooms' clocks (§3.2).
//!
//! "These three classrooms are synchronized so that the intervention of a
//! participant in any of these classrooms will be visible to the attendants
//! in the other two." Synchronization needs a shared clock; this experiment
//! measures the NTP-style estimator's error against a *known injected skew*
//! across network jitter levels, and checks the error bound (half the best
//! RTT) actually holds.

use metaclass_netsim::{
    Context, EngineConfig, LinkConfig, LossModel, Node, NodeId, SimDuration, SimTime, Simulation,
    Timer,
};
use metaclass_sync::OffsetEstimator;

use crate::{mix_seed, Experiment, Report, RunCtx, Table};

#[derive(Debug, Clone)]
enum Msg {
    Probe { client_send: SimTime },
    Reply { client_send: SimTime, server_time: SimTime },
}

/// A server whose clock runs `skew` ahead of true simulation time.
struct SkewedServer {
    skew: SimDuration,
}
impl Node<Msg> for SkewedServer {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        if let Msg::Probe { client_send } = msg {
            let reply = Msg::Reply { client_send, server_time: ctx.now() + self.skew };
            ctx.send(from, reply, 48);
        }
    }
}

struct SyncClient {
    server: NodeId,
    estimator: OffsetEstimator,
    probes_left: u32,
}
const TAG_PROBE: u64 = 1;
impl Node<Msg> for SyncClient {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(SimDuration::from_millis(10), TAG_PROBE);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, timer: Timer) {
        if timer.tag != TAG_PROBE || self.probes_left == 0 {
            return;
        }
        self.probes_left -= 1;
        ctx.send(self.server, Msg::Probe { client_send: ctx.now() }, 48);
        if self.probes_left > 0 {
            ctx.set_timer(SimDuration::from_millis(250), TAG_PROBE);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        if let Msg::Reply { client_send, server_time } = msg {
            self.estimator.record(client_send, server_time, ctx.now());
        }
    }
}

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Link jitter sigma, ms.
    pub jitter_ms: f64,
    /// One-way delay, ms.
    pub one_way_ms: u64,
    /// Injected skew, ms.
    pub skew_ms: u64,
    /// Offset estimation error, microseconds.
    pub error_us: f64,
    /// The estimator's own uncertainty bound, microseconds.
    pub bound_us: f64,
}

/// Outcome of E10.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Measured rows.
    pub rows: Vec<Row>,
    /// Rendered table.
    pub table: Table,
}

fn measure(
    one_way_ms: u64,
    jitter_ms: f64,
    skew_ms: u64,
    probes: u32,
    seed: u64,
    engine: EngineConfig,
) -> Row {
    let mut sim: Simulation<Msg> = Simulation::with_config(seed, engine);
    let server = sim.add_node("server", SkewedServer { skew: SimDuration::from_millis(skew_ms) });
    let client = sim.add_node(
        "client",
        SyncClient { server, estimator: OffsetEstimator::new(64), probes_left: probes },
    );
    let cfg = LinkConfig::new(SimDuration::from_millis(one_way_ms))
        .with_jitter(SimDuration::from_millis_f64(jitter_ms))
        .with_loss(LossModel::Iid { p: 0.01 });
    sim.connect(client, server, cfg);
    sim.run_until_idle();
    let est = &sim.node_as::<SyncClient>(client).unwrap().estimator;
    let offset = est.offset_ns().expect("synced");
    let true_offset = (skew_ms * 1_000_000) as i64;
    Row {
        jitter_ms,
        one_way_ms,
        skew_ms,
        error_us: (offset - true_offset).abs() as f64 / 1e3,
        bound_us: est.uncertainty().expect("synced").as_nanos() as f64 / 1e3,
    }
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Outcome {
    let quick = ctx.scale.is_quick();
    let seed = ctx.seed;
    let probes = if quick { 30 } else { 120 };
    let jitters: &[f64] = if quick { &[0.5, 5.0] } else { &[0.1, 0.5, 1.0, 5.0, 20.0] };
    let one_ways: &[u64] = if quick { &[8] } else { &[2, 8, 60] };
    let mut rows = Vec::new();
    for &ow in one_ways {
        for &j in jitters {
            rows.push(measure(
                ow,
                j,
                40,
                probes,
                mix_seed(seed, 0xE10 ^ ow ^ (j * 10.0) as u64),
                ctx.engine,
            ));
        }
    }
    let mut table = Table::new(
        "E10: clock-sync error vs network jitter (injected skew 40 ms)",
        &["one-way (ms)", "jitter (ms)", "error (us)", "bound (us)", "within bound"],
    );
    for r in &rows {
        table.row_strings(vec![
            r.one_way_ms.to_string(),
            format!("{:.1}", r.jitter_ms),
            format!("{:.0}", r.error_us),
            format!("{:.0}", r.bound_us),
            if r.error_us <= r.bound_us { "yes".into() } else { "NO".into() },
        ]);
    }
    Outcome { rows, table }
}

/// E10 as a sweepable [`Experiment`].
pub struct E10ClockSync;

impl Experiment for E10ClockSync {
    fn id(&self) -> &'static str {
        "e10"
    }

    fn title(&self) -> &'static str {
        "clock-sync error vs network jitter"
    }

    fn run(&self, ctx: &RunCtx) -> Report {
        let out = run(ctx);
        let mut r = Report::new();
        for row in &out.rows {
            let key = format!("ow{}_j{}", row.one_way_ms, (row.jitter_ms * 10.0).round() as u64);
            r.scalar(format!("{key}_error_us"), row.error_us);
            r.scalar(format!("{key}_bound_us"), row.bound_us);
            r.flag(format!("{key}_within_bound"), row.error_us <= row.bound_us);
        }
        r.table(out.table);
        r
    }
}

#[cfg(test)]
mod tests {
    use crate::{RunCtx, Scale};

    #[test]
    fn skew_is_recovered_within_the_uncertainty_bound() {
        let out = super::run(&RunCtx::new(Scale::Quick, 0));
        for r in &out.rows {
            assert!(
                r.error_us <= r.bound_us,
                "jitter {} ms: error {} us exceeds bound {} us",
                r.jitter_ms,
                r.error_us,
                r.bound_us
            );
        }
        // Error grows with jitter but stays tiny vs the 100 ms budget.
        assert!(out.rows[0].error_us < out.rows[1].error_us * 10.0);
        for r in &out.rows {
            assert!(r.error_us < 20_000.0, "error {} us", r.error_us);
        }
    }
}
