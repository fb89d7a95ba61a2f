//! E4 — Regional servers for a worldwide class (§3.3).
//!
//! "Most gaming platforms solve this issue by setting up regional servers."
//! Distributes a worldwide learner population and compares a single central
//! cloud against regional points of presence: each learner's RTT is measured
//! with real probe exchanges over simulated access + backbone links.

use metaclass_core::{Activity, SessionBuilder};
use metaclass_netsim::{
    Context, DetRng, EngineConfig, Histogram, LinkClass, LinkConfig, Node, NodeId,
    PopulationProfile, Region, SimDuration, SimTime, Simulation,
};

use crate::{mix_seed, Experiment, Report, RunCtx, Table};

/// Server placement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// One cloud in East Asia (next to the campuses).
    Central,
    /// A point of presence in every region; learners attach to the nearest.
    Regional,
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Placement::Central => "central",
            Placement::Regional => "regional",
        })
    }
}

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Placement strategy.
    pub placement: Placement,
    /// Learner population.
    pub learners: u32,
    /// Median RTT to the serving node, ms.
    pub p50_rtt_ms: f64,
    /// 99th-percentile RTT, ms.
    pub p99_rtt_ms: f64,
    /// Fraction of learners with RTT under the 100 ms interactivity bar.
    pub under_100ms: f64,
    /// Full per-learner mean-RTT distribution (nanoseconds), mergeable
    /// across sweep runs.
    pub rtt_hist: Histogram,
}

/// One planet-tier row: the same worldwide audience, modeled as flyweight
/// pools, fanned out from one central cloud vs per-region points of
/// presence.
#[derive(Debug, Clone)]
pub struct PooledRow {
    /// Placement strategy.
    pub placement: Placement,
    /// Pooled population across all regions.
    pub population: u64,
    /// Total fan-out egress across every serving cloud, Mbit/s.
    pub egress_mbps: f64,
    /// Largest single-cloud egress, Mbit/s (equals the total for the
    /// central placement; the regional win is spreading this peak).
    pub max_site_egress_mbps: f64,
    /// p99 capture→pooled-member display latency, ms, member-weighted
    /// across every region.
    pub p99_display_ms: f64,
}

/// Outcome of E4.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Measured rows.
    pub rows: Vec<Row>,
    /// Planet-tier rows (pooled populations).
    pub pooled_rows: Vec<PooledRow>,
    /// Rendered tables.
    pub tables: Vec<Table>,
}

/// Worldwide enrolment mix (share per region) for an online course taught
/// from Hong Kong. Shared with E3's pooled planet tier so both experiments
/// model the same audience.
pub const ENROLMENT: [(Region, f64); 8] = [
    (Region::EastAsia, 0.30),
    (Region::SoutheastAsia, 0.15),
    (Region::SouthAsia, 0.15),
    (Region::Europe, 0.12),
    (Region::NorthAmerica, 0.12),
    (Region::SouthAmerica, 0.06),
    (Region::Oceania, 0.05),
    (Region::Africa, 0.05),
];

/// Deterministically splits a worldwide population across the enrolment
/// mix: each region gets the floor of its share and East Asia (the largest
/// share, hosting the campuses) absorbs the rounding remainder, so the
/// regional member counts always sum to exactly `population`.
pub fn regional_split(population: u64) -> Vec<(Region, u64)> {
    let mut split: Vec<(Region, u64)> =
        ENROLMENT.iter().map(|&(r, share)| (r, (population as f64 * share) as u64)).collect();
    let assigned: u64 = split.iter().map(|&(_, n)| n).sum();
    split[0].1 += population - assigned;
    split
}

struct EchoServer;
impl Node<u64> for EchoServer {
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, msg: u64) {
        ctx.send(from, msg, 64);
    }
}

struct ProbeClient {
    server: NodeId,
    sent_at: SimTime,
    probes_left: u32,
    rtts: Vec<SimDuration>,
}
impl Node<u64> for ProbeClient {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.sent_at = ctx.now();
        ctx.send(self.server, 0, 64);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
        self.rtts.push(ctx.now().duration_since(self.sent_at));
        if self.probes_left > 0 {
            self.probes_left -= 1;
            self.sent_at = ctx.now();
            ctx.send(self.server, msg + 1, 64);
        }
    }
}

/// A learner's access link to a server in `server_region`: residential last
/// mile plus the regional backbone.
fn access_link(learner: Region, server_region: Region) -> LinkConfig {
    let base = LinkClass::ResidentialAccess.config();
    let backbone = learner.one_way_ms(server_region);
    LinkConfig::new(base.delay() + SimDuration::from_millis(backbone))
        .with_jitter(base.jitter_std() + SimDuration::from_millis_f64(backbone as f64 * 0.05))
        .with_loss(base.loss())
        .with_bandwidth_bps(100_000_000)
}

fn measure(placement: Placement, learners: u32, seed: u64, engine: EngineConfig) -> Row {
    let mut rng = DetRng::new(seed);
    let mut sim: Simulation<u64> = Simulation::with_config(seed, engine);

    // Servers.
    let server_regions: Vec<Region> = match placement {
        Placement::Central => vec![Region::EastAsia],
        Placement::Regional => Region::ALL.to_vec(),
    };
    let servers: Vec<NodeId> =
        server_regions.iter().map(|r| sim.add_node(format!("server-{r}"), EchoServer)).collect();

    // Learners, sampled from the enrolment mix.
    let mut clients = Vec::new();
    for _ in 0..learners {
        let roll = rng.next_f64();
        let mut acc = 0.0;
        let mut region = Region::EastAsia;
        for (r, share) in ENROLMENT {
            acc += share;
            if roll < acc {
                region = r;
                break;
            }
        }
        let nearest = region.nearest_of(&server_regions).expect("non-empty");
        let server = servers[server_regions.iter().position(|r| *r == nearest).expect("found")];
        let client = sim.add_node(
            format!("learner-{}", clients.len()),
            ProbeClient { server, sent_at: SimTime::ZERO, probes_left: 8, rtts: Vec::new() },
        );
        sim.connect(client, server, access_link(region, nearest));
        clients.push(client);
    }

    sim.run_until_idle();

    let mut hist = Histogram::new();
    let mut under = 0u32;
    for &c in &clients {
        let rtts = &sim.node_as::<ProbeClient>(c).unwrap().rtts;
        let mean = rtts.iter().map(|r| r.as_nanos()).sum::<u64>() / rtts.len().max(1) as u64;
        hist.record(mean);
        if mean < 100_000_000 {
            under += 1;
        }
    }
    Row {
        placement,
        learners,
        p50_rtt_ms: hist.percentile(50.0) as f64 / 1e6,
        p99_rtt_ms: hist.percentile(99.0) as f64 / 1e6,
        under_100ms: under as f64 / learners as f64,
        rtt_hist: hist,
    }
}

/// One classroom session serving `pools` (region, members) as flyweight
/// pools from a cloud in `cloud_region`, with the campus content origin in
/// East Asia. Returns (egress bits/s, member-weighted display histogram).
fn pooled_session(
    cloud_region: Region,
    pools: &[(Region, u64)],
    secs: u64,
    seed: u64,
    ctx: &RunCtx,
) -> (f64, Histogram) {
    let total: u64 = pools.iter().map(|&(_, n)| n).sum();
    let tracers: u32 = if ctx.scale.is_quick() { 2 } else { 8 };
    let mut server = metaclass_core::SessionConfig::default().server;
    // Provision admission for the whole flash crowd; the experiment
    // measures placement, not admission throttling.
    server.overload.admission.burst = total.min(u32::MAX as u64) as u32;
    server.overload.admission.waiting_room = usize::try_from(total).unwrap_or(usize::MAX).max(4096);
    let mut builder = SessionBuilder::new()
        .seed(seed)
        .engine_config(ctx.engine)
        .activity(Activity::Lecture)
        .cloud_region(cloud_region)
        .campus("CWB", Region::EastAsia, 4, true)
        .server_config(server);
    for &(region, members) in pools {
        if members == 0 {
            continue;
        }
        builder = builder.population(
            region,
            members,
            tracers.min(members.min(u32::MAX as u64) as u32),
            LinkClass::ResidentialAccess,
            PopulationProfile::flash_crowd(
                SimTime::from_millis(200),
                SimDuration::from_millis(500),
            ),
        );
    }
    let mut session = builder.build();
    session.run_for(SimDuration::from_secs(secs));
    let report = session.report();
    let hist = session
        .sim()
        .metrics()
        .histogram_if_present("pool.display_latency_ns")
        .cloned()
        .unwrap_or_default();
    (report.fanout_bandwidth_bps(), hist)
}

/// The planet tier: the full enrolment mix as pools, central vs regional.
fn measure_pooled(placement: Placement, population: u64, secs: u64, ctx: &RunCtx) -> PooledRow {
    let split = regional_split(population);
    let seed = mix_seed(ctx.seed, 0x9004_0000 ^ population);
    let mut total_bps = 0.0;
    let mut max_site_bps = 0.0f64;
    let mut hist = Histogram::new();
    match placement {
        Placement::Central => {
            let (bps, h) = pooled_session(Region::EastAsia, &split, secs, seed, ctx);
            total_bps = bps;
            max_site_bps = bps;
            hist = h;
        }
        Placement::Regional => {
            for (i, &(region, members)) in split.iter().enumerate() {
                if members == 0 {
                    continue;
                }
                let (bps, h) = pooled_session(
                    region,
                    &[(region, members)],
                    secs,
                    seed ^ (i as u64) << 48,
                    ctx,
                );
                total_bps += bps;
                max_site_bps = max_site_bps.max(bps);
                hist.merge(&h);
            }
        }
    }
    PooledRow {
        placement,
        population,
        egress_mbps: total_bps / 1e6,
        max_site_egress_mbps: max_site_bps / 1e6,
        p99_display_ms: hist.percentile(99.0) as f64 / 1e6,
    }
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Outcome {
    let quick = ctx.scale.is_quick();
    let learners = if quick { 200 } else { 2000 };
    let rows = vec![
        measure(Placement::Central, learners, mix_seed(ctx.seed, 0xE4), ctx.engine),
        measure(Placement::Regional, learners, mix_seed(ctx.seed, 0xE4), ctx.engine),
    ];

    // Planet tier: the same worldwide audience as flyweight pools. Quick
    // scale keeps one population (100k) so CI stays inside its wall-clock
    // budget while still exercising planet scale on every run.
    let planet: &[u64] = if quick { &[100_000] } else { &[10_000, 100_000, 1_000_000] };
    let secs = if quick { 3 } else { 10 };
    let mut pooled_rows = Vec::new();
    for &n in planet {
        pooled_rows.push(measure_pooled(Placement::Central, n, secs, ctx));
        pooled_rows.push(measure_pooled(Placement::Regional, n, secs, ctx));
    }
    let mut table = Table::new(
        "E4: worldwide learner RTT — central cloud vs regional servers",
        &["placement", "learners", "p50 RTT (ms)", "p99 RTT (ms)", "< 100 ms"],
    );
    for r in &rows {
        table.row_strings(vec![
            r.placement.to_string(),
            r.learners.to_string(),
            format!("{:.1}", r.p50_rtt_ms),
            format!("{:.1}", r.p99_rtt_ms),
            format!("{:.0}%", r.under_100ms * 100.0),
        ]);
    }
    let mut planet_table = Table::new(
        "E4 planet tier: pooled worldwide audience — central vs regional egress",
        &["placement", "population", "egress (Mbit/s)", "max site (Mbit/s)", "p99 display (ms)"],
    );
    for r in &pooled_rows {
        planet_table.row_strings(vec![
            r.placement.to_string(),
            r.population.to_string(),
            format!("{:.2}", r.egress_mbps),
            format!("{:.2}", r.max_site_egress_mbps),
            format!("{:.1}", r.p99_display_ms),
        ]);
    }
    Outcome { rows, pooled_rows, tables: vec![table, planet_table] }
}

/// E4 as a sweepable [`Experiment`].
pub struct E4RegionalServers;

impl Experiment for E4RegionalServers {
    fn id(&self) -> &'static str {
        "e4"
    }

    fn title(&self) -> &'static str {
        "worldwide learner RTT: central cloud vs regional servers"
    }

    fn run(&self, ctx: &RunCtx) -> Report {
        let out = run(ctx);
        let mut r = Report::new();
        for row in &out.rows {
            let prefix = crate::slug(&row.placement.to_string());
            r.scalar(format!("{prefix}_p50_rtt_ms"), row.p50_rtt_ms);
            r.scalar(format!("{prefix}_p99_rtt_ms"), row.p99_rtt_ms);
            r.scalar(format!("{prefix}_under_100ms"), row.under_100ms);
            // The raw distributions merge bucket-wise across sweep runs, so
            // the sweep's merged snapshot holds the pooled population.
            r.metrics.histogram(&format!("{prefix}_rtt_ns")).merge(&row.rtt_hist);
            r.metrics.add(&format!("{prefix}_learners"), row.learners as u64);
        }
        for row in &out.pooled_rows {
            let prefix =
                format!("{}_pooled_{}", crate::slug(&row.placement.to_string()), row.population);
            r.scalar(format!("{prefix}_egress_mbps"), row.egress_mbps);
            r.scalar(format!("{prefix}_max_site_egress_mbps"), row.max_site_egress_mbps);
            r.scalar(format!("{prefix}_p99_display_ms"), row.p99_display_ms);
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
    fn regional_placement_cuts_tail_latency() {
        let out = run(&RunCtx::new(Scale::Quick, 0));
        let central = &out.rows[0];
        let regional = &out.rows[1];
        assert!(
            regional.p99_rtt_ms < central.p99_rtt_ms / 2.0,
            "regional p99 {} vs central {}",
            regional.p99_rtt_ms,
            central.p99_rtt_ms
        );
        assert!(regional.p50_rtt_ms < central.p50_rtt_ms);
        assert!(regional.under_100ms > central.under_100ms);
        assert!(
            regional.under_100ms > 0.95,
            "regional serves {:.2} under 100 ms",
            regional.under_100ms
        );
    }

    #[test]
    fn pooled_planet_tier_spreads_peak_egress_across_sites() {
        let out = run(&RunCtx::new(Scale::Quick, 0));
        assert_eq!(out.pooled_rows.len(), 2, "quick runs one planet population, two placements");
        let central = &out.pooled_rows[0];
        let regional = &out.pooled_rows[1];
        assert_eq!(central.population, 100_000);
        assert_eq!(central.placement, Placement::Central);
        assert_eq!(regional.placement, Placement::Regional);
        assert!(central.egress_mbps > 0.0, "central cloud fanned out to the pools");
        assert!(
            (central.max_site_egress_mbps - central.egress_mbps).abs() < 1e-9,
            "one central cloud carries all egress"
        );
        // The regional win at planet scale: no single point of presence
        // carries more than the largest regional share of the egress.
        assert!(
            regional.max_site_egress_mbps < 0.6 * central.egress_mbps,
            "regional peak {} Mbit/s vs central total {} Mbit/s",
            regional.max_site_egress_mbps,
            central.egress_mbps
        );
        assert!(central.p99_display_ms > 0.0);
        assert!(regional.p99_display_ms > 0.0);
    }
}
