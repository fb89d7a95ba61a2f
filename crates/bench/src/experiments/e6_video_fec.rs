//! E6 — Low-latency classroom video: FEC vs retransmission (§3.3).
//!
//! "Maximizing video quality while minimizing latency … solutions leveraging
//! joint source coding and forward error correction at the application level
//! are presenting promising results" (the Nebula result, ref \[4\]). Streams a
//! lecture camera over lossy simulated links and compares plain UDP,
//! Reed–Solomon FEC at two overheads, and a selective-repeat ARQ baseline on
//! deadline hit rate and delivered legibility.

use std::collections::BTreeMap;

use metaclass_media::{
    legibility_after_stalls, legibility_score, shard_frame, ArqConfig, ArqFrameReceiver,
    ArqFrameSender, FecConfig, FrameAssembler, FrameShard, VideoConfig, VideoSource,
};
use metaclass_netsim::{
    Context, EngineConfig, LinkConfig, LossModel, Node, NodeId, SimDuration, SimTime, Simulation,
    Timer,
};

use crate::{mix_seed, Experiment, Report, RunCtx, Table};

/// The transport scheme under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Plain UDP: a lost shard loses its frame.
    None,
    /// Reed–Solomon FEC with the given parity shards over 8 data shards.
    Fec {
        /// Parity shards (overhead = parity/8).
        parity: usize,
    },
    /// Selective-repeat retransmission.
    Arq,
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheme::None => write!(f, "udp"),
            Scheme::Fec { parity } => write!(f, "fec-8+{parity}"),
            Scheme::Arq => write!(f, "arq"),
        }
    }
}

#[derive(Debug, Clone)]
enum VideoMsg {
    Shard(FrameShard, SimTime),
    ArqData { frame_id: u64, index: u16, packets_in_frame: u16, captured_at: SimTime },
    ArqAck { frame_id: u64, index: u16 },
}

const TAG_FRAME: u64 = 1;
const TAG_ARQ_TICK: u64 = 2;
const SHARD_DATA: usize = 8;
const ARQ_MTU: u32 = 1200;

struct FecSender {
    receiver: NodeId,
    source: VideoSource,
    fec: Option<FecConfig>,
    frames_left: u32,
    bytes_sent: u64,
}

impl Node<VideoMsg> for FecSender {
    fn on_start(&mut self, ctx: &mut Context<'_, VideoMsg>) {
        ctx.set_timer(SimDuration::ZERO, TAG_FRAME);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, VideoMsg>, timer: Timer) {
        if timer.tag != TAG_FRAME || self.frames_left == 0 {
            return;
        }
        self.frames_left -= 1;
        let frame = self.source.next_frame();
        let data = vec![0xABu8; frame.bytes as usize];
        let cfg = self.fec.unwrap_or(FecConfig { data_shards: SHARD_DATA, parity_shards: 0 });
        let shards = shard_frame(frame.id, &data, cfg).expect("valid fec config");
        for s in shards {
            let size = s.wire_bytes() as u32 + 28;
            self.bytes_sent += size as u64;
            ctx.send(self.receiver, VideoMsg::Shard(s, ctx.now()), size);
        }
        if self.frames_left > 0 {
            ctx.set_timer(self.source.config().frame_period(), TAG_FRAME);
        }
    }
    fn on_message(&mut self, _: &mut Context<'_, VideoMsg>, _: NodeId, _: VideoMsg) {}
}

struct FecReceiver {
    assembler: FrameAssembler,
    /// frame id → (capture time, delivery time).
    delivered: BTreeMap<u64, (SimTime, SimTime)>,
    captures: BTreeMap<u64, SimTime>,
}

impl Node<VideoMsg> for FecReceiver {
    fn on_message(&mut self, ctx: &mut Context<'_, VideoMsg>, _: NodeId, msg: VideoMsg) {
        if let VideoMsg::Shard(shard, captured_at) = msg {
            self.captures.entry(shard.frame_id).or_insert(captured_at);
            if let Ok(Some((id, _))) = self.assembler.ingest(shard) {
                self.delivered.insert(id, (captured_at, ctx.now()));
            }
        }
    }
}

struct ArqSenderNode {
    receiver: NodeId,
    source: VideoSource,
    frames_left: u32,
    active: BTreeMap<u64, ArqFrameSender>,
    captures: BTreeMap<u64, SimTime>,
    packet_counts: BTreeMap<u64, u16>,
    bytes_sent: u64,
    rto: SimDuration,
}

impl ArqSenderNode {
    fn pump(&mut self, ctx: &mut Context<'_, VideoMsg>) {
        let now = ctx.now();
        let mut done = Vec::new();
        for (&frame_id, tx) in self.active.iter_mut() {
            for pkt in tx.due_packets(now) {
                let size = pkt.bytes + 28;
                self.bytes_sent += size as u64;
                ctx.send(
                    self.receiver,
                    VideoMsg::ArqData {
                        frame_id,
                        index: pkt.index,
                        packets_in_frame: self.packet_counts[&frame_id],
                        captured_at: self.captures[&frame_id],
                    },
                    size,
                );
            }
            if tx.is_complete() || tx.gave_up() {
                done.push(frame_id);
            }
        }
        for id in done {
            self.active.remove(&id);
        }
    }
}

impl Node<VideoMsg> for ArqSenderNode {
    fn on_start(&mut self, ctx: &mut Context<'_, VideoMsg>) {
        ctx.set_timer(SimDuration::ZERO, TAG_FRAME);
        ctx.set_timer(SimDuration::from_millis(5), TAG_ARQ_TICK);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, VideoMsg>, timer: Timer) {
        match timer.tag {
            TAG_FRAME => {
                if self.frames_left == 0 {
                    return;
                }
                self.frames_left -= 1;
                let frame = self.source.next_frame();
                let packets = frame.bytes.div_ceil(ARQ_MTU).max(1);
                let sizes: Vec<u32> = (0..packets)
                    .map(|i| if i + 1 == packets { frame.bytes - ARQ_MTU * i } else { ARQ_MTU })
                    .collect();
                self.captures.insert(frame.id, ctx.now());
                self.packet_counts.insert(frame.id, sizes.len() as u16);
                self.active.insert(
                    frame.id,
                    ArqFrameSender::new(
                        ArqConfig { rto: self.rto, max_transmissions: 8 },
                        frame.id,
                        &sizes,
                    ),
                );
                self.pump(ctx);
                if self.frames_left > 0 {
                    ctx.set_timer(self.source.config().frame_period(), TAG_FRAME);
                }
            }
            TAG_ARQ_TICK => {
                self.pump(ctx);
                if !self.active.is_empty() || self.frames_left > 0 {
                    ctx.set_timer(SimDuration::from_millis(5), TAG_ARQ_TICK);
                }
            }
            _ => {}
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, VideoMsg>, _: NodeId, msg: VideoMsg) {
        if let VideoMsg::ArqAck { frame_id, index } = msg {
            if let Some(tx) = self.active.get_mut(&frame_id) {
                tx.on_ack(index);
                if tx.is_complete() {
                    self.active.remove(&frame_id);
                }
            }
        }
        let _ = ctx;
    }
}

struct ArqReceiverNode {
    sender: NodeId,
    frames: BTreeMap<u64, (ArqFrameReceiver, SimTime)>,
    /// frame id → (capture, completion).
    delivered: BTreeMap<u64, (SimTime, SimTime)>,
}

impl Node<VideoMsg> for ArqReceiverNode {
    fn on_message(&mut self, ctx: &mut Context<'_, VideoMsg>, _: NodeId, msg: VideoMsg) {
        if let VideoMsg::ArqData { frame_id, index, packets_in_frame, captured_at, .. } = msg {
            let entry = self
                .frames
                .entry(frame_id)
                .or_insert_with(|| (ArqFrameReceiver::new(packets_in_frame.max(1)), captured_at));
            let _ = entry.0.on_packet(ctx.now(), index);
            ctx.send(self.sender, VideoMsg::ArqAck { frame_id, index }, 40);
            if let Some(done) = entry.0.completed_at() {
                self.delivered.entry(frame_id).or_insert((entry.1, done));
            }
        }
    }
}

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Transport scheme.
    pub scheme: Scheme,
    /// Mean channel loss probability.
    pub loss: f64,
    /// One-way propagation, ms.
    pub one_way_ms: u64,
    /// Fraction of frames delivered within the 100 ms deadline.
    pub on_time: f64,
    /// Median frame capture→delivery latency, ms (delivered frames).
    pub p50_latency_ms: f64,
    /// Delivered legibility score after stalls.
    pub quality: f64,
    /// Bandwidth overhead vs the raw stream.
    pub overhead: f64,
    /// Whether the loss process was the bursty Gilbert–Elliott variant.
    pub burst: bool,
}

/// Outcome of E6.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Measured rows.
    pub rows: Vec<Row>,
    /// Rendered table.
    pub table: Table,
}

const DEADLINE: SimDuration = SimDuration::from_millis(100);

fn measure(
    scheme: Scheme,
    loss: LossModel,
    one_way_ms: u64,
    frames: u32,
    seed: u64,
    engine: EngineConfig,
) -> Row {
    let video = VideoConfig::lecture_camera();
    let link = LinkConfig::new(SimDuration::from_millis(one_way_ms))
        .with_jitter(SimDuration::from_millis_f64(one_way_ms as f64 * 0.05))
        .with_loss(loss)
        .with_bandwidth_bps(1_000_000_000)
        .with_queue_capacity_bytes(16 * 1024 * 1024);

    let mut sim: Simulation<VideoMsg> = Simulation::with_config(seed, engine);
    let raw_bytes_estimate = frames as f64 * video.mean_frame_bytes();

    let (delivered, captures, bytes_sent): (BTreeMap<u64, (SimTime, SimTime)>, usize, u64) =
        match scheme {
            Scheme::None | Scheme::Fec { .. } => {
                let fec = match scheme {
                    Scheme::Fec { parity } => {
                        Some(FecConfig { data_shards: SHARD_DATA, parity_shards: parity })
                    }
                    _ => None,
                };
                let rx = sim.add_node(
                    "rx",
                    FecReceiver {
                        assembler: FrameAssembler::new(),
                        delivered: BTreeMap::new(),
                        captures: BTreeMap::new(),
                    },
                );
                let tx = sim.add_node(
                    "tx",
                    FecSender {
                        receiver: rx,
                        source: VideoSource::new(video, seed ^ 1),
                        fec,
                        frames_left: frames,
                        bytes_sent: 0,
                    },
                );
                sim.connect(tx, rx, link);
                sim.run_until_idle();
                let sender = sim.node_as::<FecSender>(tx).unwrap();
                let receiver = sim.node_as::<FecReceiver>(rx).unwrap();
                (receiver.delivered.clone(), frames as usize, sender.bytes_sent)
            }
            Scheme::Arq => {
                // Two passes of ids: receiver needs the sender id and vice
                // versa; receiver is created first with a placeholder.
                let rx_id = metaclass_netsim::NodeId::from_index(0);
                let tx_id = metaclass_netsim::NodeId::from_index(1);
                let rx = sim.add_node(
                    "rx",
                    ArqReceiverNode {
                        sender: tx_id,
                        frames: BTreeMap::new(),
                        delivered: BTreeMap::new(),
                    },
                );
                assert_eq!(rx, rx_id);
                let tx = sim.add_node(
                    "tx",
                    ArqSenderNode {
                        receiver: rx_id,
                        source: VideoSource::new(video, seed ^ 1),
                        frames_left: frames,
                        active: BTreeMap::new(),
                        captures: BTreeMap::new(),
                        packet_counts: BTreeMap::new(),
                        bytes_sent: 0,
                        rto: SimDuration::from_millis(2 * one_way_ms + 20),
                    },
                );
                assert_eq!(tx, tx_id);
                sim.connect(tx, rx, link);
                sim.run_until_idle_capped(50_000_000);
                let sender = sim.node_as::<ArqSenderNode>(tx).unwrap();
                let receiver = sim.node_as::<ArqReceiverNode>(rx).unwrap();
                (receiver.delivered.clone(), frames as usize, sender.bytes_sent)
            }
        };

    let mut on_time = 0u32;
    let mut latencies: Vec<u64> = Vec::new();
    for (capture, delivery) in delivered.values() {
        let lat = delivery.duration_since(*capture);
        latencies.push(lat.as_nanos());
        if lat <= DEADLINE {
            on_time += 1;
        }
    }
    latencies.sort_unstable();
    let p50 = latencies.get(latencies.len() / 2).copied().unwrap_or(0) as f64 / 1e6;
    let on_time_frac = on_time as f64 / captures as f64;
    let stall = 1.0 - on_time_frac;
    Row {
        scheme,
        loss: loss.mean_loss(),
        one_way_ms,
        on_time: on_time_frac,
        p50_latency_ms: p50,
        quality: legibility_after_stalls(legibility_score(&video), stall),
        overhead: bytes_sent as f64 / raw_bytes_estimate - 1.0,
        burst: matches!(loss, LossModel::GilbertElliott { .. }),
    }
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Outcome {
    let quick = ctx.scale.is_quick();
    let seed = ctx.seed;
    let (losses, one_ways, frames): (&[f64], &[u64], u32) = if quick {
        (&[0.0, 0.05], &[10, 50], 90)
    } else {
        (&[0.0, 0.01, 0.02, 0.05, 0.10], &[10, 40, 80], 300)
    };
    let schemes = [Scheme::None, Scheme::Fec { parity: 2 }, Scheme::Fec { parity: 4 }, Scheme::Arq];

    let mut table = Table::new(
        "E6: lecture video over loss — on-time delivery and legibility (100 ms deadline)",
        &["scheme", "loss", "one-way (ms)", "on-time", "p50 (ms)", "quality", "overhead"],
    );
    let mut rows = Vec::new();
    for &loss_p in losses {
        let loss = if loss_p == 0.0 { LossModel::None } else { LossModel::Iid { p: loss_p } };
        for &ow in one_ways {
            for scheme in schemes {
                let row = measure(
                    scheme,
                    loss,
                    ow,
                    frames,
                    mix_seed(seed, 0xE6 ^ ow ^ (loss_p * 1000.0) as u64),
                    ctx.engine,
                );
                table.row_strings(vec![
                    row.scheme.to_string(),
                    format!("{:.0}%", row.loss * 100.0),
                    row.one_way_ms.to_string(),
                    format!("{:.0}%", row.on_time * 100.0),
                    format!("{:.1}", row.p50_latency_ms),
                    format!("{:.0}", row.quality),
                    format!("{:+.0}%", row.overhead * 100.0),
                ]);
                rows.push(row);
            }
        }
    }

    // A bursty-loss variant at one point, to show FEC under bursts.
    let burst = LossModel::GilbertElliott {
        p_good_to_bad: 0.005,
        p_bad_to_good: 0.3,
        loss_good: 0.002,
        loss_bad: 0.5,
    };
    for scheme in schemes {
        let row = measure(scheme, burst, 50, frames, mix_seed(seed, 0xE6BB), ctx.engine);
        table.row_strings(vec![
            format!("{} (burst)", row.scheme),
            format!("{:.0}%", row.loss * 100.0),
            row.one_way_ms.to_string(),
            format!("{:.0}%", row.on_time * 100.0),
            format!("{:.1}", row.p50_latency_ms),
            format!("{:.0}", row.quality),
            format!("{:+.0}%", row.overhead * 100.0),
        ]);
        rows.push(row);
    }

    Outcome { rows, table }
}

/// E6 as a sweepable [`Experiment`].
pub struct E6VideoFec;

impl Experiment for E6VideoFec {
    fn id(&self) -> &'static str {
        "e6"
    }

    fn title(&self) -> &'static str {
        "lecture video over loss: FEC vs ARQ vs plain UDP"
    }

    fn run(&self, ctx: &RunCtx) -> Report {
        let out = run(ctx);
        let mut r = Report::new();
        for row in &out.rows {
            let prefix = format!(
                "{}{}_l{}_ow{}",
                if row.burst { "burst_" } else { "" },
                crate::slug(&row.scheme.to_string()),
                (row.loss * 1000.0).round() as u64,
                row.one_way_ms
            );
            r.scalar(format!("{prefix}_on_time"), row.on_time);
            r.scalar(format!("{prefix}_p50_latency_ms"), row.p50_latency_ms);
            r.scalar(format!("{prefix}_quality"), row.quality);
            r.scalar(format!("{prefix}_overhead"), row.overhead);
        }
        r.table(out.table);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn find(rows: &[Row], scheme: Scheme, loss: f64, ow: u64) -> &Row {
        rows.iter()
            .find(|r| r.scheme == scheme && (r.loss - loss).abs() < 1e-9 && r.one_way_ms == ow)
            .expect("row exists")
    }

    #[test]
    fn fec_beats_arq_at_wan_distance_under_loss() {
        let out = run(&RunCtx::new(Scale::Quick, 0));
        let fec = find(&out.rows, Scheme::Fec { parity: 4 }, 0.05, 50);
        let arq = find(&out.rows, Scheme::Arq, 0.05, 50);
        let udp = find(&out.rows, Scheme::None, 0.05, 50);
        // FEC holds the deadline where plain UDP collapses.
        assert!(fec.on_time > 0.9, "fec on-time {}", fec.on_time);
        assert!(udp.on_time < 0.7, "udp on-time {}", udp.on_time);
        // ARQ recovers frames but pays RTTs: worse deadline performance.
        assert!(fec.on_time > arq.on_time, "fec {} vs arq {}", fec.on_time, arq.on_time);
        assert!(fec.quality > arq.quality);
        // FEC's price is fixed overhead.
        assert!(fec.overhead > 0.3 && fec.overhead < 0.7, "overhead {}", fec.overhead);
    }

    #[test]
    fn clean_short_links_need_nothing() {
        let out = run(&RunCtx::new(Scale::Quick, 0));
        let udp = find(&out.rows, Scheme::None, 0.0, 10);
        assert!(udp.on_time > 0.99);
        assert!(udp.p50_latency_ms < 30.0);
    }
}
