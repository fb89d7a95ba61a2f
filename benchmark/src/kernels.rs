//! The kernel pass: host time per call of one public function per layer.
//!
//! Inputs are built from fixed seeds and every kernel runs a fixed number
//! of calls, so two commits execute the same work; the value reported is
//! the median over [`ROUNDS`] rounds. These numbers say which layer moved,
//! never whether a change is a gain — that is the end-to-end metrics' job.

use std::hint::black_box;
use std::time::Instant;

use metaclass_avatar::{AvatarCodec, AvatarId, AvatarState, Vec3};
use metaclass_bench::experiments::scenario::ScenarioExperiment;
use metaclass_bench::sweep::{run_sweep, validate_json, SweepConfig};
use metaclass_bench::Scale;
use metaclass_core::{protocol_codec, ScenarioSpec};
use metaclass_edge::FanoutConfig;
use metaclass_netsim::sched::{EventQueue, TimerWheel};
use metaclass_netsim::{
    DetRng, EngineConfig, Link, LinkClass, MetricsRegistry, PopulationProfile, PopulationTimeline,
    SimDuration, SimTime,
};
use metaclass_sensors::{HeadsetConfig, HeadsetModel, MotionScript, PoseFusion, Trajectory};
use metaclass_sync::{
    DeadReckoningConfig, DeadReckoningSender, InterestManager, JitterBuffer, JitterBufferConfig,
    SnapshotReceiver, SnapshotSender, SubscriberId, Viewpoint,
};

use crate::run::{repo_root, Check};
use crate::stats::median;
use crate::workloads::{remote_cohort, Size};

/// Rounds each kernel is timed for.
const ROUNDS: usize = 5;

/// How much of each kernel runs: call counts (and the population size) are
/// divided by `shrink`, 1 at full size.
#[derive(Debug, Clone, Copy)]
struct Reps {
    shrink: u64,
}

impl Reps {
    fn of(self, n: u64) -> u64 {
        (n / self.shrink).max(1)
    }

    /// Median over [`ROUNDS`] rounds of the wall time of `calls` (scaled)
    /// calls of `call`, in nanoseconds per call. `call` receives the call
    /// index, counting on across rounds.
    fn ns_per_call(self, calls: u64, mut call: impl FnMut(u64)) -> f64 {
        let calls = self.of(calls);
        let rounds: Vec<f64> = (0..ROUNDS as u64)
            .map(|round| {
                let t = Instant::now();
                for i in 0..calls {
                    call(round * calls + i);
                }
                t.elapsed().as_nanos() as f64 / calls as f64
            })
            .collect();
        median(&rounds)
    }
}

/// A seated learner's pose every 1/72 s: the states the codecs, filters
/// and buffers see in a session.
fn poses(n: usize, seed: u64) -> Vec<AvatarState> {
    let traj =
        Trajectory::new(MotionScript::SeatedLecture { seat: Vec3::new(4.0, 0.0, 7.0) }, seed);
    (0..n).map(|i| traj.state_at(i as f64 / 72.0)).collect()
}

fn tick(i: u64) -> SimTime {
    SimTime::from_nanos(i * 13_888_889)
}

fn netsim_kernels(reps: Reps, out: &mut Vec<(&'static str, f64)>) {
    // Scheduler: steady state at 10 k resident events, each pop scheduling
    // a follow-up within the wheel horizon — the engine's own pattern.
    let mut rng = DetRng::new(7);
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut seq = 0u64;
    for _ in 0..10_000 {
        wheel.push(SimTime::from_nanos(rng.range_u64(0, 200_000_000)), seq, seq);
        seq += 1;
    }
    out.push((
        "netsim.sched.push_pop_ns",
        reps.ns_per_call(200_000, |_| {
            let (at, _, v) = wheel.pop().expect("the wheel stays at 10 k resident");
            black_box(v);
            wheel.push(
                SimTime::from_nanos(at.as_nanos() + rng.range_u64(1, 200_000_000)),
                seq,
                seq,
            );
            seq += 1;
        }),
    ));

    let mut link = Link::new(LinkClass::ResidentialAccess.config());
    let mut rng = DetRng::new(11);
    out.push((
        "netsim.link.transmit_ns",
        reps.ns_per_call(200_000, |i| {
            black_box(link.transmit(SimTime::from_nanos(i * 1_000_000), 400, &mut rng));
        }),
    ));

    let mut metrics = MetricsRegistry::new();
    out.push((
        "netsim.metrics.record_ns",
        reps.ns_per_call(500_000, |i| {
            metrics.histogram("client.display_latency_ns").record(40_000_000 + i * 97 % 60_000_000);
        }),
    ));

    let profile =
        PopulationProfile::flash_crowd(SimTime::from_millis(200), SimDuration::from_millis(500));
    let horizon = SimTime::from_secs(3600);
    let members = reps.of(1_000_000);
    let mut timeline = None;
    let generate_ns = reps.ns_per_call(1, |i| {
        let mut rng = DetRng::new(i);
        timeline = Some(PopulationTimeline::generate(&profile, members, horizon, &mut rng));
    });
    out.push(("netsim.population.generate_ms", generate_ns / 1e6));
    let timeline = timeline.expect("generated above");
    out.push((
        "netsim.population.split_tracers_ms",
        reps.ns_per_call(1, |_| {
            black_box(timeline.split_tracers(16));
        }) / 1e6,
    ));
}

fn codec_kernels(reps: Reps, out: &mut Vec<(&'static str, f64)>, checks: &mut Vec<Check>) {
    let codec = AvatarCodec::new(protocol_codec());
    let states = poses(1024, 3);
    let at = |i: u64| &states[i as usize % states.len()];
    out.push((
        "avatar.codec.encode_full_ns",
        reps.ns_per_call(200_000, |i| {
            black_box(codec.encode_full(black_box(at(i))));
        }),
    ));
    let reference = codec.reconstruct(&states[0]);
    out.push((
        "avatar.codec.encode_delta_ns",
        reps.ns_per_call(200_000, |i| {
            black_box(codec.encode_delta(&reference, black_box(at(i))));
        }),
    ));
    let frames: Vec<Vec<u8>> = states.iter().map(|s| codec.encode_delta(&reference, s)).collect();
    let mut failed = 0u64;
    out.push((
        "avatar.codec.decode_ns",
        reps.ns_per_call(200_000, |i| {
            let frame = &frames[i as usize % frames.len()];
            failed += u64::from(codec.decode(Some(&reference), black_box(frame)).is_err());
        }),
    ));
    out.push(("avatar.codec.decode_failed", failed as f64));
    checks.push(Check::equal("no avatar frame failed to decode", failed, 0));

    // The per-stream codec state machines: sender with acks one frame
    // behind, receiver decoding every frame.
    let mut sender = SnapshotSender::new(AvatarCodec::new(protocol_codec()), 60);
    let mut frames = Vec::new();
    out.push((
        "sync.snapshot.encode_ns",
        reps.ns_per_call(50_000, |i| {
            let frame = sender.encode(at(i));
            sender.on_ack(frame.seq);
            frames.push(frame);
        }),
    ));
    let mut receiver = SnapshotReceiver::new(AvatarCodec::new(protocol_codec()));
    out.push((
        "sync.snapshot.decode_ns",
        reps.ns_per_call(50_000, |i| {
            black_box(receiver.decode(&frames[i as usize]).expect("frames decode in order"));
        }),
    ));
}

fn sensor_kernels(reps: Reps, out: &mut Vec<(&'static str, f64)>) {
    let states = poses(4096, 5);
    let mut headset = HeadsetModel::new(HeadsetConfig::default(), 5);
    // Tracking-loss gaps yield no measurement; the filter never sees them.
    let measurements: Vec<_> = states.iter().filter_map(|s| headset.measure_pose(s)).collect();
    let mut fusion = PoseFusion::new(Default::default());
    out.push((
        "sensors.fusion.ingest_ns",
        reps.ns_per_call(100_000, |i| {
            fusion.ingest(tick(i), &measurements[i as usize % measurements.len()]);
        }),
    ));
    out.push((
        "sensors.fusion.estimate_ns",
        reps.ns_per_call(100_000, |_| {
            black_box(fusion.estimate());
        }),
    ));
}

fn sync_kernels(reps: Reps, out: &mut Vec<(&'static str, f64)>) {
    // 100 entities seated on a 10 x 10 grid, default fan-out tuning.
    let fanout = FanoutConfig::default();
    let mut interest = InterestManager::new(fanout.interest);
    let seat =
        |e: u64| Vec3::new(1.0 + (e % 10) as f64 * 1.5, 1.2, 1.0 + (e / 10 % 10) as f64 * 1.5);
    for e in 0..100 {
        interest.update_entity(AvatarId(e as u32), seat(e), if e == 0 { 1.0 } else { 0.1 });
    }
    out.push((
        "sync.interest.update_ns",
        reps.ns_per_call(200_000, |i| {
            let sway = Vec3::new((i % 7) as f64 * 0.01, 0.0, (i % 5) as f64 * 0.01);
            interest.update_entity(AvatarId((i % 100) as u32), seat(i % 100) + sway, 0.1);
        }),
    ));
    let mut selected = 0u64;
    let select_calls = 20_000;
    out.push((
        "sync.interest.select_ns",
        reps.ns_per_call(select_calls, |i| {
            let view = Viewpoint { position: seat(i % 100), yaw: (i % 8) as f64 * 0.7 };
            selected += interest
                .select(SubscriberId((i % 100) as u32), view, fanout.budget_per_client)
                .len() as u64;
        }),
    ));
    out.push((
        "sync.interest.selected_ratio",
        selected as f64 / (reps.of(select_calls) * ROUNDS as u64 * 100) as f64,
    ));

    let states = poses(8192, 9);
    let mut sender = DeadReckoningSender::new(DeadReckoningConfig::default());
    out.push((
        "sync.deadreckon.should_send_ns",
        reps.ns_per_call(200_000, |i| {
            let state = &states[i as usize % states.len()];
            if sender.should_send(tick(i), state) {
                sender.mark_sent(tick(i), *state);
            } else {
                sender.mark_suppressed();
            }
        }),
    ));
    out.push(("sync.deadreckon.suppression_ratio", sender.suppression_ratio()));

    // One push per 1/72 s capture with 20-60 ms of network delay, one
    // sample per display frame: the remote client's inner loop.
    let mut buffer = JitterBuffer::new(JitterBufferConfig::default());
    let mut rng = DetRng::new(13);
    let (mut pushed, mut late) = (0u64, 0u64);
    out.push((
        "sync.jitterbuf.push_sample_ns",
        reps.ns_per_call(200_000, |i| {
            let arrival = tick(i) + SimDuration::from_nanos(rng.range_u64(20_000_000, 60_000_000));
            pushed += 1;
            late += u64::from(!buffer.push(tick(i), arrival, states[i as usize % states.len()]));
            black_box(buffer.sample(arrival));
        }),
    ));
    out.push(("sync.jitterbuf.late_drop_ratio", late as f64 / pushed as f64));
}

fn session_kernels(reps: Reps, out: &mut Vec<(&'static str, f64)>, checks: &mut Vec<Check>) {
    out.push((
        "core.session.build_ms",
        reps.ns_per_call(10, |i| {
            black_box(remote_cohort(i, Size::Full).build());
        }) / 1e6,
    ));

    let path = repo_root().join("scenarios/stress.toml");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    out.push((
        "core.scenario.parse_us",
        reps.ns_per_call(200, |_| {
            black_box(
                ScenarioSpec::from_toml_str(black_box(&text)).expect("committed spec parses"),
            );
        }) / 1e3,
    ));
    let spec = ScenarioSpec::from_toml_str(&text).expect("committed spec parses");
    out.push((
        "core.scenario.build_ms",
        reps.ns_per_call(20, |i| {
            black_box(spec.build_session(i, EngineConfig::serial()));
        }) / 1e6,
    ));

    // A session with every histogram populated: what report() and
    // snapshot() walk at the end of each sweep trial.
    let mut session = spec.build_session(1, EngineConfig::serial());
    session.run_for(spec.duration());
    out.push((
        "core.report.report_us",
        reps.ns_per_call(200, |_| {
            black_box(session.report());
        }) / 1e3,
    ));
    out.push((
        "netsim.metrics.snapshot_us",
        reps.ns_per_call(200, |_| {
            black_box(session.sim().metrics().snapshot());
        }) / 1e3,
    ));

    let exp = ScenarioExperiment::from_spec(spec).expect("committed spec validates");
    let doc = run_sweep(&exp, &SweepConfig::first_n(2, 1, Scale::Quick)).doc;
    out.push((
        "bench.sweep.emit_us",
        reps.ns_per_call(100, |_| {
            black_box(doc.to_json_string());
        }) / 1e3,
    ));
    let json = doc.to_json_string();
    let mut invalid = 0u64;
    out.push((
        "bench.sweep.validate_us",
        reps.ns_per_call(100, |_| {
            invalid += u64::from(validate_json(black_box(&json)).is_err());
        }) / 1e3,
    ));
    checks.push(Check::equal("emitted sweep documents validate", invalid, 0));
}

/// Runs every kernel; returns `(metric name, value)` pairs and appends the
/// kernels' own correctness checks to `checks`.
pub fn run_all(size: Size, checks: &mut Vec<Check>) -> Vec<(&'static str, f64)> {
    let reps = Reps { shrink: if size == Size::Smoke { 100 } else { 1 } };
    let mut out = Vec::new();
    netsim_kernels(reps, &mut out);
    codec_kernels(reps, &mut out, checks);
    sensor_kernels(reps, &mut out);
    sync_kernels(reps, &mut out);
    session_kernels(reps, &mut out, checks);
    out
}
