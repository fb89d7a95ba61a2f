//! Cross-crate pipeline tests that bypass the session facade and wire the
//! substrates together directly — the seams a downstream user would touch.

use metaclassroom::avatar::{retarget, AnchorFrame, AvatarCodec, AvatarState, Pose, Quat, Vec3};
use metaclassroom::comfort::{ComfortConfig, SicknessAccumulator, Stimulus};
use metaclassroom::media::{shard_frame, FecConfig, FrameAssembler};
use metaclassroom::netsim::{DetRng, SimDuration, SimTime};
use metaclassroom::render::{assign_lods, DeviceProfile, RenderRequest};
use metaclassroom::sensors::{
    FusionConfig, HeadsetConfig, HeadsetModel, MotionScript, PoseFusion, Trajectory,
};
use metaclassroom::sync::{JitterBuffer, JitterBufferConfig, SnapshotReceiver, SnapshotSender};

/// Sensor → fusion → codec → network-ish loss → receiver → jitter buffer:
/// the entire avatar path, hand-assembled.
#[test]
fn full_avatar_pipeline_end_to_end() {
    let traj = Trajectory::new(
        MotionScript::Presenter {
            center: Vec3::new(10.0, 0.0, 2.0),
            area_half: Vec3::new(1.4, 0.0, 0.9),
        },
        99,
    );
    let mut headset = HeadsetModel::new(HeadsetConfig::default(), 1);
    let mut fusion = PoseFusion::new(FusionConfig::default());
    let mut tx = SnapshotSender::new(AvatarCodec::with_defaults(), 60);
    let mut rx = SnapshotReceiver::new(AvatarCodec::with_defaults());
    let mut buffer = JitterBuffer::new(JitterBufferConfig::default());
    let mut rng = DetRng::new(500);

    let mut delivered = 0u32;
    for i in 0..600u64 {
        let secs = i as f64 / 60.0;
        let now = SimTime::from_nanos((secs * 1e9) as u64);
        let truth = traj.state_at(secs);
        if let Some(m) = headset.measure_pose(&truth) {
            fusion.ingest(now, &m);
        }
        if !fusion.is_initialized() {
            continue;
        }
        let estimate = fusion.estimate_at(now);
        let frame = tx.encode(&estimate);
        // 5% loss on the "network".
        if rng.chance(0.05) {
            continue;
        }
        let arrival = now + SimDuration::from_millis(rng.range_u64(8, 25));
        if let Some(state) = rx.decode(&frame).expect("no codec error") {
            tx.on_ack(rx.ack_seq().unwrap());
            buffer.push(now, arrival, state);
            delivered += 1;
        } else if rx.take_keyframe_request() {
            tx.request_keyframe();
        }
    }
    assert!(delivered > 500, "delivered {delivered}");

    // Displayed state (buffered, delayed) still tracks ground truth within
    // the playout delay's worth of motion.
    let t_display = SimTime::from_secs(10);
    let shown = buffer.sample(t_display).expect("buffer primed");
    let truth_then = traj.state_at(10.0 - buffer.playout_delay().as_secs_f64());
    assert!(
        shown.position_error(&truth_then) < 0.25,
        "display error {:.3} m",
        shown.position_error(&truth_then)
    );
}

/// Retarget a tracked presenter into another room's podium, then feed the
/// result through the renderer's LOD planner.
#[test]
fn retarget_then_render_pipeline() {
    let traj = Trajectory::new(
        MotionScript::Presenter {
            center: Vec3::new(10.0, 0.0, 2.0),
            area_half: Vec3::new(1.4, 0.0, 0.9),
        },
        7,
    );
    let src = AnchorFrame::podium(Pose::new(Vec3::new(10.0, 0.0, 1.0), Quat::IDENTITY));
    let dst = AnchorFrame::podium(Pose::new(Vec3::new(4.0, 0.0, 12.0), Quat::from_yaw(1.2)));

    let mut requests = Vec::new();
    for i in 0..20 {
        let truth = traj.state_at(i as f64);
        let (moved, report) = retarget(&truth, &src, &dst);
        assert!(report.clamp_distance < 1.5, "presenter clamped {:.2} m", report.clamp_distance);
        requests.push(RenderRequest {
            id: metaclassroom::avatar::AvatarId(i),
            distance: moved.head.position.distance(Vec3::new(10.0, 1.6, 7.0)),
            importance: 1.0,
        });
    }
    let plan = assign_lods(&requests, &DeviceProfile::mr_headset(), 250_000);
    assert!(plan.achieved_fps >= 72.0 - 1e-9);
    assert!(plan.mean_fidelity > 0.4);
}

/// Video frames through FEC sharding and reassembly with random loss, plus
/// the comfort consequence of the resulting frame rate.
#[test]
fn video_loss_to_comfort_pipeline() {
    let cfg = FecConfig { data_shards: 8, parity_shards: 2 };
    let mut rng = DetRng::new(3);
    let mut asm = FrameAssembler::new();
    let mut delivered = 0u32;
    let frames = 120u32;
    for id in 0..frames {
        let frame = vec![id as u8; 6000];
        let shards = shard_frame(id as u64, &frame, cfg).expect("shardable");
        for s in shards {
            if rng.chance(0.08) {
                continue; // lost
            }
            if let Ok(Some(_)) = asm.ingest(s) {
                delivered += 1;
            }
        }
    }
    let delivery = delivered as f64 / frames as f64;
    assert!(delivery > 0.9, "delivered {delivery:.2}");

    // Displayed fps = source fps x delivery ratio; feed into comfort.
    let fps = 30.0 * delivery;
    let mut acc = SicknessAccumulator::new(ComfortConfig::default(), 1.0);
    let stim = Stimulus { virtual_speed: 2.0, fps, ..Stimulus::at_rest() };
    for _ in 0..60 {
        acc.step(1.0, &stim);
    }
    let with_loss = acc.score();
    let mut acc_clean = SicknessAccumulator::new(ComfortConfig::default(), 1.0);
    let clean = Stimulus { virtual_speed: 2.0, fps: 30.0, ..Stimulus::at_rest() };
    for _ in 0..60 {
        acc_clean.step(1.0, &clean);
    }
    assert!(with_loss >= acc_clean.score(), "lost frames can only worsen comfort");
}

/// Fault injection is replayable: the same seed and the same fault windows
/// produce byte-identical traces and metrics across independent runs.
#[test]
fn fault_injected_runs_are_deterministic() {
    use metaclassroom::core::SessionBuilder;
    use metaclassroom::netsim::{FaultWindow, LinkClass, LossModel, NodeId, Region};

    fn run_once() -> (u64, Vec<(String, u64)>) {
        let mut session = SessionBuilder::new()
            .seed(0xFA17)
            .campus("CWB", Region::EastAsia, 3, true)
            .campus("GZ", Region::EastAsia, 2, false)
            .remote_cohort(Region::Europe, 1, LinkClass::ResidentialAccess)
            .build();
        let edges: Vec<NodeId> = session.edges().to_vec();
        let cloud = session.cloud();
        let ms = SimTime::from_millis;
        let plan = [
            FaultWindow::LinkFlap { a: edges[0], b: edges[1], from: ms(400), until: ms(900) },
            FaultWindow::LossBurst {
                a: edges[0],
                b: cloud,
                from: ms(500),
                until: ms(1500),
                loss: LossModel::Iid { p: 0.3 },
            },
            FaultWindow::LatencySpike {
                a: edges[1],
                b: cloud,
                from: ms(600),
                until: ms(1400),
                extra: SimDuration::from_millis(80),
            },
            FaultWindow::Partition {
                groups: vec![vec![edges[0]], vec![edges[1], cloud]],
                from: ms(1600),
                until: ms(2000),
            },
            FaultWindow::CrashRestart { node: edges[1], from: ms(2200), until: ms(2700) },
        ];
        session.sim_mut().enable_fingerprint();
        session.sim_mut().apply_fault_plan(&plan);
        session.run_for(SimDuration::from_secs(3));
        let fingerprint = session.sim().fingerprint().expect("fingerprint enabled");
        let counters =
            session.sim().metrics().counters().map(|(k, v)| (k.to_string(), v)).collect();
        (fingerprint, counters)
    }

    let (fp1, m1) = run_once();
    let (fp2, m2) = run_once();
    assert_eq!(fp1, fp2, "trace fingerprints diverged between identical runs");
    assert_eq!(m1, m2, "metrics diverged between identical runs");
    let count = |name: &str| m1.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0);
    assert_eq!(count("fault.injected"), 10, "all scheduled faults executed");
    assert!(count("net.link.flaps") > 0, "flap accounting reached the metrics");
    assert_eq!(count("net.node.crashes"), 1);
    assert_eq!(count("net.node.restarts"), 1);
}

/// The workspace's public types stay Send + Sync (threads can own sessions).
#[test]
fn key_types_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<metaclassroom::core::ClassroomSession>();
    assert_send::<metaclassroom::netsim::Simulation<u32>>();
    assert_send::<AvatarState>();
    assert_send::<AvatarCodec>();
}
