//! E8 — Sensor fusion at the edge (§3.2).
//!
//! "The data from the headsets and the classroom sensors are transmitted …
//! to the edge server that aggregates the data to estimate the pose."
//! Measures tracking RMSE for headset-only, room-only, and fused pipelines
//! across motion patterns and failure conditions (drift, occlusion).

use metaclass_avatar::Vec3;
use metaclass_netsim::SimTime;
use metaclass_sensors::{
    FusionConfig, HeadsetConfig, HeadsetModel, MotionScript, PoseFusion, RoomSensorArray,
    RoomSensorConfig, TrackingError, Trajectory,
};

use crate::{mix_seed, Experiment, Report, RunCtx, Table};

/// Which sensors feed the filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sources {
    /// Headset only (drifts).
    HeadsetOnly,
    /// Room array only (low rate, occlusions, no orientation).
    RoomOnly,
    /// Both (the blueprint's design).
    Fused,
}

impl std::fmt::Display for Sources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Sources::HeadsetOnly => "headset-only",
            Sources::RoomOnly => "room-only",
            Sources::Fused => "fused",
        })
    }
}

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Motion pattern label.
    pub motion: String,
    /// Sensor sources.
    pub sources: Sources,
    /// Condition label (nominal / drift / occlusion).
    pub condition: String,
    /// Tracking error statistics.
    pub error: TrackingError,
}

/// Outcome of E8.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Measured rows.
    pub rows: Vec<Row>,
    /// Rendered table.
    pub table: Table,
}

fn track(
    script: MotionScript,
    sources: Sources,
    headset_cfg: HeadsetConfig,
    room_cfg: RoomSensorConfig,
    secs: f64,
    seed: u64,
) -> TrackingError {
    let traj = Trajectory::new(script, seed);
    let mut headset = HeadsetModel::new(headset_cfg, seed ^ 1);
    let mut room = RoomSensorArray::new(room_cfg, seed ^ 2);
    let mut fusion = PoseFusion::new(FusionConfig::default());
    let mut err = TrackingError::new();
    let eval_hz = 90.0;
    let steps = (secs * eval_hz) as u64;
    let mut next_headset = 0.0f64;
    let mut next_room = 0.0f64;
    for i in 0..steps {
        let t = i as f64 / eval_hz;
        let now = SimTime::from_nanos((t * 1e9) as u64);
        let truth = traj.state_at(t);
        if sources != Sources::RoomOnly && t >= next_headset {
            if let Some(m) = headset.measure_pose(&truth) {
                fusion.ingest(now, &m);
            }
            next_headset += 1.0 / HeadsetModel::RATE_HZ;
        }
        if sources != Sources::HeadsetOnly && t >= next_room {
            if let Some(m) = room.measure(&truth) {
                fusion.ingest(now, &m);
            }
            next_room += 1.0 / RoomSensorArray::RATE_HZ;
        }
        if t > 2.0 && fusion.is_initialized() {
            err.record(&truth, &fusion.estimate_at(now));
        }
    }
    err
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Outcome {
    let quick = ctx.scale.is_quick();
    let seed = ctx.seed;
    let secs = if quick { 20.0 } else { 120.0 };
    let motions = [
        ("seated student", MotionScript::SeatedLecture { seat: Vec3::new(6.0, 0.0, 8.0) }),
        (
            "walking presenter",
            MotionScript::Presenter {
                center: Vec3::new(10.0, 0.0, 2.0),
                area_half: Vec3::new(1.4, 0.0, 0.9),
            },
        ),
    ];

    let mut rows = Vec::new();
    let mut table = Table::new(
        "E8: pose tracking RMSE by sensor source (mm / degrees)",
        &["motion", "sources", "condition", "pos RMSE (mm)", "pos max (mm)", "orient RMSE (deg)"],
    );

    let conditions: Vec<(String, HeadsetConfig, RoomSensorConfig)> = vec![
        ("nominal".into(), HeadsetConfig::default(), RoomSensorConfig::default()),
        (
            "heavy drift".into(),
            HeadsetConfig { drift_rate: 0.02, drift_limit: 0.25 },
            RoomSensorConfig::default(),
        ),
        (
            "heavy occlusion".into(),
            HeadsetConfig::default(),
            RoomSensorConfig { occlusion_probability: 0.1, recovery_probability: 0.1 },
        ),
    ];

    for (motion_name, script) in &motions {
        for (cond, hs, room) in &conditions {
            for sources in [Sources::HeadsetOnly, Sources::RoomOnly, Sources::Fused] {
                let error = track(script.clone(), sources, *hs, *room, secs, mix_seed(seed, 0xE8));
                table.row_strings(vec![
                    motion_name.to_string(),
                    sources.to_string(),
                    cond.clone(),
                    format!("{:.1}", error.position_rmse() * 1000.0),
                    format!("{:.1}", error.position_max() * 1000.0),
                    format!("{:.2}", error.orientation_rmse_deg()),
                ]);
                rows.push(Row {
                    motion: motion_name.to_string(),
                    sources,
                    condition: cond.clone(),
                    error,
                });
            }
        }
    }
    Outcome { rows, table }
}

/// E8 as a sweepable [`Experiment`].
pub struct E8PoseFusion;

impl Experiment for E8PoseFusion {
    fn id(&self) -> &'static str {
        "e8"
    }

    fn title(&self) -> &'static str {
        "edge pose fusion: headset vs room sensors vs fused"
    }

    fn run(&self, ctx: &RunCtx) -> Report {
        let out = run(ctx);
        let mut r = Report::new();
        for row in &out.rows {
            let key = format!(
                "{}_{}_{}",
                crate::slug(&row.motion),
                crate::slug(&row.sources.to_string()),
                crate::slug(&row.condition)
            );
            r.scalar(format!("{key}_pos_rmse_mm"), row.error.position_rmse() * 1000.0);
            r.scalar(format!("{key}_pos_max_mm"), row.error.position_max() * 1000.0);
            r.scalar(format!("{key}_orient_rmse_deg"), row.error.orientation_rmse_deg());
        }
        r.table(out.table);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunCtx, Scale};

    fn rmse(out: &Outcome, motion: &str, sources: Sources, condition: &str) -> f64 {
        out.rows
            .iter()
            .find(|r| r.motion == motion && r.sources == sources && r.condition == condition)
            .expect("row exists")
            .error
            .position_rmse()
    }

    #[test]
    fn fusion_beats_both_single_sources_under_failures() {
        let out = super::run(&RunCtx::new(Scale::Quick, 0));
        for motion in ["seated student", "walking presenter"] {
            // Under heavy drift, fusion beats the drifting headset.
            let fused = rmse(&out, motion, Sources::Fused, "heavy drift");
            let headset = rmse(&out, motion, Sources::HeadsetOnly, "heavy drift");
            assert!(fused < headset, "{motion}: fused {fused} vs headset {headset}");
            // Under nominal conditions fusion is at least as good as room-only.
            let fused_nom = rmse(&out, motion, Sources::Fused, "nominal");
            let room_nom = rmse(&out, motion, Sources::RoomOnly, "nominal");
            assert!(fused_nom <= room_nom * 1.1, "{motion}: fused {fused_nom} room {room_nom}");
            // And everything stays under 10 cm.
            assert!(fused_nom < 0.1);
        }
        // Room-only tracking of a walking presenter suffers from the low rate.
        let room_walk = rmse(&out, "walking presenter", Sources::RoomOnly, "nominal");
        let fused_walk = rmse(&out, "walking presenter", Sources::Fused, "nominal");
        assert!(fused_walk < room_walk);
    }
}
