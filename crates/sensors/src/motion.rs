//! Ground-truth participant motion.
//!
//! The paper's testbed would have used live students; we substitute scripted
//! behaviour generators whose *statistics* (update dynamics, movement ranges,
//! speeds) match classroom activity. Each [`Trajectory`] is a pure,
//! deterministic function of time, so sensors can sample it at arbitrary
//! instants and evaluation code can query exact ground truth.

use metaclass_avatar::{AvatarState, BlendChannel, ExpressionFrame, Pose, Quat, Vec3};
use metaclass_netsim::DetRng;
use serde::{Deserialize, Serialize};

/// Standing eye height, metres.
pub const STANDING_HEIGHT: f64 = 1.65;
/// Seated eye height, metres.
pub const SEATED_HEIGHT: f64 = 1.20;

/// A scripted behaviour pattern for one participant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MotionScript {
    /// Seated at a desk: centimetre-scale head sway, slow gaze shifts,
    /// occasional nods — the dominant student behaviour in a lecture.
    SeatedLecture {
        /// The seat's floor position.
        seat: Vec3,
    },
    /// A presenter walking a podium area while facing the class.
    Presenter {
        /// Centre of the podium area (floor).
        center: Vec3,
        /// Half-extent of the walkable area (x/z; y ignored).
        area_half: Vec3,
    },
    /// Group work: walking between tables and dwelling at each.
    GroupWork {
        /// Table positions visited in order (floor points).
        tables: Vec<Vec3>,
        /// Seconds spent at each table.
        dwell_secs: f64,
    },
    /// Continuous locomotion along a waypoint loop (VR navigation; the
    /// workload that drives cybersickness in §3.3).
    Navigation {
        /// Waypoints of the loop (floor points).
        waypoints: Vec<Vec3>,
        /// Walking speed, metres/second.
        speed: f64,
    },
}

/// A deterministic ground-truth trajectory for one participant.
///
/// # Examples
///
/// ```
/// use metaclass_avatar::Vec3;
/// use metaclass_sensors::{MotionScript, Trajectory};
///
/// let traj = Trajectory::new(MotionScript::SeatedLecture { seat: Vec3::new(4.0, 0.0, 6.0) }, 7);
/// let a = traj.state_at(1.0);
/// let b = traj.state_at(1.0);
/// assert_eq!(a.head.position, b.head.position); // pure function of time
/// ```
#[derive(Debug, Clone)]
pub struct Trajectory {
    script: MotionScript,
    /// Leg figures of a looping script, fixed with it.
    legs: LoopLegs,
    /// Seeded phases/frequencies for the sway oscillators.
    phases: [f64; 9],
    freqs: [f64; 9],
    /// Blink/speech cadence offsets.
    blink_phase: f64,
    speech_phase: f64,
    talkative: f64,
}

/// Walking speed between group-work tables, metres/second.
const GROUP_WALK_SPEED: f64 = 1.2;

/// What a looping script ([`MotionScript::Navigation`] or
/// [`MotionScript::GroupWork`] with two or more stops) needs of its legs at
/// every sample: computed once, because a trajectory is sampled millions of
/// times and its script never changes. Empty for every other script.
#[derive(Debug, Clone, Default)]
struct LoopLegs {
    /// Per leg `i → i + 1` (wrapping): its length in metres (navigation) or
    /// the seconds it takes to walk (group work).
    legs: Vec<f64>,
    /// The whole loop: its length in metres (navigation) or its period in
    /// seconds, dwells included (group work).
    total: f64,
}

impl LoopLegs {
    fn of(script: &MotionScript) -> Self {
        match script {
            MotionScript::Navigation { waypoints, .. } if waypoints.len() >= 2 => {
                Self::around(waypoints, 0.0, |metres| metres.max(1e-9))
            }
            MotionScript::GroupWork { tables, dwell_secs } if tables.len() >= 2 => {
                Self::around(tables, *dwell_secs, |metres| metres / GROUP_WALK_SPEED)
            }
            _ => LoopLegs::default(),
        }
    }

    /// The closed loop through `stops`: each leg's figure is `leg(its length)`
    /// and every stop adds `pause` to the total.
    fn around(stops: &[Vec3], pause: f64, leg: impl Fn(f64) -> f64) -> Self {
        let mut legs = Vec::with_capacity(stops.len());
        let mut total = 0.0;
        for (i, a) in stops.iter().enumerate() {
            let l = leg(a.distance(stops[(i + 1) % stops.len()]));
            legs.push(l);
            total += pause + l;
        }
        LoopLegs { legs, total }
    }
}

impl Trajectory {
    /// Creates a trajectory; `seed` individualizes sway, blinks, and speech.
    pub fn new(script: MotionScript, seed: u64) -> Self {
        let mut rng = DetRng::new(seed).derive(0x6d6f_7469_6f6e);
        let mut phases = [0.0; 9];
        let mut freqs = [0.0; 9];
        for (p, f) in phases.iter_mut().zip(freqs.iter_mut()) {
            *p = rng.range_f64(0.0, std::f64::consts::TAU);
            *f = rng.range_f64(0.08, 0.6);
        }
        Trajectory {
            legs: LoopLegs::of(&script),
            script,
            phases,
            freqs,
            blink_phase: rng.range_f64(0.0, 4.0),
            speech_phase: rng.range_f64(0.0, 10.0),
            talkative: rng.range_f64(0.0, 1.0),
        }
    }

    /// The script driving this trajectory.
    pub fn script(&self) -> &MotionScript {
        &self.script
    }

    /// Small head sway: a seeded sum of sines per axis (amplitude `amp` m).
    fn sway(&self, t: f64, amp: f64) -> Vec3 {
        let s = |k: usize| (t * self.freqs[k] * std::f64::consts::TAU + self.phases[k]).sin();
        Vec3::new(
            amp * (0.6 * s(0) + 0.3 * s(1) + 0.1 * s(2)),
            amp * 0.3 * (0.7 * s(3) + 0.3 * s(4)),
            amp * (0.6 * s(5) + 0.3 * s(6) + 0.1 * s(7)),
        )
    }

    /// Slow deterministic gaze wandering, radians.
    fn gaze_yaw(&self, t: f64, range: f64) -> f64 {
        let s = |k: usize| (t * self.freqs[k] * 0.5 * std::f64::consts::TAU + self.phases[k]).sin();
        range * (0.7 * s(8) + 0.3 * s(0))
    }

    /// Position and heading along the closed waypoint loop at arc-length
    /// `dist`.
    fn along_loop(&self, waypoints: &[Vec3], dist: f64) -> (Vec3, Vec3) {
        let lengths = &self.legs.legs;
        let mut d = dist % self.legs.total;
        for i in 0..waypoints.len() {
            if d <= lengths[i] {
                let a = waypoints[i];
                let b = waypoints[(i + 1) % waypoints.len()];
                let dir = (b - a) / lengths[i];
                return (a + dir * d, dir);
            }
            d -= lengths[i];
        }
        (waypoints[0], Vec3::new(0.0, 0.0, 1.0))
    }

    /// Ground-truth avatar state at `t_secs` seconds since session start.
    pub fn state_at(&self, t_secs: f64) -> AvatarState {
        let t = t_secs.max(0.0);
        let (floor_pos, velocity, facing, height) = match &self.script {
            MotionScript::SeatedLecture { seat } => (
                *seat + self.sway(t, 0.03),
                self.sway_velocity(t, 0.03),
                self.gaze_yaw(t, 0.6),
                SEATED_HEIGHT,
            ),
            MotionScript::Presenter { center, area_half } => {
                // Lissajous walk inside the podium area.
                let x = area_half.x * (t * 0.11 * std::f64::consts::TAU + self.phases[0]).sin();
                let z = area_half.z * (t * 0.07 * std::f64::consts::TAU + self.phases[5]).sin();
                let vx = area_half.x
                    * 0.11
                    * std::f64::consts::TAU
                    * (t * 0.11 * std::f64::consts::TAU + self.phases[0]).cos();
                let vz = area_half.z
                    * 0.07
                    * std::f64::consts::TAU
                    * (t * 0.07 * std::f64::consts::TAU + self.phases[5]).cos();
                (
                    *center + Vec3::new(x, 0.0, z),
                    Vec3::new(vx, 0.0, vz),
                    self.gaze_yaw(t, 0.9),
                    STANDING_HEIGHT,
                )
            }
            MotionScript::GroupWork { tables, dwell_secs } => {
                if tables.is_empty() {
                    (Vec3::ZERO, Vec3::ZERO, 0.0, STANDING_HEIGHT)
                } else if tables.len() == 1 {
                    (
                        tables[0] + self.sway(t, 0.05),
                        self.sway_velocity(t, 0.05),
                        self.gaze_yaw(t, 1.2),
                        STANDING_HEIGHT,
                    )
                } else {
                    // Alternate dwell (at a table) and walk (to the next).
                    let dwell = *dwell_secs;
                    let mut tt = t % self.legs.total;
                    let mut out = (tables[0], Vec3::ZERO, 0.0, STANDING_HEIGHT);
                    for (i, &walk) in self.legs.legs.iter().enumerate() {
                        if tt < dwell {
                            let p = tables[i] + self.sway(t, 0.05);
                            out = (
                                p,
                                self.sway_velocity(t, 0.05),
                                self.gaze_yaw(t, 1.2),
                                STANDING_HEIGHT,
                            );
                            break;
                        }
                        tt -= dwell;
                        if tt < walk {
                            let next = tables[(i + 1) % tables.len()];
                            let dir = (next - tables[i]).normalized().unwrap_or(Vec3::ZERO);
                            let p = tables[i] + dir * (GROUP_WALK_SPEED * tt);
                            out = (p, dir * GROUP_WALK_SPEED, dir.x.atan2(dir.z), STANDING_HEIGHT);
                            break;
                        }
                        tt -= walk;
                    }
                    out
                }
            }
            MotionScript::Navigation { waypoints, speed } => {
                if waypoints.len() < 2 {
                    let p = waypoints.first().copied().unwrap_or(Vec3::ZERO);
                    (p, Vec3::ZERO, 0.0, STANDING_HEIGHT)
                } else {
                    let (p, dir) = self.along_loop(waypoints, speed * t);
                    (p, dir * *speed, dir.x.atan2(dir.z), STANDING_HEIGHT)
                }
            }
        };

        let head_pos = floor_pos + Vec3::new(0.0, height, 0.0);
        let pitch = 0.08 * (t * 0.23 * std::f64::consts::TAU + self.phases[3]).sin();
        let orientation = Quat::from_euler(facing, pitch, 0.0);

        // Hands: resting offsets plus gesture sway, in the facing frame.
        let gesture = self.sway(t * 1.7, 0.08);
        let lh_local = Vec3::new(-0.25, -0.45, 0.15) + gesture;
        let rh_local = Vec3::new(0.25, -0.45, 0.15) - gesture;
        let yaw_rot = Quat::from_yaw(facing);

        AvatarState {
            head: Pose::new(head_pos, orientation),
            left_hand: head_pos + yaw_rot.rotate(lh_local),
            right_hand: head_pos + yaw_rot.rotate(rh_local),
            velocity,
            expression: self.expression_at(t),
        }
    }

    /// Analytic derivative of the sway term (for velocity ground truth).
    fn sway_velocity(&self, t: f64, amp: f64) -> Vec3 {
        let c = |k: usize| {
            let w = self.freqs[k] * std::f64::consts::TAU;
            w * (t * w + self.phases[k]).cos()
        };
        Vec3::new(
            amp * (0.6 * c(0) + 0.3 * c(1) + 0.1 * c(2)),
            amp * 0.3 * (0.7 * c(3) + 0.3 * c(4)),
            amp * (0.6 * c(5) + 0.3 * c(6) + 0.1 * c(7)),
        )
    }

    /// Deterministic expression track: periodic blinks plus speech-driven
    /// jaw/smile for talkative participants.
    fn expression_at(&self, t: f64) -> ExpressionFrame {
        let mut e = ExpressionFrame::neutral();
        // Blink every ~4 s, 150 ms closed.
        let blink_cycle = (t + self.blink_phase) % 4.0;
        if blink_cycle < 0.15 {
            e.set(BlendChannel::EyeBlinkLeft, 1.0);
            e.set(BlendChannel::EyeBlinkRight, 1.0);
        }
        // Speech bursts: talk for 3 s of every 10 s, scaled by talkativeness.
        let speech_cycle = (t + self.speech_phase) % 10.0;
        if speech_cycle < 3.0 && self.talkative > 0.3 {
            let jaw = 0.5 + 0.5 * (t * 6.0 * std::f64::consts::TAU).sin();
            e.set(BlendChannel::JawOpen, (jaw * self.talkative) as f32);
        }
        let smile = 0.15 + 0.1 * (t * 0.05 * std::f64::consts::TAU + self.phases[1]).sin();
        e.set(BlendChannel::MouthSmileLeft, smile as f32);
        e.set(BlendChannel::MouthSmileRight, smile as f32);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seated() -> Trajectory {
        Trajectory::new(MotionScript::SeatedLecture { seat: Vec3::new(4.0, 0.0, 6.0) }, 42)
    }

    #[test]
    fn state_is_a_pure_function_of_time() {
        let t = seated();
        for secs in [0.0, 0.5, 10.0, 1234.5] {
            assert_eq!(t.state_at(secs).head.position, t.state_at(secs).head.position);
        }
    }

    #[test]
    fn seated_participant_stays_near_the_seat() {
        let t = seated();
        for i in 0..600 {
            let st = t.state_at(i as f64 * 0.1);
            let d = st.head.position.distance(Vec3::new(4.0, SEATED_HEIGHT, 6.0));
            assert!(d < 0.15, "seated head wandered {d} m at sample {i}");
        }
    }

    #[test]
    fn different_seeds_give_different_motion() {
        let a = Trajectory::new(MotionScript::SeatedLecture { seat: Vec3::ZERO }, 1);
        let b = Trajectory::new(MotionScript::SeatedLecture { seat: Vec3::ZERO }, 2);
        assert!(a.state_at(1.0).head.position.distance(b.state_at(1.0).head.position) > 1e-6);
    }

    #[test]
    fn presenter_stays_inside_the_podium_area() {
        let t = Trajectory::new(
            MotionScript::Presenter {
                center: Vec3::new(10.0, 0.0, 2.0),
                area_half: Vec3::new(1.5, 0.0, 1.0),
            },
            3,
        );
        for i in 0..1000 {
            let p = t.state_at(i as f64 * 0.2).head.position;
            assert!((p.x - 10.0).abs() <= 1.5 + 1e-9);
            assert!((p.z - 2.0).abs() <= 1.0 + 1e-9);
            assert!((p.y - STANDING_HEIGHT).abs() < 1e-9);
        }
    }

    #[test]
    fn navigation_follows_waypoints_at_speed() {
        let wps = vec![Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0)];
        let t = Trajectory::new(MotionScript::Navigation { waypoints: wps, speed: 2.0 }, 5);
        let st = t.state_at(1.0); // 2 m along the first leg
        assert!((st.head.position.x - 2.0).abs() < 1e-9);
        assert!((st.velocity.norm() - 2.0).abs() < 1e-9);
        // Loop closes: at 10 s we've gone 20 m = a full loop.
        let back = t.state_at(10.0);
        assert!(back.head.position.x.abs() < 1e-6);
    }

    #[test]
    fn group_work_visits_tables_and_walks_between() {
        let tables = vec![Vec3::ZERO, Vec3::new(6.0, 0.0, 0.0)];
        let t = Trajectory::new(MotionScript::GroupWork { tables, dwell_secs: 5.0 }, 9);
        // During the first dwell the participant is near table 0.
        let p0 = t.state_at(1.0).head.position;
        assert!(p0.distance(Vec3::new(0.0, STANDING_HEIGHT, 0.0)) < 0.2);
        // Mid-walk (dwell 5 s + half of the 5 s walk) they are in between.
        let mid = t.state_at(7.5).head.position;
        assert!(mid.x > 1.0 && mid.x < 5.0, "mid-walk at {mid:?}");
        let v = t.state_at(7.5).velocity;
        assert!((v.norm() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn velocity_matches_finite_difference() {
        let t = Trajectory::new(
            MotionScript::Navigation {
                waypoints: vec![Vec3::ZERO, Vec3::new(5.0, 0.0, 0.0), Vec3::new(5.0, 0.0, 5.0)],
                speed: 1.5,
            },
            11,
        );
        let h = 1e-4;
        let secs = 2.0;
        let v = t.state_at(secs).velocity;
        let fd =
            (t.state_at(secs + h).head.position - t.state_at(secs - h).head.position) / (2.0 * h);
        assert!(v.distance(fd) < 1e-3, "analytic {v:?} vs fd {fd:?}");
    }

    #[test]
    fn expressions_blink_periodically() {
        let t = seated();
        let mut saw_blink = false;
        let mut saw_open = false;
        for i in 0..200 {
            let e = t.state_at(i as f64 * 0.05).expression;
            if e.get(BlendChannel::EyeBlinkLeft) > 0.5 {
                saw_blink = true;
            } else {
                saw_open = true;
            }
        }
        assert!(saw_blink && saw_open);
    }

    #[test]
    fn degenerate_scripts_do_not_panic() {
        let empty = Trajectory::new(MotionScript::GroupWork { tables: vec![], dwell_secs: 1.0 }, 1);
        assert!(empty.state_at(5.0).is_finite());
        let single = Trajectory::new(
            MotionScript::Navigation { waypoints: vec![Vec3::ZERO], speed: 1.0 },
            1,
        );
        assert!(single.state_at(5.0).is_finite());
        let negative_time = seated().state_at(-10.0);
        assert!(negative_time.is_finite());
    }

    // The per-call vectors of the looping scripts moved into `Trajectory::new`;
    // the old body, kept verbatim, must agree to the last bit.
    fn along_loop_as_first_written(waypoints: &[Vec3], dist: f64) -> (Vec3, Vec3) {
        debug_assert!(waypoints.len() >= 2);
        let mut lengths = Vec::with_capacity(waypoints.len());
        let mut total = 0.0;
        for i in 0..waypoints.len() {
            let a = waypoints[i];
            let b = waypoints[(i + 1) % waypoints.len()];
            let l = a.distance(b).max(1e-9);
            lengths.push(l);
            total += l;
        }
        let mut d = dist % total;
        for i in 0..waypoints.len() {
            if d <= lengths[i] {
                let a = waypoints[i];
                let b = waypoints[(i + 1) % waypoints.len()];
                let dir = (b - a) / lengths[i];
                return (a + dir * d, dir);
            }
            d -= lengths[i];
        }
        (waypoints[0], Vec3::new(0.0, 0.0, 1.0))
    }

    /// `Trajectory::state_at` as first written: leg lengths and segment
    /// times rebuilt in fresh vectors on every call.
    fn state_at_as_first_written(traj: &Trajectory, t_secs: f64) -> AvatarState {
        let t = t_secs.max(0.0);
        let (floor_pos, velocity, facing, height) = match &traj.script {
            MotionScript::SeatedLecture { seat } => (
                *seat + traj.sway(t, 0.03),
                traj.sway_velocity(t, 0.03),
                traj.gaze_yaw(t, 0.6),
                SEATED_HEIGHT,
            ),
            MotionScript::Presenter { center, area_half } => {
                // Lissajous walk inside the podium area.
                let x = area_half.x * (t * 0.11 * std::f64::consts::TAU + traj.phases[0]).sin();
                let z = area_half.z * (t * 0.07 * std::f64::consts::TAU + traj.phases[5]).sin();
                let vx = area_half.x
                    * 0.11
                    * std::f64::consts::TAU
                    * (t * 0.11 * std::f64::consts::TAU + traj.phases[0]).cos();
                let vz = area_half.z
                    * 0.07
                    * std::f64::consts::TAU
                    * (t * 0.07 * std::f64::consts::TAU + traj.phases[5]).cos();
                (
                    *center + Vec3::new(x, 0.0, z),
                    Vec3::new(vx, 0.0, vz),
                    traj.gaze_yaw(t, 0.9),
                    STANDING_HEIGHT,
                )
            }
            MotionScript::GroupWork { tables, dwell_secs } => {
                if tables.is_empty() {
                    (Vec3::ZERO, Vec3::ZERO, 0.0, STANDING_HEIGHT)
                } else if tables.len() == 1 {
                    (
                        tables[0] + traj.sway(t, 0.05),
                        traj.sway_velocity(t, 0.05),
                        traj.gaze_yaw(t, 1.2),
                        STANDING_HEIGHT,
                    )
                } else {
                    // Alternate dwell (at a table) and walk (to the next).
                    let walk_speed = 1.2;
                    let mut seg_times = Vec::with_capacity(tables.len());
                    let mut cycle = 0.0;
                    for i in 0..tables.len() {
                        let next = tables[(i + 1) % tables.len()];
                        let walk = tables[i].distance(next) / walk_speed;
                        seg_times.push((*dwell_secs, walk));
                        cycle += dwell_secs + walk;
                    }
                    let mut tt = t % cycle;
                    let mut out = (tables[0], Vec3::ZERO, 0.0, STANDING_HEIGHT);
                    for (i, &(dwell, walk)) in seg_times.iter().enumerate() {
                        if tt < dwell {
                            let p = tables[i] + traj.sway(t, 0.05);
                            out = (
                                p,
                                traj.sway_velocity(t, 0.05),
                                traj.gaze_yaw(t, 1.2),
                                STANDING_HEIGHT,
                            );
                            break;
                        }
                        tt -= dwell;
                        if tt < walk {
                            let next = tables[(i + 1) % tables.len()];
                            let dir = (next - tables[i]).normalized().unwrap_or(Vec3::ZERO);
                            let p = tables[i] + dir * (walk_speed * tt);
                            out = (p, dir * walk_speed, dir.x.atan2(dir.z), STANDING_HEIGHT);
                            break;
                        }
                        tt -= walk;
                    }
                    out
                }
            }
            MotionScript::Navigation { waypoints, speed } => {
                if waypoints.len() < 2 {
                    let p = waypoints.first().copied().unwrap_or(Vec3::ZERO);
                    (p, Vec3::ZERO, 0.0, STANDING_HEIGHT)
                } else {
                    let (p, dir) = along_loop_as_first_written(waypoints, speed * t);
                    (p, dir * *speed, dir.x.atan2(dir.z), STANDING_HEIGHT)
                }
            }
        };

        let head_pos = floor_pos + Vec3::new(0.0, height, 0.0);
        let pitch = 0.08 * (t * 0.23 * std::f64::consts::TAU + traj.phases[3]).sin();
        let orientation = Quat::from_euler(facing, pitch, 0.0);

        // Hands: resting offsets plus gesture sway, in the facing frame.
        let gesture = traj.sway(t * 1.7, 0.08);
        let lh_local = Vec3::new(-0.25, -0.45, 0.15) + gesture;
        let rh_local = Vec3::new(0.25, -0.45, 0.15) - gesture;
        let yaw_rot = Quat::from_yaw(facing);

        AvatarState {
            head: Pose::new(head_pos, orientation),
            left_hand: head_pos + yaw_rot.rotate(lh_local),
            right_hand: head_pos + yaw_rot.rotate(rh_local),
            velocity,
            expression: traj.expression_at(t),
        }
    }

    fn bits(s: &AvatarState) -> Vec<u64> {
        let q = s.head.orientation;
        [s.head.position, s.left_hand, s.right_hand, s.velocity]
            .iter()
            .flat_map(|v| [v.x, v.y, v.z])
            .chain([q.w, q.x, q.y, q.z])
            .map(f64::to_bits)
            .chain(s.expression.weights().iter().map(|w| u64::from(w.to_bits())))
            .collect()
    }

    #[test]
    fn precomputed_legs_leave_every_script_bit_identical() {
        let square = vec![
            Vec3::new(1.0, 0.0, 1.0),
            Vec3::new(7.5, 0.0, 1.0),
            Vec3::new(7.5, 0.0, 6.25),
            Vec3::new(1.0, 0.0, 6.25),
        ];
        let scripts = [
            MotionScript::SeatedLecture { seat: Vec3::new(4.0, 0.0, 6.0) },
            MotionScript::Presenter {
                center: Vec3::new(10.0, 0.0, 2.0),
                area_half: Vec3::new(1.5, 0.0, 1.0),
            },
            MotionScript::GroupWork { tables: vec![], dwell_secs: 3.0 },
            MotionScript::GroupWork { tables: square[..1].to_vec(), dwell_secs: 3.0 },
            MotionScript::GroupWork { tables: square.clone(), dwell_secs: 3.0 },
            MotionScript::GroupWork { tables: square[..2].to_vec(), dwell_secs: 0.0 },
            MotionScript::Navigation { waypoints: vec![], speed: 1.4 },
            MotionScript::Navigation { waypoints: square[..1].to_vec(), speed: 1.4 },
            MotionScript::Navigation { waypoints: square.clone(), speed: 1.4 },
            // A repeated waypoint: the zero-length leg is floored, not divided by.
            MotionScript::Navigation {
                waypoints: vec![square[0], square[0], square[2]],
                speed: 0.7,
            },
        ];
        for (k, script) in scripts.into_iter().enumerate() {
            let traj = Trajectory::new(script, 40 + k as u64);
            // A 60 Hz grid over several loops, then sparse far-out times.
            let grid = (0..6_000).map(|i| i as f64 / 60.0);
            for t in grid.chain([-1.0, 1e3, 12_345.678, 1e6]) {
                assert_eq!(
                    bits(&traj.state_at(t)),
                    bits(&state_at_as_first_written(&traj, t)),
                    "script {k} at t = {t}"
                );
            }
        }
    }
}
