//! The remote-audience hot path against its plain reference forms.
//!
//! `JitterBuffer::push` keeps its delay window sorted incrementally and drops
//! states behind the playout horizon; `InterestManager::select` ranks only
//! the winners. Both must return exactly what the straightforward versions
//! return — re-sort the window on every push and never trim; score every
//! entity in range and sort them all — which live on here as oracles.

use std::collections::{BTreeMap, VecDeque};

use metaclass_avatar::{AvatarId, AvatarState, Vec3};
use metaclass_netsim::{SimDuration, SimTime};
use metaclass_sync::{
    InterestConfig, InterestManager, JitterBuffer, JitterBufferConfig, SubscriberId, Viewpoint,
};
use proptest::prelude::*;

/// The jitter buffer as first written: collect-and-sort adaptation, insert
/// then evict, nothing dropped before `sample` asks for it.
struct RefJitterBuffer {
    cfg: JitterBufferConfig,
    entries: VecDeque<(SimTime, AvatarState)>,
    delay_samples: VecDeque<u64>,
    delay: SimDuration,
    late_drops: u64,
    last_playout: Option<SimTime>,
}

impl RefJitterBuffer {
    fn new(cfg: JitterBufferConfig) -> Self {
        RefJitterBuffer {
            delay: cfg.initial_delay,
            cfg,
            entries: VecDeque::new(),
            delay_samples: VecDeque::new(),
            late_drops: 0,
            last_playout: None,
        }
    }

    fn push(&mut self, capture_time: SimTime, arrival_time: SimTime, state: AvatarState) -> bool {
        let delay = arrival_time.duration_since(capture_time);
        if self.delay_samples.len() == self.cfg.window {
            self.delay_samples.pop_front();
        }
        self.delay_samples.push_back(delay.as_nanos());
        self.adapt();

        if let Some(played) = self.last_playout {
            if capture_time <= played {
                self.late_drops += 1;
                return false;
            }
        }
        let pos =
            self.entries.iter().rposition(|(t, _)| *t <= capture_time).map(|i| i + 1).unwrap_or(0);
        if pos > 0 && self.entries[pos - 1].0 == capture_time {
            self.entries[pos - 1].1 = state;
        } else {
            self.entries.insert(pos, (capture_time, state));
        }
        while self.entries.len() > self.cfg.capacity {
            self.entries.pop_front();
        }
        true
    }

    fn adapt(&mut self) {
        if self.delay_samples.len() < 8 {
            return;
        }
        let mut sorted: Vec<u64> = self.delay_samples.iter().copied().collect();
        sorted.sort_unstable();
        let min = sorted[0];
        let p95 = sorted[((sorted.len() as f64 * 0.95) as usize).min(sorted.len() - 1)];
        let var = SimDuration::from_nanos(p95 - min) + self.cfg.margin;
        self.delay = var.max(self.cfg.min_delay).min(self.cfg.max_delay);
    }

    fn sample(&mut self, now: SimTime) -> Option<AvatarState> {
        let playout = now - self.delay.min(now.duration_since(SimTime::ZERO));
        self.last_playout = Some(playout);
        while self.entries.len() >= 2 && self.entries[1].0 <= playout {
            self.entries.pop_front();
        }
        match self.entries.len() {
            0 => None,
            1 => {
                let (t, st) = &self.entries[0];
                Some(if *t <= playout {
                    st.extrapolate(playout.duration_since(*t).as_secs_f64())
                } else {
                    *st
                })
            }
            _ => {
                let (t0, s0) = &self.entries[0];
                let (t1, s1) = &self.entries[1];
                if playout <= *t0 {
                    Some(*s0)
                } else {
                    let span = t1.duration_since(*t0).as_secs_f64();
                    let frac = if span <= 0.0 {
                        1.0
                    } else {
                        playout.duration_since(*t0).as_secs_f64() / span
                    };
                    Some(s0.interpolate(s1, frac))
                }
            }
        }
    }
}

/// Interest selection as first written — three staleness lookups per
/// candidate and a full sort — over a brute-force range scan in place of the
/// spatial grid (the strict order makes the result independent of the order
/// candidates are found in).
struct RefInterest {
    cfg: InterestConfig,
    entities: BTreeMap<AvatarId, (Vec3, f64)>,
    staleness: BTreeMap<SubscriberId, BTreeMap<AvatarId, u32>>,
}

impl RefInterest {
    fn new(cfg: InterestConfig) -> Self {
        RefInterest { cfg, entities: BTreeMap::new(), staleness: BTreeMap::new() }
    }

    fn update_entity(&mut self, id: AvatarId, position: Vec3, importance: f64) {
        self.entities.insert(id, (position, importance.clamp(0.0, 1.0)));
    }

    fn remove_entity(&mut self, id: AvatarId) {
        self.entities.remove(&id);
        for per_sub in self.staleness.values_mut() {
            per_sub.remove(&id);
        }
    }

    fn select_with_min_importance(
        &mut self,
        sub: SubscriberId,
        view: Viewpoint,
        budget: usize,
        min_importance: f64,
    ) -> Vec<AvatarId> {
        let candidates: Vec<AvatarId> = self
            .entities
            .iter()
            .filter(|(_, (position, importance))| {
                position.distance(view.position) <= self.cfg.radius && *importance >= min_importance
            })
            .map(|(id, _)| *id)
            .collect();
        let stale_map = self.staleness.entry(sub).or_default();

        let fov_cos = (self.cfg.fov_half_angle_deg.to_radians()).cos();
        let gaze = Vec3::new(view.yaw.sin(), 0.0, view.yaw.cos());

        let mut scored: Vec<(f64, AvatarId)> = candidates
            .iter()
            .map(|&id| {
                let (position, importance) = self.entities[&id];
                let to = position - view.position;
                let dist = to.norm();
                let mut score = 1.0 / (1.0 + dist * dist);
                if let Some(dir) = Vec3::new(to.x, 0.0, to.z).normalized() {
                    if dir.dot(gaze) >= fov_cos {
                        score *= self.cfg.fov_boost;
                    }
                }
                score += self.cfg.importance_weight * importance;
                let stale = *stale_map.get(&id).unwrap_or(&1_000_000) as f64;
                score += self.cfg.staleness_weight * stale;
                (score, id)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
        });
        let selected: Vec<AvatarId> = scored.iter().take(budget).map(|(_, id)| *id).collect();

        for &id in &candidates {
            let s = stale_map.entry(id).or_insert(1_000);
            *s = s.saturating_add(1);
        }
        for id in &selected {
            stale_map.insert(*id, 0);
        }
        selected
    }
}

fn st(x: f64) -> AvatarState {
    let mut state = AvatarState::at_position(Vec3::new(x, 1.6, 0.0));
    state.velocity = Vec3::new(0.3, 0.0, -0.2); // extrapolation is not a no-op
    state
}

/// Buffer shapes the playout property runs under: the default, a tight
/// capacity (eviction outruns the horizon), a single slot, and an initial
/// delay above `max_delay` (the horizon must honour it until adaptation).
fn buffer_shapes() -> [JitterBufferConfig; 4] {
    let base = JitterBufferConfig::default();
    [
        base,
        JitterBufferConfig { capacity: 4, window: 8, ..base },
        JitterBufferConfig { capacity: 1, ..base },
        JitterBufferConfig { initial_delay: SimDuration::from_millis(400), window: 16, ..base },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // (a) The incrementally sorted window adapts to the same delay as
    // collecting and sorting it, push by push, duplicates included.
    #[test]
    fn playout_delay_matches_collect_and_sort(
        window_choice in 0usize..3,
        delays_ms in proptest::collection::vec(0u64..60, 384..=420),
    ) {
        let cfg = JitterBufferConfig { window: [1, 8, 128][window_choice], ..Default::default() };
        let mut fast = JitterBuffer::new(cfg);
        let mut slow = RefJitterBuffer::new(cfg);
        for (i, delay_ms) in delays_ms.into_iter().enumerate() {
            let capture = SimTime::from_millis(i as u64 * 20);
            let arrival = capture + SimDuration::from_millis(delay_ms);
            fast.push(capture, arrival, st(i as f64));
            slow.push(capture, arrival, st(i as f64));
            prop_assert_eq!(fast.playout_delay(), slow.delay, "after push {}", i);
        }
    }

    // (b) Dropping states behind the playout horizon changes nothing a
    // caller can observe: out-of-order and duplicate captures, samples
    // interleaved at a clock that never runs back.
    #[test]
    fn trimmed_buffer_plays_out_what_the_untrimmed_one_does(
        shape in 0usize..4,
        ops in proptest::collection::vec((0u32..4, 0u64..40_000, 0u64..400_000, -5.0..5.0f64), 1..400),
    ) {
        let cfg = buffer_shapes()[shape];
        let mut fast = JitterBuffer::new(cfg);
        let mut slow = RefJitterBuffer::new(cfg);
        let mut clock_us = 0u64;
        for (kind, advance_us, age_us, x) in ops {
            clock_us += advance_us;
            let now = SimTime::from_micros(clock_us);
            if kind == 0 {
                prop_assert_eq!(fast.sample(now), slow.sample(now), "sample at {} us", clock_us);
            } else {
                // A 5 ms capture grid makes duplicate capture times common.
                let capture = SimTime::from_micros(clock_us.saturating_sub(age_us) / 5_000 * 5_000);
                prop_assert_eq!(
                    fast.push(capture, now, st(x)),
                    slow.push(capture, now, st(x)),
                    "push at {} us", clock_us
                );
                prop_assert!(fast.len() <= slow.entries.len());
            }
            prop_assert_eq!(fast.late_drop_count(), slow.late_drops);
            prop_assert_eq!(fast.playout_delay(), slow.delay);
        }
        let end = SimTime::from_micros(clock_us);
        prop_assert_eq!(fast.sample(end), slow.sample(end));
    }

    // (c) Ranking only the winners returns the full sort's prefix, tick
    // after tick, so staleness evolves identically: entities on a unit
    // lattice (exact score ties; few enough or many enough occupied cells for
    // either grid walk), every budget regime, every shed rung.
    #[test]
    fn top_k_selection_matches_the_full_sort(
        entities in proptest::collection::vec((0u32..80, 0u32..9, 0u32..9, 0u32..3), 1..120),
        budget_choice in 0usize..4,
        floor_choice in 0usize..3,
        rounds in proptest::collection::vec((0u32..80, 0u32..9, 0u32..9, 0u32..8), 50),
    ) {
        let budget = [0, 1, 5, 1_000][budget_choice];
        let min_importance = [f64::NEG_INFINITY, 0.5, 1.0][floor_choice];
        let place = |gx: u32, gz: u32| Vec3::new(gx as f64, 0.0, gz as f64);
        let cfg = InterestConfig { radius: 2.5, cell_size: 1.0, ..Default::default() };
        let mut fast = InterestManager::new(cfg);
        let mut slow = RefInterest::new(cfg);
        for (id, gx, gz, level) in entities {
            fast.update_entity(AvatarId(id), place(gx, gz), level as f64 / 2.0);
            slow.update_entity(AvatarId(id), place(gx, gz), level as f64 / 2.0);
        }
        for (tick, (id, gx, gz, turn)) in rounds.into_iter().enumerate() {
            // One entity moves (and speaks up or falls silent) or leaves
            // every tick.
            if turn == 7 {
                fast.remove_entity(AvatarId(id));
                slow.remove_entity(AvatarId(id));
            } else {
                fast.update_entity(AvatarId(id), place(gx, gz), (turn % 3) as f64 / 2.0);
                slow.update_entity(AvatarId(id), place(gx, gz), (turn % 3) as f64 / 2.0);
            }
            let sub = SubscriberId(tick as u32 % 2);
            let view = Viewpoint { position: place(4 + tick as u32 % 2, 4), yaw: turn as f64 * 0.8 };
            prop_assert_eq!(
                fast.select_with_min_importance(sub, view, budget, min_importance),
                slow.select_with_min_importance(sub, view, budget, min_importance),
                "tick {}", tick
            );
        }
    }
}

// (d) A buffer nobody samples holds what a playout could still reach —
// `max_delay` worth of updates plus the one before — not `capacity` states.
#[test]
fn an_unsampled_buffer_stays_within_the_playout_horizon() {
    let cfg = JitterBufferConfig::default();
    let mut jb = JitterBuffer::new(cfg);
    let bound = (cfg.max_delay.as_secs_f64() * 30.0).ceil() as usize + 2;
    let mut jitter = 0x2545_f491_4f6c_dd1du64;
    for i in 0..(60 * 30u64) {
        jitter ^= jitter << 13;
        jitter ^= jitter >> 7;
        jitter ^= jitter << 17;
        let capture = SimTime::from_nanos(i * 1_000_000_000 / 30);
        // 20–50 ms of network delay: less spread than the 33 ms spacing, so
        // arrivals stay in order.
        let arrival = capture + SimDuration::from_micros(20_000 + jitter % 30_000);
        jb.push(capture, arrival, st(i as f64));
        assert!(jb.len() <= bound, "{} states after push {i}, bound {bound}", jb.len());
    }
    assert!(jb.len() >= 7, "the reachable states themselves are kept, got {}", jb.len());
}
