//! The hot paths against their plain reference forms.
//!
//! `JitterBuffer::push` keeps only its delay window's floor and largest
//! samples up to date and drops states behind the playout horizon;
//! `InterestManager::select` scores a slot table and ranks only the winners;
//! `SnapshotSender` keeps its unacknowledged history as a dense ring of
//! quantized states and `SnapshotReceiver` its references as a
//! sequence-sorted ring of quantized states that evicts before it inserts.
//! All must return exactly what the straightforward versions return — re-read the whole
//! window on every push and never trim; key everything by id, score every entity in
//! range and sort them all; file reconstructed float states in a `BTreeMap`
//! by sequence, re-quantize the reference for every delta, insert then evict
//! — which live on here as oracles. A jitter buffer of grid states, as a
//! remote client keeps, must play out what one of float states does.
//!
//! `SnapshotReceiver` also drops every state older than an applied delta's
//! reference. Against arbitrary traffic it matches the map given the same
//! rule; on a FIFO link, where a sender can name nothing older, it matches
//! the map without it, answer for answer.

use std::collections::{BTreeMap, VecDeque};

use metaclass_avatar::{
    AvatarCodec, AvatarId, AvatarState, CodecConfig, CodecError, FramePayload, QuantizedState,
    Quat, SpaceBounds, Vec3,
};
use metaclass_netsim::{SimDuration, SimTime};
use metaclass_sync::{
    InterestConfig, InterestManager, JitterBuffer, JitterBufferConfig, PoseFrame, SnapshotReceiver,
    SnapshotSender, SubscriberId, Viewpoint,
};
use proptest::prelude::*;

/// The jitter buffer as first written: adaptation from a fresh copy of the
/// window (its floor, and the element sorting it would put at the 95th
/// percentile), insert then evict, nothing dropped before `sample` asks
/// for it.
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
        // What sorting the window would put at its two indices.
        let mut window: Vec<u64> = self.delay_samples.iter().copied().collect();
        let n = window.len();
        let min = *window.iter().min().expect("at least 8 samples");
        let p95 = *window.select_nth_unstable(((n as f64 * 0.95) as usize).min(n - 1)).1;
        let var = SimDuration::from_nanos(p95 - min) + self.cfg.margin;
        self.delay = var.max(JitterBuffer::MIN_DELAY).min(JitterBuffer::MAX_DELAY);
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

    fn remove_subscriber(&mut self, sub: SubscriberId) {
        self.staleness.remove(&sub);
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

        let fov_cos = (InterestManager::FOV_HALF_ANGLE_DEG.to_radians()).cos();
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
                        score *= InterestManager::FOV_BOOST;
                    }
                }
                score += InterestManager::IMPORTANCE_WEIGHT * importance;
                let stale = *stale_map.get(&id).unwrap_or(&1_000_000) as f64;
                score += InterestManager::STALENESS_WEIGHT * stale;
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

/// The snapshot sender as first written: reconstructed float states in a
/// `BTreeMap` by sequence, the reference looked up and re-quantized for each
/// delta, acknowledged history dropped by `retain`. (`encode_full`,
/// `encode_delta` and `reconstruct` are themselves pinned to their original
/// float-domain bodies by `metaclass-avatar`'s `frame_path` test.)
struct RefSnapshotSender {
    codec: AvatarCodec,
    history: BTreeMap<u64, AvatarState>,
    next_seq: u64,
    last_acked: Option<u64>,
    keyframe_interval: u64,
    since_keyframe: u64,
    force_keyframe: bool,
}

impl RefSnapshotSender {
    fn new(codec: AvatarCodec, keyframe_interval: u64) -> Self {
        RefSnapshotSender {
            codec,
            history: BTreeMap::new(),
            next_seq: 0,
            last_acked: None,
            keyframe_interval,
            since_keyframe: 0,
            force_keyframe: false,
        }
    }

    /// `(seq, ref_seq, payload)`.
    fn encode(&mut self, state: &AvatarState) -> (u64, Option<u64>, Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;

        let reference = if self.force_keyframe || self.since_keyframe >= self.keyframe_interval {
            None
        } else {
            self.last_acked.and_then(|a| self.history.get(&a).map(|s| (a, *s)))
        };

        let frame = match reference {
            Some((ref_seq, ref_state)) => {
                self.since_keyframe += 1;
                (seq, Some(ref_seq), self.codec.encode_delta(&ref_state, state))
            }
            None => {
                self.since_keyframe = 0;
                self.force_keyframe = false;
                (seq, None, self.codec.encode_full(state))
            }
        };
        self.history.insert(seq, self.codec.reconstruct(state));
        frame
    }

    fn on_ack(&mut self, seq: u64) {
        if !self.history.contains_key(&seq) {
            return;
        }
        if self.last_acked.is_some_and(|a| a >= seq) {
            return;
        }
        self.last_acked = Some(seq);
        self.history.retain(|&s, _| s >= seq);
    }

    fn request_keyframe(&mut self) {
        self.force_keyframe = true;
    }
}

/// The snapshot receiver as first written: a `BTreeMap` by sequence that
/// inserts, then evicts its smallest keys down to capacity. A `pruning` one
/// first drops every key below an applied delta's reference.
struct RefSnapshotReceiver {
    codec: AvatarCodec,
    states: BTreeMap<u64, AvatarState>,
    latest_seq: Option<u64>,
    needs_keyframe: bool,
    capacity: usize,
    prunes: bool,
}

impl RefSnapshotReceiver {
    fn new(codec: AvatarCodec) -> Self {
        RefSnapshotReceiver {
            codec,
            states: BTreeMap::new(),
            latest_seq: None,
            needs_keyframe: false,
            capacity: 128,
            prunes: false,
        }
    }

    fn pruning(codec: AvatarCodec) -> Self {
        RefSnapshotReceiver { prunes: true, ..Self::new(codec) }
    }

    fn decode(&mut self, frame: &PoseFrame) -> Result<Option<AvatarState>, CodecError> {
        let reference = match frame.ref_seq {
            None => None,
            Some(r) => match self.states.get(&r) {
                Some(s) => Some(*s),
                None => {
                    self.needs_keyframe = true;
                    return Ok(None);
                }
            },
        };
        let state = self.codec.decode(reference.as_ref(), &frame.payload)?;
        if let (true, Some(r)) = (self.prunes, frame.ref_seq) {
            self.states = self.states.split_off(&r);
        }
        self.states.insert(frame.seq, state);
        while self.states.len() > self.capacity {
            let oldest = *self.states.keys().next().expect("non-empty");
            self.states.remove(&oldest);
        }
        if self.latest_seq.is_none_or(|l| frame.seq > l) {
            self.latest_seq = Some(frame.seq);
            self.needs_keyframe = false;
        }
        Ok(Some(state))
    }

    fn latest(&self) -> Option<(u64, &AvatarState)> {
        let seq = self.latest_seq?;
        Some((seq, &self.states[&seq]))
    }

    fn take_keyframe_request(&mut self) -> bool {
        std::mem::take(&mut self.needs_keyframe)
    }
}

/// Every float of a state as its bit pattern: "identical" means to the bit.
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

fn decoded_bits(
    r: &Result<Option<AvatarState>, CodecError>,
) -> Result<Option<Vec<u64>>, CodecError> {
    r.map(|applied| applied.as_ref().map(bits))
}

/// A walker whose heading hovers around a quarter turn, where two quaternion
/// components tie and the reconstructed orientation re-quantizes with a
/// different dropped component than the source did: the case in which a
/// sender must keep the *re-quantized* reference, not the frame's own grid
/// form, to write the bytes the float-domain sender wrote.
fn walker(x: f64, heading: u32) -> AvatarState {
    let mut state = AvatarState::at_position(Vec3::new(10.0 + x, 1.6, 7.0 - 0.5 * x));
    let yaw =
        std::f64::consts::FRAC_PI_2 + (heading as f64 - 2.0) * [1e-5, 0.3][heading as usize % 2];
    state.head.orientation = Quat::from_yaw(yaw);
    state.velocity = Vec3::new(0.4 * x, 0.0, -0.1);
    state
}

/// Codecs the snapshot properties run under: the crate default, and the
/// shape every session stream uses (`metaclass_core::protocol_codec`, built
/// here because this crate cannot depend on `core`): auditorium bounds at
/// 15 position bits.
fn snapshot_codecs() -> [AvatarCodec; 2] {
    let protocol = CodecConfig {
        bounds: SpaceBounds::auditorium(),
        position_bits: 15,
        ..CodecConfig::default()
    };
    [AvatarCodec::with_defaults(), AvatarCodec::new(protocol)]
}

fn st(x: f64) -> AvatarState {
    let mut state = AvatarState::at_position(Vec3::new(x, 1.6, 0.0));
    state.velocity = Vec3::new(0.3, 0.0, -0.2); // extrapolation is not a no-op
    state
}

/// Buffer shapes the playout property runs under: the default, a tight
/// capacity (eviction outruns the horizon), a single slot, and an initial
/// delay above `MAX_DELAY` (the horizon must honour it until adaptation).
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

    // (a) The window's floor and largest samples, rescanned only when the
    // sample leaving the window was one of them, adapt to the same delay as
    // collecting and sorting the window, push by push: window sizes below,
    // at and above the 8-sample threshold and the default, four delay
    // shapes — uniform over 60 ms; 0–3 ms, so ties sit on the boundary of
    // the kept largest samples; long monotone runs, so the sample leaving
    // is the floor or among the largest push after push; and uniform over
    // 60 ms for half a window, then uniform over 4.20–4.38 s, straddling
    // 2^32 ns (4.295 s), so the window's 32-bit block widens with the ring
    // full or partly filled and its spread keeps the delay off its clamps.
    #[test]
    fn playout_delay_matches_collect_and_sort(
        window_choice in 0usize..6,
        shape in 0usize..4,
        draws in proptest::collection::vec((0u64..60_000, 0u64..1_000, any::<bool>()), 2_100),
    ) {
        let window = [1, 7, 8, 20, 128, 1_000][window_choice];
        let cfg = JitterBufferConfig { window, ..Default::default() };
        let mut fast = JitterBuffer::new(cfg);
        let mut slow = RefJitterBuffer::new(cfg);
        let (mut level_us, mut run_left, mut rising) = (100_000u64, 0u64, true);
        let pushes = (2 * window + 100).max(400);
        for (i, (uniform_us, run, up)) in draws.into_iter().take(pushes).enumerate() {
            let delay_us = match shape {
                0 => uniform_us,
                1 => uniform_us % 4 * 1_000,
                3 if i <= window / 2 => uniform_us,
                3 => 4_200_000 + uniform_us * 3,
                _ => {
                    if run_left == 0 {
                        // Runs of up to twice the window, up or down.
                        (run_left, rising) = (1 + run * 2 * window as u64 / 1_000, up);
                    }
                    run_left -= 1;
                    let step = uniform_us % 3 * 1_000;
                    level_us = if rising { (level_us + step).min(500_000) } else { level_us.saturating_sub(step) };
                    level_us
                }
            };
            let capture = SimTime::from_millis(i as u64 * 20);
            let arrival = capture + SimDuration::from_micros(delay_us);
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

    // (c) Ranking only the winners over the slot table returns the full
    // sort's prefix, tick after tick, so staleness evolves identically:
    // entities on a unit lattice (exact score ties; few enough or many
    // enough occupied cells for either grid walk), every budget regime, every
    // shed rung; ids removed and re-added, freed slots taken by ids never
    // seen before, subscribers first seen after removals, and subscribers
    // dropped and then selecting afresh. Lattice and radius are in units of
    // the grid cell.
    #[test]
    fn top_k_selection_matches_the_full_sort(
        entities in proptest::collection::vec((0u32..80, 0u32..9, 0u32..9, 0u32..3), 1..120),
        budget_choice in 0usize..4,
        floor_choice in 0usize..3,
        rounds in proptest::collection::vec(((0u32..120, 0u32..9, 0u32..9), (0u32..10, 0u32..4)), 80),
    ) {
        let budget = [0, 1, 5, 1_000][budget_choice];
        let min_importance = [f64::NEG_INFINITY, 0.5, 1.0][floor_choice];
        let cell = InterestManager::CELL_SIZE;
        let place = |gx: u32, gz: u32| Vec3::new(gx as f64 * cell, 0.0, gz as f64 * cell);
        let cfg = InterestConfig { radius: 2.5 * cell };
        let mut fast = InterestManager::new(cfg);
        let mut slow = RefInterest::new(cfg);
        for (id, gx, gz, level) in entities {
            fast.update_entity(AvatarId(id), place(gx, gz), level as f64 / 2.0);
            slow.update_entity(AvatarId(id), place(gx, gz), level as f64 / 2.0);
        }
        for (tick, ((id, gx, gz), (turn, sub))) in rounds.into_iter().enumerate() {
            // One entity moves (and speaks up or falls silent) or leaves
            // every tick; ids from 80 up join only here, into freed slots
            // once there are any.
            if turn >= 7 {
                fast.remove_entity(AvatarId(id));
                slow.remove_entity(AvatarId(id));
            } else {
                fast.update_entity(AvatarId(id), place(gx, gz), (turn % 3) as f64 / 2.0);
                slow.update_entity(AvatarId(id), place(gx, gz), (turn % 3) as f64 / 2.0);
            }
            // Subscribers 2 and 3 first select after a score of removals.
            let sub = SubscriberId(if tick < 30 { sub % 2 } else { sub });
            if turn == 9 {
                fast.remove_subscriber(sub);
                slow.remove_subscriber(sub);
            }
            let view = Viewpoint { position: place(4 + tick as u32 % 2, 4), yaw: turn as f64 * 0.8 };
            let picked = fast.select_with_min_importance(sub, view, budget, min_importance).to_vec();
            prop_assert_eq!(
                &picked,
                &slow.select_with_min_importance(sub, view, budget, min_importance),
                "tick {}", tick
            );
            let slots: Vec<usize> =
                picked.iter().map(|&id| fast.slot_of(id).expect("selected ids are tracked")).collect();
            prop_assert_eq!(fast.selected_slots(), &slots[..], "tick {}", tick);
        }
    }
}

// (d) A buffer nobody samples holds what a playout could still reach —
// `MAX_DELAY` worth of updates plus the one before — not `capacity` states.
#[test]
fn an_unsampled_buffer_stays_within_the_playout_horizon() {
    let mut jb = JitterBuffer::new(JitterBufferConfig::default());
    let bound = (JitterBuffer::MAX_DELAY.as_secs_f64() * 30.0).ceil() as usize + 2;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // (e) One stream through an arbitrary network: frames lost (never
    // delivered), duplicated and reordered (delivered again, in any order),
    // corrupted (cut short), acknowledgements relayed late or not at all,
    // forged (stale, unknown, from the future), keyframe requests relayed or
    // dropped. Ring sender and receiver must match the map versions frame
    // for frame and answer for answer, the map receiver pruning as the ring
    // does: a reordered frame may name a state already dropped.
    #[test]
    fn ring_snapshot_pair_matches_the_map_pair(
        shape in 0usize..2,
        interval_choice in 0usize..3,
        ops in proptest::collection::vec((0u32..10, any::<u64>(), -3.0..3.0f64, 0u32..5), 1..300),
    ) {
        let interval = [1, 7, 60][interval_choice];
        let codec = || snapshot_codecs()[shape].clone();
        let (mut fast_tx, mut slow_tx) =
            (SnapshotSender::new(codec(), interval), RefSnapshotSender::new(codec(), interval));
        let (mut fast_rx, mut slow_rx) =
            (SnapshotReceiver::new(codec()), RefSnapshotReceiver::pruning(codec()));
        let mut wire: Vec<PoseFrame> = Vec::new();
        let mut last = walker(0.0, 2);
        for (step, (kind, pick, x, heading)) in ops.into_iter().enumerate() {
            match kind {
                0..=3 => {
                    // One send in four repeats the previous state: the
                    // all-unchanged delta.
                    if kind != 0 {
                        last = walker(x, heading);
                    }
                    let frame = fast_tx.encode(&last);
                    let (seq, ref_seq, payload) = slow_tx.encode(&last);
                    prop_assert_eq!(
                        (frame.seq, frame.ref_seq, &frame.payload[..]),
                        (seq, ref_seq, &payload[..]),
                        "step {}", step
                    );
                    wire.push(frame);
                }
                4 | 5 if !wire.is_empty() => {
                    let frame = &wire[pick as usize % wire.len()];
                    prop_assert_eq!(
                        decoded_bits(&fast_rx.decode(frame)),
                        decoded_bits(&slow_rx.decode(frame)),
                        "step {}: frame {}", step, frame.seq
                    );
                }
                6 if !wire.is_empty() => {
                    let mut frame = wire[pick as usize % wire.len()].clone();
                    let keep = (pick >> 32) as usize % frame.payload.len();
                    frame.payload = FramePayload::try_from(&frame.payload[..keep]).unwrap();
                    prop_assert_eq!(
                        decoded_bits(&fast_rx.decode(&frame)),
                        decoded_bits(&slow_rx.decode(&frame)),
                        "step {}: frame {} cut to {} bytes", step, frame.seq, keep
                    );
                }
                7 => {
                    if let Some(seq) = fast_rx.ack_seq() {
                        fast_tx.on_ack(seq);
                        slow_tx.on_ack(seq);
                    }
                }
                8 => {
                    // Near the live range, or anywhere in `u64`.
                    let forged = if pick % 2 == 0 { pick % (fast_tx.frames_sent() + 3) } else { pick };
                    fast_tx.on_ack(forged);
                    slow_tx.on_ack(forged);
                }
                _ => {
                    let wanted = fast_rx.take_keyframe_request();
                    prop_assert_eq!(wanted, slow_rx.take_keyframe_request(), "step {}", step);
                    if wanted && pick % 4 != 0 {
                        fast_tx.request_keyframe();
                        slow_tx.request_keyframe();
                    }
                }
            }
            prop_assert_eq!(fast_tx.history_len(), slow_tx.history.len(), "step {}", step);
            prop_assert_eq!(fast_tx.frames_sent(), slow_tx.next_seq);
            prop_assert_eq!(fast_rx.ack_seq(), slow_rx.latest_seq, "step {}", step);
            prop_assert_eq!(
                fast_rx.latest().map(|(seq, s)| (seq, bits(&s))),
                slow_rx.latest().map(|(seq, s)| (seq, bits(s))),
                "step {}", step
            );
        }
    }

    // (f) A receiver driven far past its 128 references: sequences that skip
    // ahead, fall back behind everything kept, and repeat; deltas whose
    // reference is still kept (dropping what is older), was dropped or
    // evicted, or was never sent. After every frame the ring answers as the
    // pruning map does, and at the end a probe per sequence ever sent reads
    // out that both kept the same 128.
    #[test]
    fn a_full_receiver_evicts_what_the_map_evicted(
        shape in 0usize..2,
        frames in proptest::collection::vec(
            (0u32..8, (0u64..3, 0u64..600, 0usize..260), -3.0..3.0f64),
            300..500,
        ),
    ) {
        let codec = snapshot_codecs()[shape].clone();
        let mut fast = SnapshotReceiver::new(codec.clone());
        let mut slow = RefSnapshotReceiver::pruning(codec.clone());
        let base = codec.reconstruct(&walker(0.0, 2));
        let delta_of = |state: &AvatarState| {
            FramePayload::try_from(&codec.encode_delta(&base, state)[..]).unwrap()
        };
        // Sequences start high enough that the final probes sort below them.
        let mut sent = vec![1_000u64];
        for (i, (kind, (gap, back, ref_back), x)) in frames.into_iter().enumerate() {
            // Mostly forward with gaps; one in four at or behind the newest,
            // half of those behind everything still kept.
            let newest = *sent.iter().max().expect("seeded");
            let seq = if kind < 6 { newest + 1 + gap } else { newest - back };
            // A delta names a sequence sent before: about half are no longer
            // kept. After the first 50 frames it names nothing newer than the
            // oldest state kept, which drops nothing, so the receiver fills.
            let oldest = slow.states.keys().next().copied().filter(|_| i >= 50);
            let ref_seq = (kind % 2 == 1)
                .then(|| sent[sent.len() - 1 - ref_back % sent.len()] + gap / 2)
                .map(|r| oldest.map_or(r, |oldest| r.min(oldest)));
            let state = walker(x, i as u32 % 5);
            let payload = match ref_seq {
                None => FramePayload::try_from(&codec.encode_full(&state)[..]).unwrap(),
                Some(_) => delta_of(&state),
            };
            let frame = PoseFrame { seq, ref_seq, payload };
            prop_assert_eq!(
                decoded_bits(&fast.decode(&frame)),
                decoded_bits(&slow.decode(&frame)),
                "frame {} (seq {}, ref {:?})", i, seq, ref_seq
            );
            prop_assert_eq!(fast.ack_seq(), slow.latest_seq);
            prop_assert_eq!(
                fast.latest().map(|(seq, s)| (seq, bits(&s))),
                slow.latest().map(|(seq, s)| (seq, bits(s)))
            );
            prop_assert_eq!(fast.take_keyframe_request(), slow.take_keyframe_request());
            sent.push(seq);
        }
        prop_assert_eq!(slow.states.len(), 128, "the schedule did fill the receiver");
        prop_assert_eq!(fast.references_len(), 128);
        // Probed oldest first at sequence 0, a probe drops only states probed
        // before it and the sequence-0 entry the probe before filed.
        sent.sort_unstable();
        sent.dedup();
        let mut kept = 0;
        for &ref_seq in &sent {
            let probe = PoseFrame { seq: 0, ref_seq: Some(ref_seq), payload: delta_of(&base) };
            let answer = decoded_bits(&fast.decode(&probe));
            prop_assert_eq!(&answer, &decoded_bits(&slow.decode(&probe)), "probe of {}", ref_seq);
            kept += usize::from(answer.unwrap().is_some());
            prop_assert_eq!(fast.take_keyframe_request(), slow.take_keyframe_request());
        }
        prop_assert_eq!(kept, 128, "every kept state answers its probe");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // (h) A buffer of grid states, sampled through `dequantize`, plays out
    // bit for bit what a buffer fed the dequantized float states does: the
    // entry type reaches nothing but the mapping of the one or two entries
    // a playout reads. Moving states, capture times on a 5 ms grid (so
    // duplicates replace), every buffer shape and both codec shapes.
    #[test]
    fn grid_buffer_plays_out_what_the_float_buffer_does(
        shape in 0usize..4,
        codec_choice in 0usize..2,
        ops in proptest::collection::vec(
            ((0u32..4, 0u64..40_000), (0u64..400_000, -5.0..5.0f64, 0u32..5)),
            1..400,
        ),
    ) {
        let cfg = buffer_shapes()[shape];
        let codec = &snapshot_codecs()[codec_choice];
        let mut grid: JitterBuffer<QuantizedState> = JitterBuffer::new(cfg);
        let mut float = JitterBuffer::new(cfg);
        let mut clock_us = 0u64;
        for ((kind, advance_us), (age_us, x, heading)) in ops {
            clock_us += advance_us;
            let now = SimTime::from_micros(clock_us);
            if kind == 0 {
                let shown = grid.sample_with(now, |q| codec.dequantize(q));
                prop_assert_eq!(
                    shown.as_ref().map(bits),
                    float.sample(now).as_ref().map(bits),
                    "sample at {} us", clock_us
                );
            } else {
                let capture = SimTime::from_micros(clock_us.saturating_sub(age_us) / 5_000 * 5_000);
                let q = codec.quantize(&walker(x, heading));
                prop_assert_eq!(
                    grid.push(capture, now, q),
                    float.push(capture, now, codec.dequantize(&q)),
                    "push at {} us", clock_us
                );
            }
            prop_assert_eq!(grid.len(), float.len());
            prop_assert_eq!(grid.late_drop_count(), float.late_drop_count());
            prop_assert_eq!(grid.playout_delay(), float.playout_delay());
        }
        let end = SimTime::from_micros(clock_us);
        let shown = grid.sample_with(end, |q| codec.dequantize(q));
        prop_assert_eq!(shown.as_ref().map(bits), float.sample(end).as_ref().map(bits));
    }
}

// (g) A sender whose acknowledgements never arrive keeps every state it has
// sent (each frame a keyframe), exactly as the map did, and prunes them all
// at once when one finally does.
#[test]
fn an_unacknowledged_sender_keeps_and_then_drops_what_the_map_did() {
    let mut fast = SnapshotSender::new(AvatarCodec::with_defaults(), 60);
    let mut slow = RefSnapshotSender::new(AvatarCodec::with_defaults(), 60);
    for i in 0..1_000u32 {
        let state = walker(i as f64 * 0.01, i % 5);
        let frame = fast.encode(&state);
        let (seq, ref_seq, payload) = slow.encode(&state);
        assert_eq!((frame.seq, frame.ref_seq, &frame.payload[..]), (seq, ref_seq, &payload[..]));
        assert!(frame.is_keyframe());
        assert_eq!(fast.history_len(), i as usize + 1);
    }
    for ack in [998, 997, 1_000, 999] {
        fast.on_ack(ack);
        slow.on_ack(ack);
        assert_eq!(fast.history_len(), slow.history.len(), "after ack {ack}");
    }
    assert_eq!(fast.history_len(), 1);
    let state = walker(0.5, 1);
    let (seq, ref_seq, payload) = slow.encode(&state);
    let frame = fast.encode(&state);
    assert_eq!((frame.seq, frame.ref_seq, &frame.payload[..]), (seq, ref_seq, &payload[..]));
    assert_eq!(frame.ref_seq, Some(999));
}

/// What travels back from receiver to sender, in order.
enum Reply {
    Ack(u64),
    Keyframe,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // (i) One stream over FIFO links, as every session stream runs: frames
    // lost, acknowledgements lost and lagging several frames behind (or,
    // in one shape, more than 128, so the reference they name is evicted
    // and keyframe requests are relayed or dropped), and now and then a
    // sender that restarts at sequence 0 while the receiver keeps its
    // states and the old stream's frames and acks are still in flight. A
    // sender names only acks
    // it heard, which arrive in the order the receiver sent them, so no
    // frame names a state an applied delta's reference has outdated: the
    // pruning receiver answers every frame as the map that never prunes
    // does, and stays within its 128 references.
    #[test]
    fn pruning_on_a_fifo_stream_matches_the_unpruned_map(
        shape in 0usize..2,
        interval_choice in 0usize..3,
        lag_choice in 0usize..3,
        ops in proptest::collection::vec((0u32..10, any::<u64>(), -3.0..3.0f64, 0u32..5), 1..800),
    ) {
        let interval = [1, 7, 60][interval_choice];
        // Replies a sender hears only once more than this many are queued,
        // and then a few at a time until none is left.
        let lag = [0, 4, 110][lag_choice];
        let mut hearing = false;
        let codec = || snapshot_codecs()[shape].clone();
        let mut tx = SnapshotSender::new(codec(), interval);
        let mut fast = SnapshotReceiver::new(codec());
        let mut slow = RefSnapshotReceiver::new(codec());
        let mut frames: VecDeque<PoseFrame> = VecDeque::new();
        let mut replies: VecDeque<Reply> = VecDeque::new();
        let mut last = walker(0.0, 2);
        for (step, (kind, pick, x, heading)) in ops.into_iter().enumerate() {
            match kind {
                0..=3 => {
                    if kind != 0 {
                        last = walker(x, heading);
                    }
                    let frame = tx.encode(&last);
                    // One frame in five is lost.
                    if pick % 5 != 0 {
                        frames.push_back(frame);
                    }
                }
                4..=6 => {
                    let Some(frame) = frames.pop_front() else { continue };
                    let answer = decoded_bits(&fast.decode(&frame));
                    prop_assert_eq!(
                        &answer,
                        &decoded_bits(&slow.decode(&frame)),
                        "step {}: frame {} (ref {:?})", step, frame.seq, frame.ref_seq
                    );
                    match answer {
                        // One ack in four is lost.
                        Ok(Some(_)) if pick % 4 != 0 => {
                            replies.push_back(Reply::Ack(fast.ack_seq().expect("applied")));
                        }
                        Ok(None) => {
                            let wanted = fast.take_keyframe_request();
                            prop_assert_eq!(wanted, slow.take_keyframe_request(), "step {}", step);
                            if wanted && pick % 2 == 0 {
                                replies.push_back(Reply::Keyframe);
                            }
                        }
                        _ => {}
                    }
                }
                7 | 8 => {
                    hearing = replies.len() > lag || hearing && !replies.is_empty();
                    let heard = if hearing { 1 + pick as usize % 8 } else { 0 };
                    for reply in replies.drain(..heard.min(replies.len())) {
                        match reply {
                            Reply::Ack(seq) => tx.on_ack(seq),
                            Reply::Keyframe => tx.request_keyframe(),
                        }
                    }
                }
                _ if pick % 64 == 0 => tx = SnapshotSender::new(codec(), interval),
                _ => {}
            }
            prop_assert_eq!(fast.ack_seq(), slow.latest_seq, "step {}", step);
            prop_assert_eq!(
                fast.latest().map(|(seq, s)| (seq, bits(&s))),
                slow.latest().map(|(seq, s)| (seq, bits(s))),
                "step {}", step
            );
            prop_assert!(fast.references_len() <= 128, "step {}", step);
        }
    }
}
