//! Adaptive jitter buffer for avatar state playout.
//!
//! Network jitter would make remotely driven avatars stutter. The receiver
//! buffers timestamped states and plays them out a small, adaptive delay
//! behind the sender's clock, interpolating between the two states straddling
//! the playout instant and extrapolating across gaps.

use std::collections::VecDeque;

use metaclass_avatar::AvatarState;
use metaclass_netsim::{SimDuration, SimTime};

/// Configuration of the jitter buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterBufferConfig {
    /// Initial playout delay behind the newest possible state.
    pub initial_delay: SimDuration,
    /// Safety margin added above the observed p95 network-delay variation.
    pub margin: SimDuration,
    /// Window of one-way delay samples used for adaptation.
    pub window: usize,
    /// Maximum states retained.
    pub capacity: usize,
}

impl Default for JitterBufferConfig {
    fn default() -> Self {
        JitterBufferConfig {
            initial_delay: SimDuration::from_millis(50),
            margin: SimDuration::from_millis(10),
            window: 128,
            capacity: 64,
        }
    }
}

/// An adaptive playout buffer of timestamped avatar states.
///
/// Times are in the *sender's* clock domain (translate with
/// [`OffsetEstimator`](crate::OffsetEstimator) first). "Now" passed to
/// [`JitterBuffer::sample`] must also be sender-domain.
///
/// Entries are stored as `S`: float [`AvatarState`]s by default, or any
/// compact form a [`sample_with`](JitterBuffer::sample_with) mapping turns
/// back into one — a remote client keeps the 80-byte
/// [`QuantizedState`](metaclass_avatar::QuantizedState) its updates carry.
/// Delay adaptation, trimming and late drops never read an entry, so they
/// are the same for every `S`.
///
/// # Examples
///
/// ```
/// use metaclass_avatar::{AvatarState, Vec3};
/// use metaclass_netsim::SimTime;
/// use metaclass_sync::{JitterBuffer, JitterBufferConfig};
///
/// let mut jb = JitterBuffer::new(JitterBufferConfig::default());
/// for i in 0..10u64 {
///     let st = AvatarState::at_position(Vec3::new(i as f64 * 0.1, 1.6, 0.0));
///     let capture = SimTime::from_millis(i * 20);
///     jb.push(capture, capture, st); // zero network delay here
/// }
/// let out = jb.sample(SimTime::from_millis(180)).unwrap();
/// // The jitter-free feed adapts the playout delay down to its 20 ms floor,
/// // so at t = 180 ms we see the state captured around 160 ms.
/// assert!((out.head.position.x - 0.80).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct JitterBuffer<S = AvatarState> {
    cfg: JitterBufferConfig,
    /// (capture_time, state), sorted by capture_time.
    entries: VecDeque<(SimTime, S)>,
    /// The delay window in one block, allocated once and never resized:
    /// `cfg.window` slots of observed one-way delays (arrival − capture,
    /// nanoseconds) kept as a ring, then `top_k` slots holding the window's
    /// largest samples, descending. `top_k` is the most samples at or above
    /// the 95th percentile of any window size up to `cfg.window`, so the
    /// percentile is always one of them.
    delays: Box<[u64]>,
    /// Ring slot the next sample is written to: the oldest sample once the
    /// window is full, `filled` before.
    next: usize,
    /// Samples in the ring, `min(pushes, cfg.window)`.
    filled: usize,
    /// Filled slots of the largest-sample list, `min(filled, top_k)`.
    top_len: usize,
    /// Smallest sample in the window.
    delay_min: u64,
    delay: SimDuration,
    late_drops: u64,
    last_playout: Option<SimTime>,
}

impl<S> JitterBuffer<S> {
    /// Creates an empty buffer.
    ///
    /// The delay window is allocated here, whole: `8 × (cfg.window + top_k)`
    /// bytes, 1 080 B at the defaults (128 ring slots and 7 largest-sample
    /// slots). A buffer pays that from its first update instead of growing
    /// toward it, so one whose window never fills holds more than it uses;
    /// in exchange a push never allocates for the window.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.window` or `cfg.capacity` is zero.
    pub fn new(cfg: JitterBufferConfig) -> Self {
        assert!(cfg.window > 0, "delay window must hold at least one sample");
        assert!(cfg.capacity > 0, "capacity must be at least one state");
        let top_k = (1..=cfg.window).map(|n| n - p95_index(n)).max().expect("window is non-empty");
        JitterBuffer {
            delay: cfg.initial_delay,
            cfg,
            entries: VecDeque::new(),
            delays: vec![0; cfg.window + top_k].into_boxed_slice(),
            next: 0,
            filled: 0,
            top_len: 0,
            delay_min: u64::MAX,
            late_drops: 0,
            last_playout: None,
        }
    }

    /// Current adaptive playout delay.
    pub fn playout_delay(&self) -> SimDuration {
        self.delay
    }

    /// Updates arriving after their playout instant, discarded on push.
    pub fn late_drop_count(&self) -> u64 {
        self.late_drops
    }

    /// Number of buffered states a later playout can still reach: states
    /// behind the playout horizon (newest arrival −
    /// [`JitterBuffer::MAX_DELAY`]) are dropped as they fall behind it, bar
    /// the one that playout interpolates from.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds no states.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a state captured at `capture_time` (sender clock) that arrived
    /// at `arrival_time` (sender clock). Returns `false` if the update was
    /// too late to be useful and was dropped.
    ///
    /// Arrival times must not run backwards, and a later
    /// [`sample_with`](Self::sample_with) must not ask for a `now` before the
    /// newest arrival: states no such playout can reach are dropped here.
    pub fn push(&mut self, capture_time: SimTime, arrival_time: SimTime, state: S) -> bool {
        self.observe_delay(arrival_time.duration_since(capture_time).as_nanos());

        // Late if it precedes what we already played out.
        if let Some(played) = self.last_playout {
            if capture_time <= played {
                self.late_drops += 1;
                return false;
            }
        }
        // Sorted insert (usually at the tail).
        let pos =
            self.entries.iter().rposition(|(t, _)| *t <= capture_time).map(|i| i + 1).unwrap_or(0);
        // Duplicate capture times: replace rather than duplicate.
        if pos > 0 && self.entries[pos - 1].0 == capture_time {
            self.entries[pos - 1].1 = state;
        } else if self.entries.len() < self.cfg.capacity {
            self.entries.insert(pos, (capture_time, state));
        } else if pos > 0 {
            // Full: the oldest state makes room first, so the deque never
            // grows past `capacity`. (A state older than everything in a full
            // buffer is itself the one to go.)
            self.entries.pop_front();
            self.entries.insert(pos - 1, (capture_time, state));
        }
        // Every later playout is at or after `arrival − delay` and the delay
        // never adapts above `MAX_DELAY`; playout keeps one state before its
        // instant, so anything older than that one is unreachable.
        let reach = self.delay.max(JitterBuffer::MAX_DELAY);
        let horizon = arrival_time - reach.min(arrival_time.duration_since(SimTime::ZERO));
        while self.entries.len() >= 2 && self.entries[1].0 <= horizon {
            self.entries.pop_front();
        }
        true
    }

    /// Slides the delay window by one sample and re-derives the playout
    /// delay from its floor and 95th percentile.
    ///
    /// Only the floor and the largest `top_k` samples are kept up to date:
    /// the ring is rescanned for them when the sample leaving the window was
    /// one of them (at or below the floor, at or above the `top_k`-th
    /// largest), which a window of varied delays does about once in
    /// `window / (top_k + 1)` pushes. A rescan walks the ring in slot order;
    /// a minimum and a multiset of largest samples do not depend on it.
    fn observe_delay(&mut self, sample: u64) {
        let window = self.cfg.window;
        let (ring, top) = self.delays.split_at_mut(window);
        let evicted = if self.filled == window {
            Some(ring[self.next])
        } else {
            self.filled += 1;
            None
        };
        ring[self.next] = sample;
        // A compare, not `%`: this runs once per displayed avatar update.
        self.next += 1;
        if self.next == window {
            self.next = 0;
        }
        let rescan = evicted.is_some_and(|oldest| {
            oldest <= self.delay_min || (self.top_len > 0 && oldest >= top[self.top_len - 1])
        });
        if rescan {
            self.delay_min = u64::MAX;
            self.top_len = 0;
            for &d in &ring[..self.filled] {
                self.delay_min = self.delay_min.min(d);
                insert_top(top, &mut self.top_len, d);
            }
        } else {
            self.delay_min = self.delay_min.min(sample);
            insert_top(top, &mut self.top_len, sample);
        }

        let n = self.filled;
        if n < 8 {
            return;
        }
        // The 95th percentile of the ascending window, sorted[idx], is its
        // (n − idx)-th largest sample.
        let p95 = top[..self.top_len][n - p95_index(n) - 1];
        // Delay variation above the floor, plus margin.
        let var = SimDuration::from_nanos(p95 - self.delay_min) + self.cfg.margin;
        self.delay = var.max(JitterBuffer::MIN_DELAY).min(JitterBuffer::MAX_DELAY);
    }

    /// The state to display at sender-clock time `now`: the buffered pair
    /// straddling `now - playout_delay`, each mapped through `f` and then
    /// interpolated; the newest state, mapped and extrapolated, if the
    /// playout instant has run past the buffer. `None` while empty. Only
    /// the one or two entries playout reads are mapped.
    pub fn sample_with(
        &mut self,
        now: SimTime,
        f: impl Fn(&S) -> AvatarState,
    ) -> Option<AvatarState> {
        let playout = now - self.delay.min(now.duration_since(SimTime::ZERO));
        self.last_playout = Some(playout);
        // Discard states entirely in the past (keep one before playout for
        // interpolation).
        while self.entries.len() >= 2 && self.entries[1].0 <= playout {
            self.entries.pop_front();
        }
        match self.entries.len() {
            0 => None,
            1 => {
                let (t, st) = &self.entries[0];
                let st = f(st);
                Some(if *t <= playout {
                    st.extrapolate(playout.duration_since(*t).as_secs_f64())
                } else {
                    st
                })
            }
            _ => {
                let (t0, s0) = &self.entries[0];
                let (t1, s1) = &self.entries[1];
                if playout <= *t0 {
                    Some(f(s0))
                } else {
                    let span = t1.duration_since(*t0).as_secs_f64();
                    let frac = if span <= 0.0 {
                        1.0
                    } else {
                        playout.duration_since(*t0).as_secs_f64() / span
                    };
                    Some(f(s0).interpolate(&f(s1), frac))
                }
            }
        }
    }
}

impl JitterBuffer {
    /// Floor for the adaptive delay.
    pub const MIN_DELAY: SimDuration = SimDuration::from_millis(20);
    /// Ceiling for the adaptive delay.
    pub const MAX_DELAY: SimDuration = SimDuration::from_millis(250);

    /// The state to display at sender-clock time `now`: the buffered pair
    /// straddling `now - playout_delay`, interpolated; extrapolated from the
    /// newest state if the playout instant has run past the buffer. `None`
    /// while empty.
    pub fn sample(&mut self, now: SimTime) -> Option<AvatarState> {
        self.sample_with(now, |st| *st)
    }
}

/// Index of the 95th percentile in an ascending window of `n` samples.
fn p95_index(n: usize) -> usize {
    ((n as f64 * 0.95) as usize).min(n - 1)
}

/// Files `sample` among the largest samples kept in `top[..*len]`
/// (descending), dropping the smallest of them when all `top.len()` slots
/// are taken.
fn insert_top(top: &mut [u64], len: &mut usize, sample: u64) {
    if *len == top.len() {
        if sample <= top[*len - 1] {
            return;
        }
        *len -= 1;
    }
    let at = top[..*len].partition_point(|&d| d >= sample);
    top.copy_within(at..*len, at + 1);
    top[at] = sample;
    *len += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaclass_avatar::Vec3;

    fn st(x: f64) -> AvatarState {
        AvatarState::at_position(Vec3::new(x, 1.6, 0.0))
    }

    fn cfg() -> JitterBufferConfig {
        JitterBufferConfig::default()
    }

    #[test]
    fn interpolates_between_straddling_states() {
        let mut jb = JitterBuffer::new(cfg());
        jb.push(SimTime::from_millis(100), SimTime::from_millis(100), st(1.0));
        jb.push(SimTime::from_millis(200), SimTime::from_millis(200), st(2.0));
        // Playout = 200 − 50 = 150 ms: midway.
        let out = jb.sample(SimTime::from_millis(200)).unwrap();
        assert!((out.head.position.x - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_buffer_returns_none() {
        let mut jb = JitterBuffer::new(cfg());
        assert!(jb.sample(SimTime::from_millis(100)).is_none());
        assert!(jb.is_empty());
    }

    #[test]
    fn extrapolates_past_the_newest_state() {
        let mut jb = JitterBuffer::new(cfg());
        let mut moving = st(1.0);
        moving.velocity = Vec3::new(1.0, 0.0, 0.0);
        jb.push(SimTime::from_millis(100), SimTime::from_millis(100), moving);
        // Playout 250 ms: 150 ms past the only state.
        let out = jb.sample(SimTime::from_millis(300)).unwrap();
        assert!((out.head.position.x - 1.15).abs() < 1e-6, "x {}", out.head.position.x);
    }

    #[test]
    fn late_updates_are_dropped_and_counted() {
        let mut jb = JitterBuffer::new(cfg());
        jb.push(SimTime::from_millis(100), SimTime::from_millis(100), st(1.0));
        jb.sample(SimTime::from_millis(400)); // playout now at 350 ms
        assert!(!jb.push(SimTime::from_millis(200), SimTime::from_millis(410), st(9.0)));
        assert_eq!(jb.late_drop_count(), 1);
    }

    #[test]
    fn out_of_order_arrivals_are_sorted() {
        let mut jb = JitterBuffer::new(cfg());
        jb.push(SimTime::from_millis(300), SimTime::from_millis(305), st(3.0));
        jb.push(SimTime::from_millis(100), SimTime::from_millis(306), st(1.0));
        jb.push(SimTime::from_millis(200), SimTime::from_millis(307), st(2.0));
        let out = jb.sample(SimTime::from_millis(250)).unwrap();
        // Playout 200 ms → exactly the second state.
        assert!((out.head.position.x - 2.0).abs() < 1e-9);
    }

    #[test]
    fn delay_adapts_to_observed_jitter() {
        let mut jb = JitterBuffer::new(cfg());
        // Stable 30 ms network: delay shrinks toward the floor.
        for i in 0..200u64 {
            jb.push(SimTime::from_millis(i * 20), SimTime::from_millis(i * 20 + 30), st(i as f64));
        }
        assert!(jb.playout_delay() <= SimDuration::from_millis(20 + 1));
        // Now heavy jitter: delay grows.
        for i in 200..400u64 {
            let jitter = if i % 3 == 0 { 80 } else { 5 };
            jb.push(
                SimTime::from_millis(i * 20),
                SimTime::from_millis(i * 20 + jitter),
                st(i as f64),
            );
        }
        assert!(jb.playout_delay() >= SimDuration::from_millis(70), "{}", jb.playout_delay());
    }

    #[test]
    fn capacity_is_bounded() {
        // Spacings short enough that the playout horizon (250 ms) alone would
        // keep more states than the capacity allows.
        for (capacity, spacing_ms) in [(4, 10), (64, 1)] {
            let mut jb = JitterBuffer::new(JitterBufferConfig { capacity, ..cfg() });
            for i in 0..1_000u64 {
                let t = SimTime::from_millis(i * spacing_ms);
                jb.push(t, t, st(i as f64));
                assert!(jb.len() <= capacity);
            }
            assert_eq!(jb.len(), capacity);
            // Evicting before inserting: the deque never had to grow for a
            // transient `capacity + 1`-th state.
            assert!(jb.entries.capacity() <= capacity.next_power_of_two());
        }
    }

    #[test]
    fn the_delay_window_fills_its_fixed_block() {
        let mut jb = JitterBuffer::new(cfg());
        assert_eq!(jb.delays.len(), 128 + 7);
        for i in 0..1_000u64 {
            let capture = SimTime::from_millis(i * 14);
            jb.push(capture, capture + SimDuration::from_millis(20 + i * 7 % 40), st(i as f64));
            assert_eq!(jb.filled, (i as usize + 1).min(128));
        }
        assert_eq!(jb.top_len, 7);
    }

    #[test]
    fn a_state_older_than_a_full_buffer_is_not_kept() {
        let mut jb = JitterBuffer::new(JitterBufferConfig { capacity: 2, ..cfg() });
        let at = SimTime::from_millis(300);
        jb.push(SimTime::from_millis(200), at, st(2.0));
        jb.push(SimTime::from_millis(250), at, st(2.5));
        assert!(jb.push(SimTime::from_millis(100), at, st(1.0)));
        assert_eq!(jb.len(), 2);
        // Playout 300 − 50 = 250 ms: the newest state, not a blend with 100 ms.
        let out = jb.sample(at).unwrap();
        assert!((out.head.position.x - 2.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "delay window")]
    fn zero_window_is_rejected() {
        JitterBuffer::<AvatarState>::new(JitterBufferConfig { window: 0, ..cfg() });
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        JitterBuffer::<AvatarState>::new(JitterBufferConfig { capacity: 0, ..cfg() });
    }

    #[test]
    fn duplicate_capture_times_replace() {
        let mut jb = JitterBuffer::new(cfg());
        jb.push(SimTime::from_millis(100), SimTime::from_millis(100), st(1.0));
        jb.push(SimTime::from_millis(100), SimTime::from_millis(101), st(7.0));
        assert_eq!(jb.len(), 1);
        let out = jb.sample(SimTime::from_millis(500)).unwrap();
        assert!((out.head.position.x - 7.0).abs() < 1e-9);
    }
}
