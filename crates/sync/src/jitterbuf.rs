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
    /// The delay window in one block, allocated once and resized at most
    /// once: `cfg.window` slots of observed one-way delays (arrival −
    /// capture, nanoseconds) kept as a ring, then `top_k` slots holding the
    /// window's largest samples, descending. `top_k` is the most samples at
    /// or above the 95th percentile of any window size up to `cfg.window`,
    /// so the percentile is always one of them. The slots are 32-bit until
    /// a sample needs more (one of 2^32 ns, 4.29 s, or longer), 64-bit from
    /// then on.
    delays: DelayBlock,
    /// Where the ring and the largest-sample list stand, and the window's
    /// floor.
    cursor: WindowCursor,
    delay: SimDuration,
    late_drops: u64,
    last_playout: Option<SimTime>,
}

impl<S> JitterBuffer<S> {
    /// Creates an empty buffer.
    ///
    /// The delay window is allocated here, whole: `4 × (cfg.window + top_k)`
    /// bytes, 540 B at the defaults (128 ring slots and 7 largest-sample
    /// slots of 32 bits). A buffer pays that from its first update instead
    /// of growing toward it, so one whose window never fills holds more than
    /// it uses; in exchange a push never allocates for the window, bar one:
    /// the first delay sample of 2^32 ns (4.29 s) or more copies the block
    /// to 64-bit slots, `8 × (cfg.window + top_k)` bytes, and the buffer
    /// keeps those for good.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.window` or `cfg.capacity` is zero, or if `cfg.window`
    /// exceeds `u32::MAX` (the window's counts are 32-bit).
    pub fn new(cfg: JitterBufferConfig) -> Self {
        assert!(cfg.window > 0, "delay window must hold at least one sample");
        assert!(
            u32::try_from(cfg.window).is_ok(),
            "delay window must hold at most u32::MAX samples"
        );
        assert!(cfg.capacity > 0, "capacity must be at least one state");
        let top_k = (1..=cfg.window).map(|n| n - p95_index(n)).max().expect("window is non-empty");
        JitterBuffer {
            delay: cfg.initial_delay,
            cfg,
            entries: VecDeque::new(),
            delays: DelayBlock::Narrow(vec![0; cfg.window + top_k].into_boxed_slice()),
            cursor: WindowCursor { next: 0, filled: 0, top_len: 0, min: u64::MAX },
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
    /// delay from its floor and 95th percentile, widening the block first
    /// if the sample does not fit its slots.
    fn observe_delay(&mut self, sample: u64) {
        let window = self.cfg.window;
        let p95 = match &mut self.delays {
            DelayBlock::Narrow(block) => match u32::try_from(sample) {
                Ok(sample) => self.cursor.slide(block, window, sample),
                Err(_) => {
                    // The largest-sample slots hold ring samples, so the
                    // block widens whole, slot for slot.
                    let mut wide: Box<[u64]> = block.iter().map(|&d| u64::from(d)).collect();
                    let p95 = self.cursor.slide(&mut wide, window, sample);
                    self.delays = DelayBlock::Wide(wide);
                    p95
                }
            },
            DelayBlock::Wide(block) => self.cursor.slide(block, window, sample),
        };
        if self.cursor.filled < 8 {
            return;
        }
        // Delay variation above the floor, plus margin.
        let var = SimDuration::from_nanos(p95 - self.cursor.min) + self.cfg.margin;
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

/// A delay window's block of `window + top_k` slots, at the width its
/// samples need.
#[derive(Debug, Clone)]
enum DelayBlock {
    /// Every sample so far fits in 32 bits.
    Narrow(Box<[u32]>),
    /// Some sample did not; the buffer never narrows again.
    Wide(Box<[u64]>),
}

/// The ring's write cursor and fill, the largest-sample list's length and
/// the window's floor. The counts are 32-bit so that the block's width tag
/// costs the buffer no bytes.
#[derive(Debug, Clone)]
struct WindowCursor {
    /// Ring slot the next sample is written to: the oldest sample once the
    /// window is full, `filled` before.
    next: u32,
    /// Samples in the ring, `min(pushes, window)`.
    filled: u32,
    /// Filled slots of the largest-sample list, `min(filled, top_k)`.
    top_len: u32,
    /// Smallest sample in the window.
    min: u64,
}

impl WindowCursor {
    /// Writes `sample` into the ring of `block` (its first `window` slots;
    /// the rest are the largest-sample list) over the oldest sample, and
    /// returns the window's 95th percentile.
    ///
    /// Only the floor and the largest `top_k` samples are kept up to date:
    /// the ring is rescanned for them when the sample leaving the window was
    /// one of them (at or below the floor, at or above the `top_k`-th
    /// largest), which a window of varied delays does about once in
    /// `window / (top_k + 1)` pushes. A rescan walks the ring in slot order;
    /// a minimum and a multiset of largest samples do not depend on it.
    fn slide<T: Copy + Ord + Into<u64>>(
        &mut self,
        block: &mut [T],
        window: usize,
        sample: T,
    ) -> u64 {
        let (ring, top) = block.split_at_mut(window);
        let next = self.next as usize;
        let evicted = if self.filled as usize == window {
            Some(ring[next])
        } else {
            self.filled += 1;
            None
        };
        ring[next] = sample;
        // A compare, not `%`: this runs once per displayed avatar update.
        self.next = if next + 1 == window { 0 } else { self.next + 1 };
        let mut top_len = self.top_len as usize;
        let rescan = evicted.is_some_and(|oldest| {
            oldest.into() <= self.min || (top_len > 0 && oldest >= top[top_len - 1])
        });
        if rescan {
            self.min = u64::MAX;
            top_len = 0;
            for &d in &ring[..self.filled as usize] {
                self.min = self.min.min(d.into());
                insert_top(top, &mut top_len, d);
            }
        } else {
            self.min = self.min.min(sample.into());
            insert_top(top, &mut top_len, sample);
        }
        self.top_len = top_len as u32;
        // The 95th percentile of the ascending window, sorted[idx], is its
        // (n − idx)-th largest sample.
        let n = self.filled as usize;
        top[..top_len][n - p95_index(n) - 1].into()
    }
}

/// Files `sample` among the largest samples kept in `top[..*len]`
/// (descending), dropping the smallest of them when all `top.len()` slots
/// are taken.
fn insert_top<T: Copy + Ord>(top: &mut [T], len: &mut usize, sample: T) {
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
    use metaclass_avatar::{QuantizedState, Vec3};

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
        let DelayBlock::Narrow(block) = &jb.delays else { panic!("a new buffer starts narrow") };
        assert_eq!(block.len(), 128 + 7);
        let at = block.as_ptr();
        for i in 0..1_000u64 {
            let capture = SimTime::from_millis(i * 14);
            jb.push(capture, capture + SimDuration::from_millis(20 + i * 7 % 40), st(i as f64));
            assert_eq!(jb.cursor.filled, (i as u32 + 1).min(128));
        }
        assert_eq!(jb.cursor.top_len, 7);
        // Delays of tens of milliseconds never leave the block it started with.
        let DelayBlock::Narrow(block) = &jb.delays else { panic!("20–60 ms delays widened") };
        assert_eq!(block.as_ptr(), at);
    }

    /// The playout delay a window of `samples` (oldest first) adapts to,
    /// from a sorted copy of it.
    fn sorted_window_delay(samples: &VecDeque<u64>) -> SimDuration {
        let mut sorted: Vec<u64> = samples.iter().copied().collect();
        sorted.sort_unstable();
        let var = SimDuration::from_nanos(sorted[p95_index(sorted.len())] - sorted[0]);
        (var + cfg().margin).max(JitterBuffer::MIN_DELAY).min(JitterBuffer::MAX_DELAY)
    }

    #[test]
    fn a_sample_past_32_bits_widens_the_block_once() {
        // The default window is full when the block widens; one of 1 000 is
        // not, so its largest-sample list is filed without a rescan after.
        for window in [128, 1_000] {
            let mut jb = JitterBuffer::new(JitterBufferConfig { window, ..cfg() });
            let DelayBlock::Narrow(narrow) = &jb.delays else { panic!("a new buffer is narrow") };
            let slots = narrow.len();
            let mut samples = VecDeque::new();
            let mut widened_at = None;
            // 200 narrow samples, one of 2^32 ns, then samples spread over
            // 100 ms across 2^32 ns, wide enough that the delay they adapt
            // to sits between its floor and ceiling and shows any slot that
            // lost bits.
            for i in 0..1_400u64 {
                let delay_ns = match i {
                    0..200 => 20_000_000 + i * 7 % 40 * 1_000_000,
                    200 => 1 << 32,
                    _ => (1 << 32) - 50_000_000 + i * 7_919_111 % 100_000_000,
                };
                let capture = SimTime::from_millis(i * 14);
                jb.push(capture, capture + SimDuration::from_nanos(delay_ns), st(i as f64));
                if samples.len() == window {
                    samples.pop_front();
                }
                samples.push_back(delay_ns);
                if samples.len() >= 8 {
                    let expected = sorted_window_delay(&samples);
                    assert_eq!(jb.playout_delay(), expected, "window {window}, push {i}");
                }
                match (&jb.delays, widened_at) {
                    (DelayBlock::Narrow(_), None) => assert!(i < 200, "push {i} did not widen"),
                    (DelayBlock::Wide(block), None) => {
                        assert_eq!(i, 200, "widened before the first wide sample");
                        assert_eq!(block.len(), slots);
                        widened_at = Some(block.as_ptr());
                    }
                    // Still the block the first widening made: never copied
                    // again.
                    (DelayBlock::Wide(block), Some(at)) => assert_eq!(block.as_ptr(), at),
                    (DelayBlock::Narrow(_), Some(_)) => panic!("push {i} narrowed the block"),
                }
            }
        }
    }

    #[test]
    fn the_header_stays_144_bytes() {
        // The width tag lives in the space the 32-bit counts freed.
        let size = std::mem::size_of::<JitterBuffer<QuantizedState>>();
        assert!(size <= 144, "JitterBuffer<QuantizedState> is {size} bytes");
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
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "u32::MAX")]
    fn a_window_past_32_bit_counts_is_rejected() {
        let window = u32::MAX as usize + 1;
        JitterBuffer::<AvatarState>::new(JitterBufferConfig { window, ..cfg() });
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
