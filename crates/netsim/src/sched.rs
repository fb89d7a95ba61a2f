//! Event scheduling for the simulation engine.
//!
//! The engine needs a priority queue over `(SimTime, sequence)` keys with a
//! *total* order: ties in time are broken by a monotonically increasing
//! sequence number assigned at scheduling time, so a run is a pure function
//! of configuration and seed regardless of queue implementation.
//!
//! Two implementations share the [`EventQueue`] trait:
//!
//! - [`TimerWheel`] — the production scheduler. Near-future events land in a
//!   bucketed wheel (power-of-two slot count, occupancy bitmap, slots sorted
//!   lazily on drain); far-future events overflow to a fallback binary heap.
//!   Pops merge the two sorted streams by key, so the pop order is *exactly*
//!   the order a single global heap would produce.
//! - [`BinaryHeapQueue`] — the straightforward `BinaryHeap` baseline it
//!   replaced, kept as the reference implementation for property tests and
//!   benchmarks.
//!
//! All 256 slots share one node pool, the layout of the hashed timing wheel
//! (Varghese & Lauck, SOSP '87): each slot is a singly linked list of `u32`
//! node indices, and a drained slot hands its nodes back to a LIFO free
//! list that the next pushes into *any* slot reuse. The wheel's memory
//! therefore follows the number of events resident in slots, not 256 times
//! the largest burst one slot has held. The pool, the active lanes and the
//! sort buffer are recycled, so steady-state scheduling performs no
//! allocation.
//!
//! The wheel's active batch is stored struct-of-arrays: `(time, seq)` keys
//! live in one dense deque and payloads in a parallel one, so the hot
//! read-mostly operations — `peek_key` (the sharded engine's
//! earliest-pending scan runs it once per lane per window), the binary
//! search for mid-drain inserts, and the pop-order merge against the
//! overflow heap — touch only the packed key lane and never pull payload
//! bytes into cache.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Log2 of the wheel slot width in nanoseconds (2^20 ns ≈ 1.05 ms).
const SLOT_SHIFT: u32 = 20;
/// Number of wheel slots; must be a power of two. The horizon is
/// `SLOTS << SLOT_SHIFT` ≈ 268 ms past the cursor.
const SLOTS: usize = 256;
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Occupancy bitmap words (64 slots per word).
const BITMAP_WORDS: usize = SLOTS / 64;
/// End of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// A priority queue of events keyed by `(SimTime, seq)`.
///
/// `seq` must be unique and assigned in monotonically increasing order by
/// the caller; together with the guarantee that events are never scheduled
/// before the last popped key, this gives every implementation the same
/// total pop order.
pub trait EventQueue<T, S: Copy + Ord = u64> {
    /// Schedules `item` at `(at, seq)`.
    ///
    /// `at` must not precede the time of the most recently popped event.
    fn push(&mut self, at: SimTime, seq: S, item: T);

    /// Removes and returns the minimum-key event.
    fn pop(&mut self) -> Option<(SimTime, S, T)>;

    /// The key of the minimum event without removing it.
    ///
    /// Takes `&mut self` so implementations may advance internal cursors;
    /// the logical contents are unchanged.
    fn peek_key(&mut self) -> Option<(SimTime, S)>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct Entry<T, S> {
    at: SimTime,
    seq: S,
    item: T,
}

impl<T, S: Copy + Ord> Entry<T, S> {
    fn key(&self) -> (SimTime, S) {
        (self.at, self.seq)
    }
}

impl<T, S: Copy + Ord> PartialEq for Entry<T, S> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T, S: Copy + Ord> Eq for Entry<T, S> {}
impl<T, S: Copy + Ord> PartialOrd for Entry<T, S> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T, S: Copy + Ord> Ord for Entry<T, S> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Reference scheduler: a single global min-heap over `(SimTime, seq)`.
pub struct BinaryHeapQueue<T, S = u64> {
    heap: BinaryHeap<Reverse<Entry<T, S>>>,
}

impl<T, S: Copy + Ord> BinaryHeapQueue<T, S> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue { heap: BinaryHeap::new() }
    }
}

impl<T, S: Copy + Ord> Default for BinaryHeapQueue<T, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, S: Copy + Ord> EventQueue<T, S> for BinaryHeapQueue<T, S> {
    fn push(&mut self, at: SimTime, seq: S, item: T) {
        self.heap.push(Reverse(Entry { at, seq, item }));
    }

    fn pop(&mut self) -> Option<(SimTime, S, T)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.seq, e.item))
    }

    fn peek_key(&mut self) -> Option<(SimTime, S)> {
        self.heap.peek().map(|Reverse(e)| e.key())
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Production scheduler: a bucketed timer wheel with a far-future overflow
/// heap.
///
/// Events whose slot lies within `SLOTS` (256) buckets of the wheel cursor are
/// added (unsorted, O(1)) to their slot; the cursor's own slot is the
/// sorted *active batch*, drained from the front. Everything past the
/// horizon goes to the overflow heap. Both substreams yield keys in
/// ascending order, so a two-way merge on pop reproduces global heap order
/// exactly.
///
/// Slot entries live in one node pool shared by every slot, so the wheel's
/// committed memory follows the peak number of slot-resident events: a
/// burst of a thousand events borrows a thousand nodes and returns them
/// when its slot drains, whichever slot the next burst lands in.
pub struct TimerWheel<T, S = u64> {
    /// Absolute slot index of the cursor (`at.as_nanos() >> SLOT_SHIFT`).
    cursor: u64,
    /// First pool node of each slot's list of pending events, unsorted
    /// (`NIL` when empty); indexed by `abs_slot & SLOT_MASK`.
    heads: [u32; SLOTS],
    /// Entries of the node pool shared by all slot lists: `Some` for a
    /// node on a slot list, `None` for a free one. Never shrinks.
    entries: Vec<Option<Entry<T, S>>>,
    /// Per node, the next node of its slot list or of the free list (`NIL`
    /// ends both). Kept apart from `entries`, so draining a slot chases
    /// links through a dense `u32` array and the entry loads overlap.
    links: Vec<u32>,
    /// Head of the LIFO free list threaded through `links`.
    free: u32,
    /// One bit per slot index: slot list is non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// Sorted keys of the cursor slot (struct-of-arrays lane); the front is
    /// the wheel minimum. `peek_key`, mid-drain binary searches, and the
    /// wheel-vs-overflow merge read only this dense lane.
    active_keys: VecDeque<(SimTime, S)>,
    /// Payloads parallel to `active_keys`, index for index.
    active_items: VecDeque<T>,
    /// Scratch buffer for sorting a slot before it enters the active lanes.
    sort_buf: Vec<Entry<T, S>>,
    /// Events scheduled past the wheel horizon.
    overflow: BinaryHeap<Reverse<Entry<T, S>>>,
    /// Events in slot lists plus the active lanes (excludes `overflow`).
    wheel_len: usize,
    /// Time of the most recently popped event, for contract checking.
    #[cfg(debug_assertions)]
    last_popped: Option<SimTime>,
}

impl<T, S: Copy + Ord> TimerWheel<T, S> {
    /// Creates an empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        TimerWheel {
            cursor: 0,
            heads: [NIL; SLOTS],
            entries: Vec::new(),
            links: Vec::new(),
            free: NIL,
            occupied: [0; BITMAP_WORDS],
            active_keys: VecDeque::new(),
            active_items: VecDeque::new(),
            sort_buf: Vec::new(),
            overflow: BinaryHeap::new(),
            wheel_len: 0,
            #[cfg(debug_assertions)]
            last_popped: None,
        }
    }

    /// Moves the cursor of an empty wheel to `at`'s slot and forgets the
    /// last popped time, so a wheel drained far into the future (or a fresh
    /// one, anchored at zero) takes pushes from `at` on into its slots
    /// instead of behind its cursor or into the overflow heap.
    pub(crate) fn reanchor(&mut self, at: SimTime) {
        debug_assert!(self.is_empty(), "re-anchored a wheel with pending events");
        self.cursor = Self::abs_slot(at);
        #[cfg(debug_assertions)]
        {
            self.last_popped = None;
        }
    }

    fn abs_slot(at: SimTime) -> u64 {
        at.as_nanos() >> SLOT_SHIFT
    }

    fn set_occupied(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
    }

    fn clear_occupied(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Committed bytes of the wheel's storage: node pool, active lanes,
    /// sort buffer and overflow heap (the `engine.sched.arena_bytes` gauge).
    pub(crate) fn arena_bytes(&self) -> u64 {
        let bytes = self.pool_bytes()
            + self.active_keys.capacity() * std::mem::size_of::<(SimTime, S)>()
            + self.active_items.capacity() * std::mem::size_of::<T>()
            + self.sort_buf.capacity() * std::mem::size_of::<Entry<T, S>>()
            + self.overflow.capacity() * std::mem::size_of::<Reverse<Entry<T, S>>>();
        bytes as u64
    }

    /// Committed bytes of the node pool.
    fn pool_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Option<Entry<T, S>>>()
            + self.links.capacity() * std::mem::size_of::<u32>()
    }

    /// Prepends an entry to slot `idx`'s list, taking a node from the free
    /// list or growing the pool.
    fn push_slot(&mut self, idx: usize, entry: Entry<T, S>) {
        let head = self.heads[idx];
        let n = if self.free == NIL {
            assert!(self.entries.len() < NIL as usize, "timer wheel node pool exceeds u32 indices");
            let n = self.entries.len() as u32;
            self.entries.push(Some(entry));
            self.links.push(head);
            n
        } else {
            let n = self.free;
            self.free = std::mem::replace(&mut self.links[n as usize], head);
            self.entries[n as usize] = Some(entry);
            n
        };
        if head == NIL {
            self.set_occupied(idx);
        }
        self.heads[idx] = n;
    }

    /// Moves slot `idx`'s entries into `sort_buf` (newest first) and returns
    /// their nodes to the free list.
    fn drain_slot(&mut self, idx: usize) {
        let mut n = std::mem::replace(&mut self.heads[idx], NIL);
        self.clear_occupied(idx);
        while n != NIL {
            let entry = self.entries[n as usize].take();
            self.sort_buf.push(entry.expect("listed node holds an entry"));
            let next = std::mem::replace(&mut self.links[n as usize], self.free);
            self.free = n;
            n = next;
        }
    }

    /// Index of the next occupied slot at or after the cursor, searching
    /// one full lap. `None` when every slot list is empty.
    fn next_occupied(&self) -> Option<usize> {
        let start = (self.cursor & SLOT_MASK) as usize;
        let mut word_idx = start / 64;
        // First word: only bits at or above `start`.
        let mut word = self.occupied[word_idx] & (!0u64 << (start % 64));
        for _ in 0..=BITMAP_WORDS {
            if word != 0 {
                return Some(word_idx * 64 + word.trailing_zeros() as usize);
            }
            word_idx = (word_idx + 1) % BITMAP_WORDS;
            word = self.occupied[word_idx];
        }
        None
    }

    /// Advances the cursor until the active lanes are non-empty or the wheel
    /// is exhausted.
    fn ensure_front(&mut self) {
        while self.active_keys.is_empty() {
            if self.wheel_len == 0 {
                return;
            }
            let idx = self.next_occupied().expect("wheel_len > 0 but no occupied slot");
            // Re-anchor the cursor on the drained slot's absolute index. The
            // slot is within one lap of the cursor (inclusive: the cursor's
            // own slot collects events while the active batch is empty).
            let lap = (idx as u64).wrapping_sub(self.cursor) & SLOT_MASK;
            self.cursor += lap;
            self.drain_slot(idx);
            self.sort_buf.sort_unstable_by_key(Entry::key);
            for e in self.sort_buf.drain(..) {
                self.active_keys.push_back((e.at, e.seq));
                self.active_items.push_back(e.item);
            }
        }
    }

    fn pop_active(&mut self) -> (SimTime, S, T) {
        let (at, seq) = self.active_keys.pop_front().expect("active checked non-empty");
        let item = self.active_items.pop_front().expect("active lanes in lockstep");
        self.wheel_len -= 1;
        #[cfg(debug_assertions)]
        {
            self.last_popped = Some(at);
        }
        (at, seq, item)
    }

    fn pop_overflow(&mut self) -> (SimTime, S, T) {
        let Reverse(e) = self.overflow.pop().expect("overflow checked non-empty");
        #[cfg(debug_assertions)]
        {
            self.last_popped = Some(e.at);
        }
        if self.wheel_len == 0 {
            // The wheel is empty: re-anchor the cursor so pushes near this
            // time land in slots rather than overflowing immediately.
            let slot = Self::abs_slot(e.at);
            if slot > self.cursor {
                self.cursor = slot;
            }
        }
        (e.at, e.seq, e.item)
    }

    /// Which substream holds the global minimum, and its key.
    fn front_source(&mut self) -> Option<(bool, SimTime, S)> {
        self.ensure_front();
        let wheel = self.active_keys.front().copied();
        let heap = self.overflow.peek().map(|Reverse(e)| e.key());
        match (wheel, heap) {
            (None, None) => None,
            (Some((at, seq)), None) => Some((true, at, seq)),
            (None, Some((at, seq))) => Some((false, at, seq)),
            (Some(w), Some(h)) => {
                if w <= h {
                    Some((true, w.0, w.1))
                } else {
                    Some((false, h.0, h.1))
                }
            }
        }
    }
}

impl<T, S: Copy + Ord> Default for TimerWheel<T, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, S: Copy + Ord> EventQueue<T, S> for TimerWheel<T, S> {
    fn push(&mut self, at: SimTime, seq: S, item: T) {
        let slot = Self::abs_slot(at);
        // Time must never move backwards. Key inversions *at* the current
        // instant are legal (causal stamps of fault cascades and late injects
        // can sort below already-popped stamps); the sorted insert below
        // keeps the remaining pop order exact.
        #[cfg(debug_assertions)]
        if let Some(last) = self.last_popped {
            debug_assert!(at >= last, "scheduled before the last popped event");
        }
        if slot < self.cursor || (slot == self.cursor && !self.active_keys.is_empty()) {
            // Behind the cursor (it may have skipped ahead of `at` while
            // scanning for the next occupied slot — every event already in
            // a slot is strictly later than `at`, so a sorted insert keeps
            // global order), or into the cursor slot mid-drain. New events
            // carry the largest seq so far, so the common case appends or
            // front-inserts, both cheap on a `VecDeque`. The search touches
            // only the key lane.
            let pos =
                self.active_keys.binary_search(&(at, seq)).expect_err("duplicate (time, seq) key");
            self.active_keys.insert(pos, (at, seq));
            self.active_items.insert(pos, item);
            self.wheel_len += 1;
        } else if slot - self.cursor < SLOTS as u64 {
            // Cursor-slot pushes while the active batch is empty also land
            // here: unsorted O(1) insert, sorted once on drain.
            self.push_slot((slot & SLOT_MASK) as usize, Entry { at, seq, item });
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(Entry { at, seq, item }));
        }
    }

    fn pop(&mut self) -> Option<(SimTime, S, T)> {
        let (from_wheel, _, _) = self.front_source()?;
        Some(if from_wheel { self.pop_active() } else { self.pop_overflow() })
    }

    fn peek_key(&mut self) -> Option<(SimTime, S)> {
        self.front_source().map(|(_, at, seq)| (at, seq))
    }

    fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<Q: EventQueue<u32>>(q: &mut Q) -> Vec<(SimTime, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn wheel_matches_heap_on_mixed_horizons() {
        let mut wheel = TimerWheel::new();
        let mut heap = BinaryHeapQueue::new();
        let times = [
            0u64,
            1,
            999,
            1 << 20,
            (1 << 20) + 1,
            300_000_000,   // within the ~268 ms horizon? no: this overflows
            200_000_000,   // within horizon
            5_000_000_000, // seconds out
            5_000_000_000, // same-time tie, later seq
            200_000_000,   // duplicate time within horizon
        ];
        for (seq, &ns) in times.iter().enumerate() {
            wheel.push(SimTime::from_nanos(ns), seq as u64, seq as u32);
            heap.push(SimTime::from_nanos(ns), seq as u64, seq as u32);
        }
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(drain(&mut wheel), drain(&mut heap));
    }

    #[test]
    fn push_into_current_slot_during_drain_preserves_order() {
        let mut wheel = TimerWheel::new();
        let t = SimTime::from_nanos(100);
        wheel.push(t, 0, 0);
        wheel.push(t, 1, 1);
        assert_eq!(wheel.pop().unwrap(), (t, 0, 0));
        // Schedule at the current instant mid-drain (loopback pattern).
        wheel.push(t, 2, 2);
        assert_eq!(wheel.pop().unwrap(), (t, 1, 1));
        assert_eq!(wheel.pop().unwrap(), (t, 2, 2));
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn overflow_merges_with_wheel_after_cursor_advances() {
        let mut wheel = TimerWheel::new();
        let far = SimTime::from_secs(10);
        wheel.push(far, 0, 0);
        // Pop re-anchors the cursor near `far`; later pushes just after it
        // must land in the wheel and still come out in order.
        assert_eq!(wheel.pop().unwrap(), (far, 0, 0));
        let near = SimTime::from_nanos(far.as_nanos() + 5);
        wheel.push(near, 1, 1);
        assert_eq!(wheel.pop().unwrap(), (near, 1, 1));
    }

    #[test]
    fn a_reanchored_wheel_pops_in_heap_order_across_mixed_horizons() {
        // Drain a wheel far into the future, as shard deal-out does, then
        // re-anchor it at an earlier clock and refill it from there.
        let mut wheel = TimerWheel::new();
        wheel.push(SimTime::from_secs(9), 0, 0);
        wheel.push(SimTime::from_millis(40), 1, 1);
        assert_eq!(drain(&mut wheel).len(), 2);
        let now = 3_000_000_000u64;
        wheel.reanchor(SimTime::from_nanos(now));
        let mut heap = BinaryHeapQueue::new();
        let offsets = [
            0u64,
            5,
            1 << 20,
            200_000_000,   // inside the ~268 ms horizon
            300_000_000,   // past it: overflow
            4_000_000_000, // seconds out
            200_000_000,   // tie in time, later seq
            0,
        ];
        for (seq, &d) in offsets.iter().enumerate() {
            let seq = seq as u64 + 2;
            wheel.push(SimTime::from_nanos(now + d), seq, seq as u32);
            heap.push(SimTime::from_nanos(now + d), seq, seq as u32);
        }
        // Every event within the horizon sits in a slot, not the overflow.
        assert_eq!(wheel.overflow.len(), 2);
        assert_eq!(drain(&mut wheel), drain(&mut heap));
    }

    #[test]
    fn peek_key_reports_global_min_across_substreams() {
        let mut wheel = TimerWheel::new();
        wheel.push(SimTime::from_secs(30), 0, 0); // overflow
        wheel.push(SimTime::from_nanos(10), 1, 1); // wheel
        assert_eq!(wheel.peek_key(), Some((SimTime::from_nanos(10), 1)));
        wheel.pop();
        assert_eq!(wheel.peek_key(), Some((SimTime::from_secs(30), 0)));
    }

    #[test]
    fn interleaved_pushes_and_pops_match_heap() {
        // A miniature deterministic workload: after each pop, schedule a few
        // follow-ups relative to the popped time, mirroring how the engine
        // uses the queue. Both implementations must agree event for event.
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let mut heap: BinaryHeapQueue<u32> = BinaryHeapQueue::new();
        let mut seq = 0u64;
        let push_both = |w: &mut TimerWheel<u32>, h: &mut BinaryHeapQueue<u32>, at, s: u64| {
            w.push(at, s, s as u32);
            h.push(at, s, s as u32);
        };
        for i in 0..8 {
            push_both(&mut wheel, &mut heap, SimTime::from_nanos(i * 61), seq);
            seq += 1;
        }
        let mut popped = 0u64;
        while let Some((at, s, v)) = wheel.pop() {
            assert_eq!(heap.pop().unwrap(), (at, s, v));
            popped += 1;
            if popped < 600 {
                // Deterministic pseudo-delays spanning slot, horizon, and
                // overflow ranges, plus same-instant loopbacks.
                let delays = [0u64, 7, 1 << 19, 3 << 20, 400_000_000, 2_000_000_000];
                let d = delays[(s as usize + popped as usize) % delays.len()];
                push_both(&mut wheel, &mut heap, SimTime::from_nanos(at.as_nanos() + d), seq);
                seq += 1;
            }
        }
        assert!(heap.pop().is_none());
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn slot_storage_follows_resident_entries_not_burst_history() {
        // A 60 Hz loop: 1 500 events at one instant every 16.7 ms for 20
        // laps of the ring, each burst drained as it comes due. The bursts
        // visit most of the 256 slots, but at most two are pending at once,
        // so the pool must stay near one burst's worth of nodes. Slots that
        // each keep the capacity of the largest burst they held end up about
        // fifty times over this bound (11.6 MB).
        const BURST: u64 = 1_500;
        const PERIOD_NS: u64 = 16_700_000;
        let ticks = ((20 * SLOTS as u64) << SLOT_SHIFT) / PERIOD_NS;
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let mut seq = 0u64;
        let mut peak_len = 0;
        let mut last = None;
        for tick in 0..=ticks {
            let due = SimTime::from_nanos(tick * PERIOD_NS);
            for _ in 0..BURST {
                wheel.push(due, seq, seq as u32);
                seq += 1;
            }
            peak_len = peak_len.max(wheel.len());
            while wheel.peek_key().is_some_and(|(at, _)| at < due) {
                let (at, s, _) = wheel.pop().expect("peeked");
                assert!(Some((at, s)) > last, "pop order broke under node reuse");
                last = Some((at, s));
            }
        }
        assert_eq!(drain(&mut wheel).len() as u64, BURST);
        let node_bytes = std::mem::size_of::<Option<Entry<u32, u64>>>() + 4;
        let slot_bytes = wheel.pool_bytes();
        let bound = 2 * peak_len * node_bytes;
        assert!(slot_bytes <= bound, "slot storage {slot_bytes} B over {bound} B");
    }
}
