//! Bounded backpressure primitives: token buckets and drop-policy queues.
//!
//! Overload control needs two sans-I/O building blocks below the admission
//! and shedding policy layers (which live in `metaclass-edge`):
//!
//! - [`TokenBucket`] — deterministic rate limiting measured in simulated
//!   time: a bucket of `burst` tokens refilled one token every
//!   `refill_every`. Joins (or any gated action) spend a token each.
//! - [`BoundedQueue`] — a fixed-capacity FIFO with an explicit
//!   [`OverflowPolicy`]: `DropOldest` suits state snapshots (the newest
//!   state supersedes older ones), `DropNewest` suits logs and interaction
//!   streams (what was accepted stays accepted). The queue keeps drop and
//!   high-watermark accounting so callers can export `overload.*` metrics
//!   and oracles can check the bound was never exceeded.
//!
//! Both are pure state machines fed with timestamps, like the rest of this
//! crate, so they behave byte-identically across execution engines.

use std::collections::VecDeque;

use metaclass_netsim::{SimDuration, SimTime};

/// A deterministic token bucket over simulated time.
///
/// Holds at most `burst` tokens; one token regenerates every `refill_every`.
/// Refill is computed lazily from the last refill instant with integer
/// arithmetic, so results do not depend on how often the bucket is polled.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    burst: u32,
    refill_every: SimDuration,
    tokens: u32,
    last_refill: SimTime,
}

impl TokenBucket {
    /// Creates a full bucket of `burst` tokens refilling one token every
    /// `refill_every` (a zero interval means the bucket is always full).
    pub fn new(burst: u32, refill_every: SimDuration, now: SimTime) -> Self {
        TokenBucket { burst, refill_every, tokens: burst, last_refill: now }
    }

    fn refill(&mut self, now: SimTime) {
        if self.refill_every == SimDuration::ZERO {
            self.tokens = self.burst;
            self.last_refill = now;
            return;
        }
        if now <= self.last_refill {
            return;
        }
        let elapsed = now.duration_since(self.last_refill).as_nanos();
        let per = self.refill_every.as_nanos();
        let earned = elapsed / per;
        if earned == 0 {
            return;
        }
        self.tokens = self.tokens.saturating_add(earned.min(u64::from(u32::MAX)) as u32);
        if self.tokens >= self.burst {
            self.tokens = self.burst;
            self.last_refill = now;
        } else {
            self.last_refill += SimDuration::from_nanos(earned * per);
        }
    }

    /// Takes one token if available at `now`.
    pub fn try_take(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }

    /// Tokens available at `now` without taking any.
    pub fn available(&mut self, now: SimTime) -> u32 {
        self.refill(now);
        self.tokens
    }

    /// How long from `now` until at least one token is available (zero if
    /// one already is). Useful as a retry hint for deferred requests.
    pub fn next_available(&mut self, now: SimTime) -> SimDuration {
        self.refill(now);
        if self.tokens > 0 || self.refill_every == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let next_at = self.last_refill + self.refill_every;
        if next_at <= now {
            SimDuration::ZERO
        } else {
            next_at.duration_since(now)
        }
    }
}

/// What a full [`BoundedQueue`] does with an incoming item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Evict the oldest queued item to make room (state snapshots: the
    /// newest state supersedes what it displaces).
    DropOldest,
    /// Reject the incoming item (interactions/logs: accepted entries are
    /// never lost to later arrivals).
    DropNewest,
}

/// A fixed-capacity FIFO with drop accounting and a depth high-watermark.
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    policy: OverflowPolicy,
    dropped: u64,
    max_depth: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates an empty queue holding at most `capacity` items.
    pub fn new(capacity: usize, policy: OverflowPolicy) -> Self {
        BoundedQueue { items: VecDeque::new(), capacity, policy, dropped: 0, max_depth: 0 }
    }

    /// Enqueues `item`, returning the item the policy displaced (the evicted
    /// oldest under `DropOldest`, `item` itself under `DropNewest`) or
    /// `None` when the queue had room.
    pub fn push(&mut self, item: T) -> Option<T> {
        let displaced = if self.items.len() >= self.capacity {
            self.dropped += 1;
            match self.policy {
                OverflowPolicy::DropNewest => return Some(item),
                OverflowPolicy::DropOldest => self.items.pop_front(),
            }
        } else {
            None
        };
        if self.capacity > 0 {
            self.items.push_back(item);
            self.max_depth = self.max_depth.max(self.items.len());
        }
        displaced
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items dropped by the overflow policy so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Highest depth ever observed (never exceeds `capacity`).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Iterates queued items oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Drops every queued item (drop accounting is preserved).
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_spends_burst_then_refills_at_rate() {
        let mut tb = TokenBucket::new(2, SimDuration::from_millis(100), SimTime::ZERO);
        assert!(tb.try_take(SimTime::ZERO));
        assert!(tb.try_take(SimTime::ZERO));
        assert!(!tb.try_take(SimTime::ZERO), "burst exhausted");
        assert_eq!(tb.next_available(SimTime::ZERO), SimDuration::from_millis(100));
        assert!(!tb.try_take(SimTime::from_millis(99)));
        assert!(tb.try_take(SimTime::from_millis(100)), "one token back after the interval");
        assert!(!tb.try_take(SimTime::from_millis(100)));
    }

    #[test]
    fn bucket_refill_is_poll_frequency_independent() {
        let mut coarse = TokenBucket::new(1, SimDuration::from_millis(10), SimTime::ZERO);
        let mut fine = coarse.clone();
        assert!(coarse.try_take(SimTime::ZERO) && fine.try_take(SimTime::ZERO));
        // Polling every nanosecond must not earn tokens faster than one
        // coarse check at the end.
        for ns in 1..=35_000_000u64 {
            if ns % 1_000_000 != 0 {
                continue;
            }
            fine.available(SimTime::from_nanos(ns));
        }
        assert_eq!(
            coarse.available(SimTime::from_millis(35)),
            fine.available(SimTime::from_millis(35))
        );
        assert_eq!(coarse.available(SimTime::from_millis(35)), 1, "capped at burst");
    }

    #[test]
    fn bucket_never_exceeds_burst_after_long_idle() {
        let mut tb = TokenBucket::new(3, SimDuration::from_millis(1), SimTime::ZERO);
        assert_eq!(tb.available(SimTime::from_secs(3600)), 3);
    }

    #[test]
    fn drop_oldest_evicts_from_the_front() {
        let mut q = BoundedQueue::new(2, OverflowPolicy::DropOldest);
        assert_eq!(q.push(1), None);
        assert_eq!(q.push(2), None);
        assert_eq!(q.push(3), Some(1), "oldest evicted");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.max_depth(), 2);
    }

    #[test]
    fn drop_newest_rejects_the_arrival() {
        let mut q = BoundedQueue::new(2, OverflowPolicy::DropNewest);
        q.push(1);
        q.push(2);
        assert_eq!(q.push(3), Some(3), "arrival rejected");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn depth_never_exceeds_capacity_under_random_churn() {
        let mut q = BoundedQueue::new(5, OverflowPolicy::DropOldest);
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if x.is_multiple_of(3) {
                q.pop();
            } else {
                q.push(i);
            }
            assert!(q.len() <= q.capacity());
        }
        assert!(q.max_depth() <= q.capacity());
    }

    #[test]
    fn zero_capacity_queue_drops_everything() {
        let mut q = BoundedQueue::new(0, OverflowPolicy::DropOldest);
        assert_eq!(q.push(7), None, "nothing to evict; item silently dropped");
        assert!(q.is_empty());
        assert_eq!(q.dropped(), 1);
    }
}
