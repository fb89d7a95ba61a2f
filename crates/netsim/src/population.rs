//! Deterministic flash-crowd population for the flyweight client-pool layer.
//!
//! A [`PopulationTimeline`] is the pre-computed arrival schedule of a pool of
//! statistically-identical remote clients, generated once at build time
//! from a [`PopulationProfile`] and a [`DetRng`] stream (members stay to the
//! end of class). The pool actor drains it per tick by a search of its bucket
//! table and a scan of one bucket, never O(members × ticks), so a run that
//! models a million pooled clients schedules one entity per region.
//!
//! Determinism: the timeline depends only on `(seed, profile, members,
//! class length)` and is generated before the simulation starts, so serial
//! and sharded engines consume byte-identical schedules.

use serde::{Deserialize, Serialize};

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// How one pool's population arrives: a flash crowd, everyone trying to join
/// around `at`, spread uniformly over `spread` (the post-COVID "class start"
/// stampede). With `spread == 0` every member joins at exactly `at`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopulationProfile {
    /// Nominal class-start instant.
    pub at: SimTime,
    /// Uniform window over which the crowd actually arrives.
    pub spread: SimDuration,
}

impl PopulationProfile {
    /// A flash crowd: all members join at `at`, spread over `spread`.
    /// `spread == 0` makes every pooled member indistinguishable from a
    /// cohort of individually simulated clients with identical `join_delay`,
    /// which is what the pool-vs-expanded equivalence tests use.
    pub fn flash_crowd(at: SimTime, spread: SimDuration) -> Self {
        PopulationProfile { at, spread }
    }
}

/// The joins per bucket its width aims at: a dense crowd averages between
/// this and twice as many (the width is a power of two). A drain scans one.
const JOINS_PER_BUCKET: u64 = 128;

/// The materialized join schedule of one pool, consumed with
/// [`PopulationTimeline::drain_until`].
///
/// Each join is an offset from `base` (the earliest instant any join can
/// take) in a bucket of 2^`shift` ns (`shift` ≤ 32: a bucket never straddles
/// a 2^32-ns page). `lows` holds the offsets' low 32 bits, buckets ascending,
/// unsorted within one; `buckets` has one `(offset >> shift, first index)`
/// entry per occupied bucket, bounded by the member count whatever the
/// spread: about 4.05 bytes per member in a dense crowd, 12 with a page per
/// join. Draining only moves the cursor, so `rewind` replays the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationTimeline {
    base: SimTime,
    shift: u32,
    lows: Vec<u32>,
    buckets: Vec<(u32, u32)>,
    /// Joins drained so far: every one at an offset below `next`.
    drained: usize,
    next: u64,
}

impl PopulationTimeline {
    /// Largest population one timeline may be generated for: ten times the
    /// 1M-member planet tier. Besides the timeline, generation holds the draws
    /// (4 bytes per member, only when the span fits one page; a wider one
    /// draws twice instead) and 4 bytes per bucket of the key range: about
    /// 81 MB in all at this cap for a dense crowd. With about a page per join
    /// it sorts the keys instead, up to 20 bytes per member, 200 MB. Spec
    /// loaders and command lines reject larger populations before building.
    pub const MAX_MEMBERS: u64 = 10_000_000;

    /// Generates the timeline for `members` pooled clients over
    /// `[SimTime::ZERO, horizon]`.
    ///
    /// All randomness comes from `rng` (pass a derived stream): one draw per
    /// member when the crowd has a spread, none when it has not. Two calls
    /// with equal inputs yield equal timelines. Arrivals past `horizon` are
    /// clamped to `horizon` so the whole population is always accounted for.
    ///
    /// # Panics
    ///
    /// Panics if `members` exceeds [`PopulationTimeline::MAX_MEMBERS`].
    pub fn generate(
        profile: &PopulationProfile,
        members: u64,
        horizon: SimTime,
        rng: &mut DetRng,
    ) -> Self {
        assert!(
            members <= Self::MAX_MEMBERS,
            "{members} members exceed PopulationTimeline::MAX_MEMBERS ({})",
            Self::MAX_MEMBERS
        );
        let spread_ns = profile.spread.as_nanos();
        let base = profile.at.min(horizon);
        let offset = |rng: &mut DetRng| {
            let draw = if spread_ns == 0 { 0 } else { rng.next_u64() % spread_ns };
            let join = (profile.at + SimDuration::from_nanos(draw)).min(horizon);
            join.as_nanos() - base.as_nanos()
        };
        // The latest offset a draw can give sizes the buckets.
        let latest = profile.at.saturating_add(SimDuration::from_nanos(spread_ns.max(1) - 1));
        let last = latest.min(horizon).as_nanos() - base.as_nanos();
        let width = last / (members / JOINS_PER_BUCKET).max(1);
        let shift = (u64::BITS - width.leading_zeros()).min(32);
        let (lows, buckets) = if last <= u64::from(u32::MAX) {
            // A low half is the whole offset: one pass of draws suffices.
            let draws: Vec<u32> = (0..members).map(|_| offset(rng) as u32).collect();
            let offsets = || draws.iter().map(|&low| u64::from(low));
            bucket(members, shift, last, offsets(), offsets())
        } else {
            // Count on a copy of the stream, then scatter the same draws.
            let mut copy = rng.clone();
            let count = (0..members).map(|_| offset(&mut copy));
            bucket(members, shift, last, count, (0..members).map(|_| offset(rng)))
        };
        PopulationTimeline { base, shift, lows, buckets, drained: 0, next: 0 }
    }

    /// Total pool size this timeline was generated for.
    pub fn members(&self) -> u64 {
        self.lows.len() as u64
    }

    /// Joins scheduled at or before `now` that have not been drained yet;
    /// advances the cursor past them.
    pub fn drain_until(&mut self, now: SimTime) -> u64 {
        let since = now.as_nanos().checked_sub(self.base.as_nanos());
        let Some(offset) = since.filter(|&offset| offset >= self.next) else {
            return 0;
        };
        self.next = offset.saturating_add(1);
        // Buckets before `now`'s drain whole; within its bucket, a count.
        let b = self.buckets.partition_point(|&(key, _)| u64::from(key) < offset >> self.shift);
        let range = self.bucket_range(b);
        let mut drained = range.start;
        if self.buckets.get(b).is_some_and(|&(key, _)| u64::from(key) == offset >> self.shift) {
            drained += self.lows[range].iter().filter(|&&low| low <= offset as u32).count();
        }
        (drained - std::mem::replace(&mut self.drained, drained)) as u64
    }

    /// Time of the next undrained join, if any: the earliest at or past
    /// `next` in its bucket, or else in the bucket after.
    pub fn next_event_at(&self) -> Option<SimTime> {
        let b = self.buckets.partition_point(|&(key, _)| u64::from(key) < self.next >> self.shift);
        let earliest = (b..self.buckets.len().min(b + 2)).find_map(|b| {
            let offsets = self.lows[self.bucket_range(b)].iter().map(|&low| self.offset(b, low));
            offsets.filter(|&offset| offset >= self.next).min()
        })?;
        Some(SimTime::from_nanos(self.base.as_nanos() + earliest))
    }

    /// Rewinds the cursor to the beginning (e.g. after a crash-restart).
    pub fn rewind(&mut self) {
        (self.drained, self.next) = (0, 0);
    }

    /// Splits off `tracers` members as fully simulated clients: returns the
    /// residual pooled timeline (with one join removed at each tracer's
    /// instant) and the tracers' join instants, sorted ascending.
    ///
    /// Tracers are sampled by stride across the sorted joins — the `i·n /
    /// tracers`-th of the `n` joins for each `i < tracers` — so they cover
    /// the whole arrival curve (first, last, and evenly between), and the
    /// residual pool plus the tracer clients together reproduce the original
    /// population exactly. When `tracers >= n` every join is a tracer. One
    /// pass over the buckets finds each rank by the table's first indices
    /// and selects it in the residual's copy of its bucket.
    pub fn split_tracers(&self, tracers: u64) -> (PopulationTimeline, Vec<SimTime>) {
        let n = self.lows.len() as u64;
        let tracers = tracers.min(n);
        let mut ranks = (0..tracers).map(|i| (i * n / tracers) as usize).peekable();
        let mut picked = Vec::with_capacity(tracers as usize);
        let mut lows = Vec::with_capacity(n as usize); // a cut bucket is copied whole first
        let mut buckets = Vec::with_capacity(self.buckets.len());
        let mut copied = 0;
        for (b, &(key, _)) in self.buckets.iter().enumerate() {
            let range = self.bucket_range(b);
            let first = range.start - picked.len();
            if ranks.peek().is_some_and(|&rank| rank < range.end) {
                // One copy up to this bucket's end; each rank is selected and cut out there.
                lows.extend_from_slice(&self.lows[copied..range.end]);
                let (mut from, mut cut) = (first, 0);
                while let Some(rank) = ranks.next_if(|&rank| rank < range.end) {
                    let (at, base) = (first + rank - range.start, self.base.as_nanos());
                    lows[from..].select_nth_unstable(at - from);
                    picked.push(SimTime::from_nanos(base + self.offset(b, lows[at])));
                    lows.copy_within(from..at, from - cut);
                    (from, cut) = (at + 1, cut + 1);
                }
                lows.copy_within(from.., from - cut);
                lows.truncate(lows.len() - cut);
                copied = range.end;
            }
            if range.end - picked.len() > first {
                buckets.push((key, first as u32));
            }
        }
        lows.extend_from_slice(&self.lows[copied..]);
        let residual = PopulationTimeline { lows, buckets, drained: 0, next: 0, ..*self };
        (residual, picked)
    }

    /// The indices into `lows` of bucket entry `b` (empty past the last).
    fn bucket_range(&self, b: usize) -> std::ops::Range<usize> {
        let start = self.buckets.get(b).map_or(self.lows.len(), |&(_, first)| first as usize);
        let end = self.buckets.get(b + 1).map_or(self.lows.len(), |&(_, first)| first as usize);
        start..end
    }

    /// The offset from `base` of the join at `low` in bucket entry `b`.
    fn offset(&self, b: usize, low: u32) -> u64 {
        (u64::from(self.buckets[b].0) << self.shift) & !u64::from(u32::MAX) | u64::from(low)
    }
}

/// Groups `members` offsets, none past `last`, into buckets of 2^`shift` ns
/// by a counting scatter: sizes from `count`, lows from `scatter` (the same
/// offsets again). Returns the lows bucket by bucket and the bucket table.
fn bucket(
    members: u64,
    shift: u32,
    last: u64,
    count: impl Iterator<Item = u64>,
    scatter: impl Iterator<Item = u64>,
) -> (Vec<u32>, Vec<(u32, u32)>) {
    let mut lows = vec![0u32; members as usize];
    let key = |offset: u64| (offset >> shift) as u32;
    // A key indexes its bucket when the key range is no wider than the
    // crowd; otherwise its rank among the sorted occupied keys does.
    let dense = last >> shift < members;
    let mut keys = Vec::new();
    let mut at = if dense {
        let mut sizes = vec![0u32; (last >> shift) as usize + 3];
        count.for_each(|offset| sizes[key(offset) as usize + 2] += 1);
        sizes
    } else {
        let mut sorted: Vec<u32> = count.map(key).collect();
        sorted.sort_unstable();
        keys = sorted.chunk_by(u32::eq).map(|run| run[0]).collect();
        [0, 0].into_iter().chain(sorted.chunk_by(u32::eq).map(|run| run.len() as u32)).collect()
    };
    // Prefix sums: `at[b + 1]` is bucket b's fill cursor, then `at[b]` its start.
    for b in 1..at.len() {
        at[b] += at[b - 1];
    }
    for offset in scatter {
        let b =
            if dense { key(offset) as usize } else { keys.partition_point(|&k| k < key(offset)) };
        lows[at[b + 1] as usize] = offset as u32;
        at[b + 1] += 1;
    }
    let occupied = (0..at.len() - 2).filter(|&b| at[b] < at[b + 1]);
    let mut buckets = Vec::with_capacity(at.len() - 2);
    buckets.extend(occupied.map(|b| (if dense { b as u32 } else { keys[b] }, at[b])));
    (lows, buckets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn flash_crowd_with_zero_spread_is_one_event() {
        let profile = PopulationProfile::flash_crowd(SimTime::from_millis(500), secs(0));
        let mut rng = DetRng::new(1);
        let mut tl = PopulationTimeline::generate(&profile, 1000, SimTime::from_secs(10), &mut rng);
        assert_eq!(tl.next_event_at(), Some(SimTime::from_millis(500)));
        assert_eq!(tl.drain_until(SimTime::from_millis(500)), 1000);
        assert_eq!(tl.next_event_at(), None);
    }

    #[test]
    fn rewind_replays_the_schedule() {
        let profile = PopulationProfile::flash_crowd(SimTime::from_secs(1), secs(2));
        let mut tl = PopulationTimeline::generate(
            &profile,
            500,
            SimTime::from_secs(10),
            &mut DetRng::new(2),
        );
        let first = [tl.drain_until(SimTime::from_secs(2)), tl.drain_until(SimTime::from_secs(10))];
        tl.rewind();
        let again = [tl.drain_until(SimTime::from_secs(2)), tl.drain_until(SimTime::from_secs(10))];
        assert_eq!(first, again);
        assert_eq!(first[0] + first[1], 500);
    }

    #[test]
    fn generation_is_deterministic() {
        let profile = PopulationProfile::flash_crowd(SimTime::ZERO, secs(50));
        let a = PopulationTimeline::generate(
            &profile,
            5000,
            SimTime::from_secs(60),
            &mut DetRng::new(42).derive(7),
        );
        let b = PopulationTimeline::generate(
            &profile,
            5000,
            SimTime::from_secs(60),
            &mut DetRng::new(42).derive(7),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn drain_accounts_for_every_member() {
        let profile = PopulationProfile::flash_crowd(SimTime::from_secs(1), secs(4));
        let mut rng = DetRng::new(9);
        let mut tl = PopulationTimeline::generate(&profile, 777, SimTime::from_secs(10), &mut rng);
        let mut joined = 0;
        let mut now = SimTime::ZERO;
        while let Some(next) = tl.next_event_at() {
            now = next;
            joined += tl.drain_until(now);
        }
        assert_eq!(joined, 777);
        assert!(now <= SimTime::from_secs(10));
    }

    #[test]
    fn the_bucket_table_holds_only_occupied_buckets() {
        // Half the clock under an unbounded horizon: nearly every join has
        // a 2^32-ns page of its own, and a dense table would have 2^31.
        let at = SimTime::from_nanos((5 << 32) + 17);
        let spread = SimDuration::from_nanos(1 << 63);
        let profile = PopulationProfile::flash_crowd(at, spread);
        let sparse = PopulationTimeline::generate(&profile, 300, SimTime::MAX, &mut DetRng::new(3));
        assert_eq!(sparse.shift, 32);
        assert!((250..=300).contains(&sparse.buckets.len()), "{} buckets", sparse.buckets.len());
        // A dense crowd: buckets of a few dozen joins.
        let profile = PopulationProfile::flash_crowd(
            SimTime::from_millis(200),
            SimDuration::from_millis(500),
        );
        let dense = PopulationTimeline::generate(
            &profile,
            100_000,
            SimTime::from_secs(3_600),
            &mut DetRng::new(4),
        );
        let per_bucket = dense.lows.len() / dense.buckets.len();
        let aim = JOINS_PER_BUCKET as usize;
        assert!((aim..=2 * aim).contains(&per_bucket), "{per_bucket} joins per bucket");
        for tl in [sparse, dense] {
            for (b, &(key, _)) in tl.buckets.iter().enumerate() {
                let lows = &tl.lows[tl.bucket_range(b)];
                assert!(lows.iter().all(|&low| tl.offset(b, low) >> tl.shift == u64::from(key)));
            }
            // A bucket whose every join became a tracer leaves the table.
            let (residual, _) = tl.split_tracers(tl.lows.len() as u64 / 3);
            assert!(residual.buckets.len() <= residual.lows.len());
            assert!((0..residual.buckets.len()).all(|i| !residual.bucket_range(i).is_empty()));
        }
    }

    #[test]
    fn tracer_joins_cover_the_arrival_curve() {
        let profile = PopulationProfile::flash_crowd(SimTime::from_secs(1), secs(8));
        let mut rng = DetRng::new(5);
        let tl = PopulationTimeline::generate(&profile, 640, SimTime::from_secs(20), &mut rng);
        let (residual, tracers) = tl.split_tracers(16);
        assert_eq!(tracers.len(), 16);
        assert_eq!(residual.members(), 624);
        let (empty, all) = tl.split_tracers(u64::MAX);
        assert_eq!(all.len(), 640);
        assert_eq!((empty.members(), empty.next_event_at()), (0, None));
        assert_eq!(tracers[0], all[0], "stride sampling starts at the first join");
        for w in tracers.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
