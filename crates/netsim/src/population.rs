//! Deterministic flash-crowd population for the flyweight client-pool layer.
//!
//! A [`PopulationTimeline`] is the pre-computed arrival schedule of a pool of
//! statistically-identical remote clients: every join is materialized once,
//! at build time, from a [`PopulationProfile`] and a [`DetRng`] stream, as
//! one sorted 4-byte offset per member (its low 32 bits within a 2^32-ns
//! page, plus a page table with one entry per occupied page). Members stay
//! to the end of class.
//! The pool actor then consumes the timeline with a cursor — a binary search
//! per tick, never O(members × ticks) — so a run that models a million
//! pooled clients schedules exactly one entity per region.
//!
//! Determinism story: the timeline depends only on `(seed, profile, members,
//! class length)`. It is generated before the simulation starts, so serial
//! and sharded engines consume byte-identical schedules; the pool actor
//! itself performs no randomness beyond what its own derived [`DetRng`]
//! streams provide.

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

/// The materialized join schedule of one pool.
///
/// Generated once per run from `(seed, profile, members, horizon)`;
/// consumed with [`PopulationTimeline::drain_until`].
///
/// Stored as 4 bytes per member plus 8 per occupied page: every join is an
/// offset from `base` (the earliest instant any join can take), split into a
/// 2^32-ns (≈4.29 s) page and the low 32 bits within it. `lows` holds the
/// low halves, sorted within each page and the pages in ascending order;
/// `pages` has one `(page, first join index)` entry per page that holds a
/// join, so its length is bounded by the member count whatever the spread
/// or horizon. A crowd whose spread fits a few pages costs 4 bytes per
/// member; one with a page per join, 12. Draining only moves the cursor, so
/// [`PopulationTimeline::rewind`] replays the same schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationTimeline {
    base: SimTime,
    lows: Vec<u32>,
    pages: Vec<(u32, u32)>,
    /// Index into `lows` of the next undrained join.
    next_join: usize,
    /// Index into `pages` of the page holding `next_join` (`pages.len()`
    /// once every join has drained).
    page: usize,
    members: u64,
}

impl PopulationTimeline {
    /// Largest population one timeline may be generated for: ten times the
    /// 1M-member planet tier, the largest any experiment runs. Generation
    /// holds 8 bytes per member (the low halves and the page numbers, which
    /// become the sort's scratch) plus 12 per occupied page (the table and
    /// each page's fill cursor): 80 MB at this cap when the spread fits a
    /// few pages, 200 MB when every join has a page of its own. Spec loaders
    /// and command lines reject larger populations before building instead
    /// of letting an allocation abort the process.
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
        // Counting sort by page: a first pass over a copy of the stream
        // finds the occupied pages and their sizes, the second makes the
        // same draws and drops each low half into its page's next slot.
        let mut keys: Vec<u32> = {
            let mut copy = rng.clone();
            (0..members).map(|_| (offset(&mut copy) >> 32) as u32).collect()
        };
        keys.sort_unstable();
        let mut pages = Vec::with_capacity(keys.chunk_by(u32::eq).count());
        let mut first = 0;
        for run in keys.chunk_by(u32::eq) {
            pages.push((run[0], first));
            first += run.len() as u32;
        }
        let mut slot: Vec<u32> = pages.iter().map(|&(_, first)| first).collect();
        let mut lows = vec![0u32; members as usize];
        for _ in 0..members {
            let offset = offset(rng);
            let i = pages.partition_point(|&(page, _)| page < (offset >> 32) as u32);
            lows[slot[i] as usize] = offset as u32;
            slot[i] += 1;
        }
        let mut timeline = PopulationTimeline { base, lows, pages, next_join: 0, page: 0, members };
        // The page keys are spent; their buffer is the sort's scratch.
        for i in 0..timeline.pages.len() {
            let range = timeline.page_range(i);
            sort_lows(&mut timeline.lows[range.clone()], &mut keys[range]);
        }
        timeline
    }

    /// Total pool size this timeline was generated for.
    pub fn members(&self) -> u64 {
        self.members
    }

    /// Joins scheduled at or before `now` that have not been drained yet;
    /// advances the cursor past them.
    pub fn drain_until(&mut self, now: SimTime) -> u64 {
        let Some(offset) = now.as_nanos().checked_sub(self.base.as_nanos()) else {
            return 0;
        };
        let (page, low) = ((offset >> 32) as u32, offset as u32);
        let from = self.next_join;
        // Pages before `page` drain whole; within `page`, one binary search.
        let whole = self.pages[self.page..].partition_point(|&(p, _)| p < page);
        if whole > 0 {
            self.page += whole;
            self.next_join = self.page_range(self.page).start;
        }
        if self.pages.get(self.page).is_some_and(|&(p, _)| p == page) {
            let end = self.page_range(self.page).end;
            self.next_join += self.lows[self.next_join..end].partition_point(|&l| l <= low);
            if self.next_join == end {
                self.page += 1;
            }
        }
        (self.next_join - from) as u64
    }

    /// Time of the next undrained join, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        let &(page, _) = self.pages.get(self.page)?;
        Some(self.instant(page, self.lows[self.next_join]))
    }

    /// Rewinds the cursor to the beginning (e.g. after a crash-restart).
    pub fn rewind(&mut self) {
        self.next_join = 0;
        self.page = 0;
    }

    /// Splits off `tracers` members as fully simulated clients: returns the
    /// residual pooled timeline (with one join removed at each tracer's
    /// instant) and the tracers' join instants, sorted ascending.
    ///
    /// Tracers are sampled by stride across the sorted joins — the `i·n /
    /// tracers`-th of the `n` joins for each `i < tracers` — so they cover
    /// the whole arrival curve (first, last, and evenly between), and the
    /// residual pool plus the tracer clients together reproduce the original
    /// population exactly. When `tracers >= n` every join is a tracer. The
    /// residual is built in one pass over the joins, page by page.
    pub fn split_tracers(&self, tracers: u64) -> (PopulationTimeline, Vec<SimTime>) {
        let n = self.lows.len() as u64;
        let tracers = tracers.min(n);
        let mut ranks = (0..tracers).map(|i| (i * n / tracers) as usize).peekable();
        let mut picked = Vec::with_capacity(tracers as usize);
        let mut lows = Vec::with_capacity((n - tracers) as usize);
        let mut pages = Vec::with_capacity(self.pages.len());
        for (i, &(page, _)) in self.pages.iter().enumerate() {
            let range = self.page_range(i);
            let first = lows.len();
            let mut from = range.start;
            while let Some(rank) = ranks.next_if(|&rank| rank < range.end) {
                lows.extend_from_slice(&self.lows[from..rank]);
                picked.push(self.instant(page, self.lows[rank]));
                from = rank + 1;
            }
            lows.extend_from_slice(&self.lows[from..range.end]);
            if lows.len() > first {
                pages.push((page, first as u32));
            }
        }
        let residual = PopulationTimeline {
            base: self.base,
            lows,
            pages,
            next_join: 0,
            page: 0,
            members: self.members.saturating_sub(tracers),
        };
        (residual, picked)
    }

    /// The indices into `lows` of page entry `i` (empty past the last page).
    fn page_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = self.pages.get(i).map_or(self.lows.len(), |&(_, first)| first as usize);
        let end = self.pages.get(i + 1).map_or(self.lows.len(), |&(_, first)| first as usize);
        start..end
    }

    /// The instant of the join at `low` within `page`.
    fn instant(&self, page: u32, low: u32) -> SimTime {
        SimTime::from_nanos(self.base.as_nanos() + ((u64::from(page) << 32) | u64::from(low)))
    }
}

/// Sorts `lows` ascending by a radix sort, least significant byte first:
/// each of the four passes is a stable counting sort between `lows` and
/// `scratch`, so the result lands back in `lows`. On a page of uniformly
/// spread offsets this takes about 60% of `sort_unstable`'s time; each call
/// also builds four 256-entry histograms, whatever the slice length.
fn sort_lows(lows: &mut [u32], scratch: &mut [u32]) {
    let (mut from, mut to) = (lows, scratch);
    for shift in [0, 8, 16, 24] {
        let digit = |low: u32| ((low >> shift) & 0xff) as usize;
        let mut next = [0usize; 256];
        for &low in from.iter() {
            next[digit(low)] += 1;
        }
        let mut first = 0;
        for slot in &mut next {
            (*slot, first) = (first, first + *slot);
        }
        for &low in from.iter() {
            to[next[digit(low)]] = low;
            next[digit(low)] += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
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
    fn the_page_table_holds_only_occupied_pages() {
        // Half the clock under an unbounded horizon: nearly every join has
        // a 2^32-ns page of its own, and a dense table would have 2^31.
        let at = SimTime::from_nanos((5 << 32) + 17);
        let spread = SimDuration::from_nanos(1 << 63);
        let profile = PopulationProfile::flash_crowd(at, spread);
        let tl = PopulationTimeline::generate(&profile, 300, SimTime::MAX, &mut DetRng::new(3));
        assert!((250..=300).contains(&tl.pages.len()), "{} pages", tl.pages.len());
        // A page whose every join became a tracer leaves the table.
        let (residual, _) = tl.split_tracers(100);
        assert!(residual.pages.len() <= 200, "{} pages", residual.pages.len());
        assert!((0..residual.pages.len()).all(|i| !residual.page_range(i).is_empty()));
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
