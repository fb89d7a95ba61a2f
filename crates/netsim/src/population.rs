//! Deterministic flash-crowd population for the flyweight client-pool layer.
//!
//! A [`PopulationTimeline`] is the pre-computed arrival schedule of a pool of
//! statistically-identical remote clients: every join is materialized once,
//! at build time, from a [`PopulationProfile`] and a [`DetRng`] stream, as
//! one sorted 8-byte instant per member. Members stay to the end of class.
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
/// Stored as one sorted instant vector — one entry (8 bytes) per member —
/// plus a cursor into it. Draining only moves the cursor, so
/// [`PopulationTimeline::rewind`] replays the same schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationTimeline {
    joins: Vec<SimTime>,
    next_join: usize,
    members: u64,
}

impl PopulationTimeline {
    /// Largest population one timeline may be generated for: ten times the
    /// 1M-member planet tier, the largest any experiment runs. Generation
    /// reserves 8 bytes per member up front (80 MB at this cap), so spec
    /// loaders and command lines reject larger populations before building
    /// instead of letting an allocation abort the process.
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
        let mut joins: Vec<SimTime> = (0..members)
            .map(|_| {
                let offset = if spread_ns == 0 { 0 } else { rng.next_u64() % spread_ns };
                (profile.at + SimDuration::from_nanos(offset)).min(horizon)
            })
            .collect();
        // Equal instants are interchangeable, so an unstable sort yields
        // the same vector a stable one would.
        joins.sort_unstable();
        PopulationTimeline { joins, next_join: 0, members }
    }

    /// Total pool size this timeline was generated for.
    pub fn members(&self) -> u64 {
        self.members
    }

    /// Joins scheduled at or before `now` that have not been drained yet;
    /// advances the cursor past them.
    pub fn drain_until(&mut self, now: SimTime) -> u64 {
        let joins = self.joins[self.next_join..].partition_point(|&t| t <= now);
        self.next_join += joins;
        joins as u64
    }

    /// Time of the next undrained join, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.joins.get(self.next_join).copied()
    }

    /// Rewinds the cursor to the beginning (e.g. after a crash-restart).
    pub fn rewind(&mut self) {
        self.next_join = 0;
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
    /// residual is built in one pass over the joins.
    pub fn split_tracers(&self, tracers: u64) -> (PopulationTimeline, Vec<SimTime>) {
        let n = self.joins.len() as u64;
        let tracers = tracers.min(n);
        let mut picked = Vec::with_capacity(tracers as usize);
        let mut joins = Vec::with_capacity((n - tracers) as usize);
        let mut from = 0;
        for i in 0..tracers {
            let rank = (i * n / tracers) as usize;
            joins.extend_from_slice(&self.joins[from..rank]);
            picked.push(self.joins[rank]);
            from = rank + 1;
        }
        joins.extend_from_slice(&self.joins[from..]);
        let residual = PopulationTimeline {
            joins,
            next_join: 0,
            members: self.members.saturating_sub(tracers),
        };
        (residual, picked)
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
