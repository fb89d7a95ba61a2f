//! Deterministic population processes for the flyweight client-pool layer.
//!
//! A [`PopulationTimeline`] is the pre-computed arrival/departure schedule of
//! a pool of statistically-identical remote clients: every join and leave is
//! materialized once, at build time, from a [`PopulationProfile`] and a
//! [`DetRng`] stream, as one sorted 8-byte instant per join or leave. The
//! pool actor then consumes the timeline with cursors — a binary search per
//! tick, never O(members × ticks) — so a run that models a million pooled
//! clients schedules exactly one entity per region.
//!
//! Determinism story: the timeline depends only on `(seed, profile, members,
//! class length)`. It is generated before the simulation starts, so serial
//! and sharded engines consume byte-identical schedules; the pool actor
//! itself performs no randomness beyond what its own derived [`DetRng`]
//! streams provide.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// How pooled clients arrive over the course of a class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Flash crowd: everyone tries to join around `at`, spread uniformly
    /// over `spread` (the post-COVID "class start" stampede). With
    /// `spread == 0` every member joins at exactly `at`.
    FlashCrowd {
        /// Nominal class-start instant.
        at: SimTime,
        /// Uniform window over which the crowd actually arrives.
        spread: SimDuration,
    },
    /// Memoryless trickle: exponential inter-arrival times with the given
    /// mean, starting at `from`. Models drop-in MOOC-style audiences.
    Poisson {
        /// First arrival is sampled after this instant.
        from: SimTime,
        /// Mean inter-arrival gap between consecutive joins.
        mean_gap: SimDuration,
    },
    /// Markov-modulated Poisson process: alternates between a busy and a
    /// quiet phase, each exponentially distributed, with distinct mean
    /// inter-arrival gaps. Captures bursty regional daybreak joins.
    Mmpp {
        /// First arrival is sampled after this instant.
        from: SimTime,
        /// Mean inter-arrival gap while the process is in the busy phase.
        busy_gap: SimDuration,
        /// Mean inter-arrival gap while the process is in the quiet phase.
        quiet_gap: SimDuration,
        /// Mean dwell time in either phase before switching.
        phase_mean: SimDuration,
    },
}

/// Diurnal churn riding on top of the arrival process: each member that has
/// joined leaves independently with probability `leave_chance`, at a time
/// sampled uniformly from `(join + min_stay, horizon)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnModel {
    /// Per-member probability of leaving before the class ends.
    pub leave_chance: f64,
    /// Minimum attendance before a churned member may leave.
    pub min_stay: SimDuration,
}

/// The full statistical description of one pool's population behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopulationProfile {
    /// Join schedule generator.
    pub arrivals: ArrivalProcess,
    /// Optional departures; `None` means everyone stays to the end.
    pub churn: Option<ChurnModel>,
}

impl PopulationProfile {
    /// A flash crowd with no churn: all members join at `at`, spread over
    /// `spread`. This is the classic class-start stampede and the profile
    /// the pool-vs-expanded equivalence tests use (`spread == 0` makes every
    /// pooled member indistinguishable from a cohort of individually
    /// simulated clients with identical `join_delay`).
    pub fn flash_crowd(at: SimTime, spread: SimDuration) -> Self {
        PopulationProfile { arrivals: ArrivalProcess::FlashCrowd { at, spread }, churn: None }
    }

    /// A Poisson trickle with no churn.
    pub fn poisson(from: SimTime, mean_gap: SimDuration) -> Self {
        PopulationProfile { arrivals: ArrivalProcess::Poisson { from, mean_gap }, churn: None }
    }

    /// Adds diurnal churn to the profile.
    pub fn with_churn(mut self, churn: ChurnModel) -> Self {
        self.churn = Some(churn);
        self
    }
}

/// The materialized join/leave schedule of one pool.
///
/// Generated once per run from `(seed, profile, members, horizon)`;
/// consumed with [`PopulationTimeline::drain_until`].
///
/// Stored as two sorted instant vectors — one entry (8 bytes) per scheduled
/// join or leave — plus a cursor into each. A join and a leave at the same
/// instant cancel at generation, so no instant is in both vectors: what is
/// left at an instant is its net change, and an instant whose joins and
/// leaves balance is gone. Draining only moves the cursors, so
/// [`PopulationTimeline::rewind`] replays the same schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationTimeline {
    joins: Vec<SimTime>,
    leaves: Vec<SimTime>,
    next_join: usize,
    next_leave: usize,
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
    /// All randomness comes from `rng` (pass a derived stream); two calls
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
        let mut joins: Vec<SimTime> = Vec::with_capacity(members as usize);
        match profile.arrivals {
            ArrivalProcess::FlashCrowd { at, spread } => {
                let spread_ns = spread.as_nanos();
                for _ in 0..members {
                    let offset = if spread_ns == 0 { 0 } else { rng.next_u64() % spread_ns };
                    joins.push(at + SimDuration::from_nanos(offset));
                }
            }
            ArrivalProcess::Poisson { from, mean_gap } => {
                let rate = 1.0 / (mean_gap.as_nanos().max(1) as f64);
                let mut t = from;
                for _ in 0..members {
                    t += SimDuration::from_nanos(rng.exponential(rate) as u64);
                    joins.push(t);
                }
            }
            ArrivalProcess::Mmpp { from, busy_gap, quiet_gap, phase_mean } => {
                let rate_of = |busy: bool| {
                    let gap = if busy { busy_gap } else { quiet_gap };
                    1.0 / (gap.as_nanos().max(1) as f64)
                };
                let phase_rate = 1.0 / (phase_mean.as_nanos().max(1) as f64);
                let mut t = from;
                let mut busy = true;
                let mut phase_left = rng.exponential(phase_rate);
                for _ in 0..members {
                    let mut gap = rng.exponential(rate_of(busy));
                    // A phase switch mid-gap rescales the memoryless residual
                    // to the new phase's rate (hazard units are preserved).
                    while gap > phase_left {
                        t += SimDuration::from_nanos(phase_left as u64);
                        let residual = gap - phase_left;
                        gap = residual * rate_of(busy) / rate_of(!busy);
                        busy = !busy;
                        phase_left = rng.exponential(phase_rate);
                    }
                    phase_left -= gap;
                    t += SimDuration::from_nanos(gap as u64);
                    joins.push(t);
                }
            }
        }

        // Churn draws walk the joins in generation order, so the stream
        // position of every draw is independent of the sort below.
        let mut leaves: Vec<SimTime> = Vec::new();
        for join in &mut joins {
            *join = (*join).min(horizon);
            if let Some(churn) = profile.churn {
                if rng.chance(churn.leave_chance) {
                    let earliest = (*join + churn.min_stay).as_nanos();
                    let latest = horizon.as_nanos();
                    if earliest < latest {
                        let leave = earliest + rng.next_u64() % (latest - earliest);
                        leaves.push(SimTime::from_nanos(leave));
                    }
                }
            }
        }
        // Equal instants are interchangeable, so an unstable sort yields
        // the same vectors a stable one would.
        joins.sort_unstable();
        leaves.sort_unstable();
        net_same_instants(&mut joins, &mut leaves);
        joins.shrink_to_fit();
        leaves.shrink_to_fit();
        PopulationTimeline { joins, leaves, next_join: 0, next_leave: 0, members }
    }

    /// Total pool size this timeline was generated for.
    pub fn members(&self) -> u64 {
        self.members
    }

    /// Net joins (`.0`) and leaves (`.1`) scheduled at or before `now` that
    /// have not been drained yet; advances the cursors past them.
    pub fn drain_until(&mut self, now: SimTime) -> (u64, u64) {
        let joins = self.joins[self.next_join..].partition_point(|&t| t <= now);
        let leaves = self.leaves[self.next_leave..].partition_point(|&t| t <= now);
        self.next_join += joins;
        self.next_leave += leaves;
        (joins as u64, leaves as u64)
    }

    /// Time of the next undrained event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        [self.joins.get(self.next_join), self.leaves.get(self.next_leave)]
            .into_iter()
            .flatten()
            .min()
            .copied()
    }

    /// Rewinds the cursors to the beginning (e.g. after a crash-restart).
    pub fn rewind(&mut self) {
        self.next_join = 0;
        self.next_leave = 0;
    }

    /// Splits off `tracers` members as fully simulated clients: returns the
    /// residual pooled timeline (with one join removed at each tracer's
    /// instant) and the tracers' join instants, sorted ascending.
    ///
    /// Tracers are sampled by stride across the sorted joins — the `i·n /
    /// tracers`-th of the `n` joins for each `i < tracers` — so they cover
    /// the whole arrival curve (first, last, and evenly between), and the
    /// residual pool plus the tracer clients together reproduce the original
    /// population exactly. When `tracers >= n` every join is a tracer. Churn
    /// events stay with the pool — tracer clients attend to the end. The
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
            leaves: self.leaves.clone(),
            next_join: 0,
            next_leave: 0,
            members: self.members.saturating_sub(tracers),
        };
        (residual, picked)
    }
}

/// Cancels each leave against a join at the same instant, in place: both
/// inputs sorted, both outputs sorted, and no instant left in both.
fn net_same_instants(joins: &mut Vec<SimTime>, leaves: &mut Vec<SimTime>) {
    let (mut j, mut l, mut kept_joins, mut kept_leaves) = (0, 0, 0, 0);
    while j < joins.len() && l < leaves.len() {
        match joins[j].cmp(&leaves[l]) {
            Ordering::Less => {
                joins[kept_joins] = joins[j];
                kept_joins += 1;
                j += 1;
            }
            Ordering::Greater => {
                leaves[kept_leaves] = leaves[l];
                kept_leaves += 1;
                l += 1;
            }
            Ordering::Equal => {
                j += 1;
                l += 1;
            }
        }
    }
    close_gap(joins, j, kept_joins);
    close_gap(leaves, l, kept_leaves);
}

/// Moves `v[read..]` down to `write` and drops the `read - write` entries
/// that gap held.
fn close_gap(v: &mut Vec<SimTime>, read: usize, write: usize) {
    if read > write {
        v.copy_within(read.., write);
        v.truncate(v.len() - (read - write));
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
        assert_eq!(tl.drain_until(SimTime::from_millis(500)), (1000, 0));
        assert_eq!(tl.next_event_at(), None);
    }

    #[test]
    fn a_join_and_a_leave_at_one_instant_cancel() {
        let at = |ms| SimTime::from_millis(ms);
        let mut joins = vec![at(1), at(2), at(2), at(3), at(5)];
        let mut leaves = vec![at(2), at(3), at(4), at(5), at(5)];
        net_same_instants(&mut joins, &mut leaves);
        assert_eq!(joins, [at(1), at(2)]);
        assert_eq!(leaves, [at(4), at(5)]);
    }

    #[test]
    fn rewind_replays_the_schedule() {
        let profile = PopulationProfile::flash_crowd(SimTime::from_secs(1), secs(2))
            .with_churn(ChurnModel { leave_chance: 0.3, min_stay: secs(1) });
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
        assert_eq!(first[0].0 + first[1].0, 500);
    }

    #[test]
    fn generation_is_deterministic() {
        let profile = PopulationProfile::poisson(SimTime::ZERO, SimDuration::from_millis(10))
            .with_churn(ChurnModel { leave_chance: 0.2, min_stay: secs(1) });
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
            let (j, l) = tl.drain_until(now);
            joined += j;
            assert_eq!(l, 0, "no churn configured");
        }
        assert_eq!(joined, 777);
        assert!(now <= SimTime::from_secs(10));
    }

    #[test]
    fn churned_leaves_never_exceed_joins() {
        let profile = PopulationProfile::poisson(SimTime::ZERO, SimDuration::from_millis(5))
            .with_churn(ChurnModel { leave_chance: 0.5, min_stay: SimDuration::from_millis(50) });
        let mut rng = DetRng::new(3);
        let mut tl = PopulationTimeline::generate(&profile, 2000, SimTime::from_secs(30), &mut rng);
        let (joins, leaves) = tl.drain_until(SimTime::from_secs(30));
        assert_eq!(joins, 2000);
        assert!(leaves <= joins);
        assert!(leaves > 0, "with 50% churn over 2000 members some must leave");
    }

    #[test]
    fn mmpp_produces_monotone_arrivals_for_all_members() {
        let profile = PopulationProfile {
            arrivals: ArrivalProcess::Mmpp {
                from: SimTime::ZERO,
                busy_gap: SimDuration::from_micros(100),
                quiet_gap: SimDuration::from_millis(10),
                phase_mean: SimDuration::from_millis(50),
            },
            churn: None,
        };
        let mut rng = DetRng::new(11);
        let mut tl = PopulationTimeline::generate(&profile, 300, SimTime::from_secs(60), &mut rng);
        let mut total = 0;
        let mut last = None;
        while let Some(at) = tl.next_event_at() {
            assert!(last < Some(at), "event instants strictly increase");
            last = Some(at);
            total += tl.drain_until(at).0;
        }
        assert_eq!(total, 300);
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
