//! Equivalence oracle for [`PopulationTimeline`]: the bucketed store (a
//! 4-byte offset per join, grouped into time buckets that never straddle a
//! 2^32-ns page and are unsorted within, plus one table entry per occupied
//! bucket) against the coalesced `(at, delta)` event timeline it replaced,
//! kept below as [`Reference`] with its flash-crowd generation.
//!
//! Both are generated from the same profile, members, horizon and RNG
//! stream, split into tracers and residual, and drained in lockstep with
//! non-decreasing instants and a rewind midway. Every return value of
//! `drain_until`, `next_event_at`, `split_tracers` (tracer instants and
//! residual) and `members` must agree.

use metaclass_netsim::{DetRng, PopulationProfile, PopulationTimeline, SimDuration, SimTime};
use proptest::prelude::*;

/// One coalesced population change of the reference timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PopulationEvent {
    at: SimTime,
    delta: i64,
}

/// The coalesced-event timeline, with the bodies it had before the
/// sorted-instant store replaced it.
#[derive(Debug, Clone, PartialEq)]
struct Reference {
    events: Vec<PopulationEvent>,
    cursor: usize,
    members: u64,
}

impl Reference {
    fn generate(
        profile: &PopulationProfile,
        members: u64,
        horizon: SimTime,
        rng: &mut DetRng,
    ) -> Self {
        let spread_ns = profile.spread.as_nanos();
        let mut events: Vec<PopulationEvent> = Vec::with_capacity(members as usize);
        for _ in 0..members {
            let offset = if spread_ns == 0 { 0 } else { rng.next_u64() % spread_ns };
            let join = (profile.at + SimDuration::from_nanos(offset)).min(horizon);
            events.push(PopulationEvent { at: join, delta: 1 });
        }
        events.sort_by_key(|e| e.at);
        // Coalesce same-instant events so the pool sees one net delta per
        // distinct time — keeps cursor work proportional to distinct events.
        let mut coalesced: Vec<PopulationEvent> = Vec::with_capacity(events.len());
        for e in events {
            match coalesced.last_mut() {
                Some(last) if last.at == e.at => last.delta += e.delta,
                _ => coalesced.push(e),
            }
        }
        Reference { events: coalesced, cursor: 0, members }
    }

    fn members(&self) -> u64 {
        self.members
    }

    fn drain_until(&mut self, now: SimTime) -> u64 {
        let mut joins = 0i64;
        while let Some(e) = self.events.get(self.cursor) {
            if e.at > now {
                break;
            }
            joins += e.delta;
            self.cursor += 1;
        }
        joins as u64
    }

    fn next_event_at(&self) -> Option<SimTime> {
        self.events.get(self.cursor).map(|e| e.at)
    }

    fn rewind(&mut self) {
        self.cursor = 0;
    }

    fn split_tracers(&self, tracers: u64) -> (Reference, Vec<SimTime>) {
        let tracer_joins = self.tracer_joins(tracers);
        let mut events = self.events.clone();
        for &at in &tracer_joins {
            if let Some(e) = events.iter_mut().find(|e| e.at == at && e.delta > 0) {
                e.delta -= 1;
            }
        }
        events.retain(|e| e.delta != 0);
        let residual = Reference {
            events,
            cursor: 0,
            members: self.members.saturating_sub(tracer_joins.len() as u64),
        };
        (residual, tracer_joins)
    }

    fn tracer_joins(&self, tracers: u64) -> Vec<SimTime> {
        let mut joins: Vec<SimTime> =
            self.events.iter().flat_map(|e| std::iter::repeat_n(e.at, e.delta as usize)).collect();
        joins.sort();
        if tracers >= joins.len() as u64 {
            return joins;
        }
        let n = joins.len() as u64;
        (0..tracers).map(|i| joins[(i * n / tracers) as usize]).collect()
    }
}

fn ns(n: u64) -> SimDuration {
    SimDuration::from_nanos(n)
}

/// A span of 1 ns to 2^`bits` ns, log-uniform, so short spans are as likely
/// as long ones.
fn log_ns(p: &mut DetRng, bits: u64) -> SimDuration {
    let bound = 1 << p.range_u64(1, bits + 1);
    ns(p.range_u64(1, bound))
}

/// A population drawn from `shape`: members from a handful to thousands.
///
/// Flash crowds with no spread, a spread of at most 1 µs (so many members
/// share an instant), or a log-uniform spread up to seconds or up to hours
/// (thousands of 2^32-ns pages), starting within the first page or well past
/// it, under horizons that clamp every arrival, clamp the tail, or clamp
/// nothing. One shape in eight is a handful of members spread over half the
/// clock under an unbounded horizon, so nearly every join has a page of its
/// own. One in 64 of the rest is a dense crowd of 10 k to 200 k members over
/// a log-uniform spread from about 1 µs to minutes (buckets averaging 128 to
/// 256 joins, one page or up to 64), clamped at its middle or not at all.
fn population(shape: u64) -> (PopulationProfile, u64, SimTime) {
    let mut p = DetRng::new(shape);
    let at = match p.index(3) {
        0 => SimTime::from_nanos(p.range_u64(0, 2_000_000_000)),
        1 => SimTime::from_nanos(p.range_u64(0, 1 << 32)),
        _ => SimTime::from_nanos(p.range_u64(1 << 32, 1 << 40)),
    };
    if p.index(8) == 0 {
        let spread = ns((1 << 63) - p.range_u64(0, 1 << 32));
        return (PopulationProfile::flash_crowd(at, spread), p.range_u64(1, 9), SimTime::MAX);
    }
    if p.index(64) == 0 {
        let members = (10_000.0 * 20f64.powf(p.next_f64())) as u64;
        let bits = p.range_u64(10, 39);
        let spread = ns(p.range_u64(1 << (bits - 1), 1 << bits));
        let horizon = match p.index(3) {
            0 => at + spread / 2,
            1 => SimTime::from_secs(3_600),
            _ => SimTime::MAX,
        };
        return (PopulationProfile::flash_crowd(at, spread), members, horizon);
    }
    let members = match p.index(3) {
        0 => p.range_u64(1, 8),
        1 => p.range_u64(1, 300),
        _ => p.range_u64(300, 4_000),
    };
    let spread = match p.index(4) {
        0 => SimDuration::ZERO,
        1 => ns(p.range_u64(1, 1_001)),
        2 => log_ns(&mut p, 32),
        _ => log_ns(&mut p, 44),
    };
    let horizon = match p.index(5) {
        0 => SimTime::from_nanos(at.as_nanos() / 2),
        1 => at + log_ns(&mut p, 11),
        2 => at + log_ns(&mut p, 44),
        3 => SimTime::from_secs(3_600),
        _ => SimTime::MAX,
    };
    (PopulationProfile::flash_crowd(at, spread), members, horizon)
}

/// Tracer counts at and around every boundary of the stride sampling; a
/// crowd of more than 4 000 gets a few dozen at most (the reference removes
/// each tracer by a linear search).
fn tracer_count(members: u64, pick: u64) -> u64 {
    if members > 4_000 {
        return [0, 1, 16, 48][(pick % 4) as usize];
    }
    [0, 1, 16, members - 1, members, members + 1 + pick % 64, u64::MAX][(pick % 7) as usize]
}

/// Drains both timelines in lockstep — non-decreasing instants that hit
/// event instants exactly, fall just short of them, repeat, creep by up to
/// 2^16 ns (so drains land again and again inside one bucket of a dense
/// crowd) or leap by up to 2^40 ns (across pages) — with a rewind midway,
/// and then drains the rest; every return must agree.
fn drive(new: &mut PopulationTimeline, old: &mut Reference, steps: u64) {
    let mut p = DetRng::new(steps);
    let mut now = SimTime::ZERO;
    let n = 2 + p.index(120);
    for step in 0..n {
        if step == n / 2 {
            new.rewind();
            old.rewind();
            if p.chance(0.5) {
                now = SimTime::ZERO;
            }
        }
        assert_eq!(new.next_event_at(), old.next_event_at(), "next event, step {step}");
        now = match (p.index(5), old.next_event_at()) {
            (0, Some(at)) => at.max(now),
            (1, Some(at)) => SimTime::from_nanos(at.as_nanos().saturating_sub(1)).max(now),
            (2, _) => now,
            (3, _) => now + log_ns(&mut p, 16),
            _ => now + log_ns(&mut p, 40),
        };
        assert_eq!(new.drain_until(now), old.drain_until(now), "drain to {now:?}, step {step}");
    }
    assert_eq!(new.drain_until(SimTime::MAX), old.drain_until(SimTime::MAX), "final drain");
    assert_eq!(new.next_event_at(), None);
    assert_eq!(old.next_event_at(), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generation, tracer sampling, the split and every drain agree with the
    /// coalesced-event reference, on the full timeline and on the residual.
    #[test]
    fn prop_sorted_instants_match_the_coalesced_events(
        seed in any::<u64>(),
        shape in any::<u64>(),
        pick in any::<u64>(),
        steps in any::<u64>(),
    ) {
        let (profile, members, horizon) = population(shape);
        let mut new = PopulationTimeline::generate(&profile, members, horizon, &mut DetRng::new(seed));
        let mut old = Reference::generate(&profile, members, horizon, &mut DetRng::new(seed));
        prop_assert_eq!(new.members(), old.members());

        let tracers = tracer_count(members, pick);
        let (mut new_residual, new_tracers) = new.split_tracers(tracers);
        let (mut old_residual, old_tracers) = old.split_tracers(tracers);
        prop_assert_eq!(&new_tracers, &old_tracers);
        prop_assert_eq!(new_residual.members(), old_residual.members());

        // The first 4 000 coalesced events, one drain per instant, then the
        // rest at once.
        let mut walk = old.clone();
        for _ in 0..4_000 {
            let Some(at) = walk.next_event_at() else { break };
            prop_assert_eq!(new.next_event_at(), Some(at));
            prop_assert_eq!(new.drain_until(at), walk.drain_until(at));
        }
        prop_assert_eq!(new.drain_until(SimTime::MAX), walk.drain_until(SimTime::MAX));
        prop_assert_eq!(new.next_event_at(), None);
        new.rewind();

        drive(&mut new, &mut old, steps);
        drive(&mut new_residual, &mut old_residual, steps ^ 1);
    }
}
