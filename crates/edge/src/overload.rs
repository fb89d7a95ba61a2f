//! Overload resilience: join admission control and graceful load shedding.
//!
//! A flash crowd — §3.3's "thousands of remote users" arriving at class
//! start — must degrade service *predictably*, not collapse it. Two sans-I/O
//! policy machines implement that, layered on the backpressure primitives of
//! `metaclass-sync`:
//!
//! - [`AdmissionController`] — token-bucket join gating with a bounded
//!   waiting room. Each join request is answered `Admitted`, `Deferred`
//!   (parked in the waiting room with a retry hint) or `Rejected` (waiting
//!   room full); parked joiners are admitted in arrival order as tokens
//!   refill, so no deferred client starves.
//! - [`LoadShedder`] — a fidelity ladder driven by a smoothed (EWMA)
//!   utilization signal: **full updates → reduced-rate dead-reckoned
//!   updates → expression-only (speaker) → frozen spectator**. Hysteresis
//!   makes movement deliberate: at most one rung per hysteresis window, in
//!   either direction, so recovery is monotone and flap-free — the property
//!   the simcheck `shed-ladder` oracle checks.
//!
//! Both are deterministic functions of their inputs and simulated time, so
//! edge and cloud behave byte-identically across execution engines.

use std::collections::BTreeSet;

use metaclass_netsim::{SimDuration, SimTime};
use metaclass_sync::{BoundedQueue, OverflowPolicy, TokenBucket};

/// Tuning of the join admission gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Joins admitted instantly before the token bucket empties.
    pub burst: u32,
    /// One join token regenerates per this interval.
    pub refill_every: SimDuration,
    /// Deferred joins parked before new arrivals are rejected outright.
    pub waiting_room: usize,
}

impl Default for AdmissionConfig {
    /// Permissive defaults: a whole auditorium's worth of instant joins.
    /// Overload experiments and simcheck scenarios tighten these.
    fn default() -> Self {
        AdmissionConfig {
            burst: 1024,
            refill_every: SimDuration::from_millis(1),
            waiting_room: 4096,
        }
    }
}

/// The answer to one join request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// The client is in (idempotent for already-admitted clients).
    Admitted,
    /// Parked in the waiting room; retry no earlier than the hint.
    Deferred {
        /// Zero-based position in the waiting room.
        position: usize,
        /// Earliest instant a token could be available for this position.
        retry_after: SimDuration,
    },
    /// Waiting room full; try again much later.
    Rejected,
}

/// Token-bucket join gate with a bounded FIFO waiting room.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    bucket: TokenBucket,
    waiting: BoundedQueue<u64>,
    admitted: BTreeSet<u64>,
    admitted_total: u64,
    deferred_total: u64,
    rejected_total: u64,
}

impl AdmissionController {
    /// Creates the gate with a full token bucket as of `now`.
    pub fn new(cfg: AdmissionConfig, now: SimTime) -> Self {
        AdmissionController {
            cfg,
            bucket: TokenBucket::new(cfg.burst, cfg.refill_every, now),
            waiting: BoundedQueue::new(cfg.waiting_room, OverflowPolicy::DropNewest),
            admitted: BTreeSet::new(),
            admitted_total: 0,
            deferred_total: 0,
            rejected_total: 0,
        }
    }

    /// Decides a join request from `key` at `now`.
    ///
    /// Repeated requests are safe: already-admitted keys answer `Admitted`
    /// without spending a token, already-waiting keys answer `Deferred` with
    /// their current position instead of being double-parked.
    pub fn request(&mut self, key: u64, now: SimTime) -> AdmissionOutcome {
        if self.admitted.contains(&key) {
            return AdmissionOutcome::Admitted;
        }
        let parked = self.waiting.iter().position(|&k| k == key);
        if let Some(position) = parked {
            self.deferred_total += 1;
            return AdmissionOutcome::Deferred { position, retry_after: self.eta(position, now) };
        }
        if self.waiting.is_empty() && self.bucket.try_take(now) {
            self.admitted.insert(key);
            self.admitted_total += 1;
            return AdmissionOutcome::Admitted;
        }
        if self.waiting.push(key).is_some() {
            self.rejected_total += 1;
            AdmissionOutcome::Rejected
        } else {
            self.deferred_total += 1;
            let position = self.waiting.len() - 1;
            AdmissionOutcome::Deferred { position, retry_after: self.eta(position, now) }
        }
    }

    /// Batch admission for the flyweight population layer: admits up to
    /// `count` anonymous pooled clients at `now`, spending one bucket token
    /// per admission, and returns `(admitted, retry_after)` where
    /// `retry_after` is the earliest sensible retry for the remainder
    /// ([`SimDuration::ZERO`] when everyone got in).
    ///
    /// Pooled clients are counted in `admitted_total`/`deferred_total` but
    /// are *not* inserted into the per-key admitted set — the pool is its
    /// own regional waiting room and tracks its members by count, so the
    /// keyed set stays in one-to-one correspondence with individually
    /// simulated clients (the property the `AdmittedLiveness` oracle
    /// checks). Individually parked joiners keep strict priority: while the
    /// waiting room is non-empty, no pooled client is admitted.
    pub fn admit_up_to(&mut self, count: u64, now: SimTime) -> (u64, SimDuration) {
        let mut admitted = 0;
        while admitted < count && self.waiting.is_empty() && self.bucket.try_take(now) {
            admitted += 1;
        }
        self.admitted_total += admitted;
        let remainder = count - admitted;
        if remainder == 0 {
            return (admitted, SimDuration::ZERO);
        }
        self.deferred_total += remainder;
        let position = self.waiting.len();
        (admitted, self.eta(position, now))
    }

    /// Earliest duration until a token could reach waiting-room `position`.
    fn eta(&mut self, position: usize, now: SimTime) -> SimDuration {
        let head = self.bucket.next_available(now);
        let queued = self.cfg.refill_every.as_nanos().saturating_mul(position as u64);
        head + SimDuration::from_nanos(queued)
    }

    /// Admits parked joiners in arrival order as tokens refill; returns the
    /// keys admitted by this poll (notify them). Call on a server tick.
    pub fn poll(&mut self, now: SimTime) -> Vec<u64> {
        let mut admitted = Vec::new();
        while !self.waiting.is_empty() && self.bucket.try_take(now) {
            let key = self.waiting.pop().expect("non-empty");
            self.admitted.insert(key);
            self.admitted_total += 1;
            admitted.push(key);
        }
        admitted
    }

    /// Whether `key` has been admitted.
    pub fn is_admitted(&self, key: u64) -> bool {
        self.admitted.contains(&key)
    }

    /// Number of admitted keys.
    pub fn admitted_count(&self) -> usize {
        self.admitted.len()
    }

    /// Highest waiting-room depth ever observed.
    pub fn waiting_max_depth(&self) -> usize {
        self.waiting.max_depth()
    }

    /// The configured waiting-room capacity.
    pub fn waiting_capacity(&self) -> usize {
        self.waiting.capacity()
    }

    /// Totals since construction: (admitted, deferred replies, rejections).
    pub fn totals(&self) -> (u64, u64, u64) {
        (self.admitted_total, self.deferred_total, self.rejected_total)
    }

    /// Forgets all admissions and parked joiners (owner crash-reset).
    pub fn reset(&mut self, now: SimTime) {
        self.bucket = TokenBucket::new(self.cfg.burst, self.cfg.refill_every, now);
        self.waiting = BoundedQueue::new(self.cfg.waiting_room, OverflowPolicy::DropNewest);
        self.admitted.clear();
    }
}

/// A rung of the fidelity ladder, cheapest-last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShedLevel {
    /// Normal operation: every update flows.
    Full,
    /// Dead-reckoned updates at a reduced rate (stride 4).
    ReducedRate,
    /// Only high-importance entities (the speaker) update, on a wider
    /// stride — the crowd holds its last pose.
    ExpressionOnly,
    /// No display updates at all: admitted clients spectate a frozen room
    /// rather than being disconnected.
    Spectator,
}

impl ShedLevel {
    /// One rung cheaper (saturates at `Spectator`).
    pub fn shed_one(self) -> ShedLevel {
        match self {
            ShedLevel::Full => ShedLevel::ReducedRate,
            ShedLevel::ReducedRate => ShedLevel::ExpressionOnly,
            ShedLevel::ExpressionOnly | ShedLevel::Spectator => ShedLevel::Spectator,
        }
    }

    /// One rung richer (saturates at `Full`).
    pub fn recover_one(self) -> ShedLevel {
        match self {
            ShedLevel::Spectator => ShedLevel::ExpressionOnly,
            ShedLevel::ExpressionOnly => ShedLevel::ReducedRate,
            ShedLevel::ReducedRate | ShedLevel::Full => ShedLevel::Full,
        }
    }

    /// Rung index, 0 (`Full`) to 3 (`Spectator`).
    pub fn rung(self) -> u8 {
        match self {
            ShedLevel::Full => 0,
            ShedLevel::ReducedRate => 1,
            ShedLevel::ExpressionOnly => 2,
            ShedLevel::Spectator => 3,
        }
    }

    /// Whether fan-out runs at all on `tick` under this level: `Full` every
    /// tick, `ReducedRate` every 4th, `ExpressionOnly` every 8th,
    /// `Spectator` never.
    pub fn sends_on_tick(self, tick: u64) -> bool {
        match self {
            ShedLevel::Full => true,
            ShedLevel::ReducedRate => tick.is_multiple_of(4),
            ShedLevel::ExpressionOnly => tick.is_multiple_of(8),
            ShedLevel::Spectator => false,
        }
    }

    /// Minimum entity importance that still updates, if this level filters
    /// by importance (`ExpressionOnly` keeps the speaker only).
    pub fn min_importance(self) -> Option<f64> {
        match self {
            ShedLevel::ExpressionOnly => Some(0.5),
            _ => None,
        }
    }
}

/// One recorded rung move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedTransition {
    /// When the ladder moved.
    pub at: SimTime,
    /// Rung before the move.
    pub from: ShedLevel,
    /// Rung after the move.
    pub to: ShedLevel,
}

/// Hysteretic fidelity ladder driven by a smoothed utilization signal.
#[derive(Debug, Clone)]
pub struct LoadShedder {
    level: ShedLevel,
    smoothed: f64,
    last_move_at: Option<SimTime>,
    transitions: BoundedQueue<ShedTransition>,
}

impl LoadShedder {
    /// Smoothed utilization above this sheds one rung.
    const SHED_ABOVE: f64 = 0.85;
    /// Smoothed utilization below this recovers one rung.
    const RECOVER_BELOW: f64 = 0.5;
    /// EWMA smoothing factor applied per observation.
    const ALPHA: f64 = 0.2;
    /// Minimum time between rung moves, in either direction.
    pub const HYSTERESIS: SimDuration = SimDuration::from_millis(500);

    /// Creates the ladder at `Full` with a settled (zero) signal.
    pub(crate) fn new() -> Self {
        LoadShedder {
            level: ShedLevel::Full,
            smoothed: 0.0,
            last_move_at: None,
            transitions: BoundedQueue::new(1024, OverflowPolicy::DropNewest),
        }
    }

    /// Feeds one utilization sample (clamped to [0, 2]) at `now` and moves
    /// the ladder at most one rung if the smoothed signal crossed a
    /// threshold and the hysteresis window has elapsed.
    pub fn observe(&mut self, now: SimTime, utilization: f64) -> Option<ShedTransition> {
        let sample = if utilization.is_finite() { utilization.clamp(0.0, 2.0) } else { 2.0 };
        self.smoothed += Self::ALPHA * (sample - self.smoothed);
        let want_shed = self.smoothed > Self::SHED_ABOVE && self.level != ShedLevel::Spectator;
        let want_recover = self.smoothed < Self::RECOVER_BELOW && self.level != ShedLevel::Full;
        if !want_shed && !want_recover {
            return None;
        }
        if let Some(last) = self.last_move_at {
            if now.duration_since(last) < Self::HYSTERESIS {
                return None;
            }
        }
        let from = self.level;
        self.level = if want_shed { from.shed_one() } else { from.recover_one() };
        self.last_move_at = Some(now);
        let t = ShedTransition { at: now, from, to: self.level };
        self.transitions.push(t);
        Some(t)
    }

    /// The current rung.
    pub fn level(&self) -> ShedLevel {
        self.level
    }

    /// The smoothed utilization signal.
    pub fn smoothed(&self) -> f64 {
        self.smoothed
    }

    /// Every recorded rung move, oldest first (bounded; earliest 1024).
    pub fn transitions(&self) -> impl Iterator<Item = &ShedTransition> {
        self.transitions.iter()
    }

    /// Returns to `Full` with a settled signal (owner crash-reset). The
    /// transition history survives: it records the node's lifetime, and the
    /// oracle tolerates resets because a crash clears `last_move_at`.
    pub fn reset(&mut self) {
        self.level = ShedLevel::Full;
        self.smoothed = 0.0;
        self.last_move_at = None;
    }
}

/// Overload-control tuning shared by edge and cloud servers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Join admission gate.
    pub admission: AdmissionConfig,
    /// Outbound state updates a server may send per replication tick; the
    /// excess backs up into bounded drop-oldest queues.
    pub egress_budget_per_tick: usize,
    /// Capacity of each per-peer/per-client egress backlog (drop-oldest).
    pub backlog_capacity: usize,
}

impl Default for OverloadConfig {
    /// Permissive defaults sized so ordinary sessions never queue: overload
    /// experiments and simcheck scenarios tighten them.
    fn default() -> Self {
        OverloadConfig {
            admission: AdmissionConfig::default(),
            egress_budget_per_tick: 65_536,
            backlog_capacity: 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> AdmissionConfig {
        AdmissionConfig { burst: 2, refill_every: SimDuration::from_millis(100), waiting_room: 3 }
    }

    #[test]
    fn burst_admits_then_defers_then_rejects() {
        let mut ac = AdmissionController::new(tight(), SimTime::ZERO);
        assert_eq!(ac.request(1, SimTime::ZERO), AdmissionOutcome::Admitted);
        assert_eq!(ac.request(2, SimTime::ZERO), AdmissionOutcome::Admitted);
        for (i, key) in [3u64, 4, 5].iter().enumerate() {
            match ac.request(*key, SimTime::ZERO) {
                AdmissionOutcome::Deferred { position, .. } => assert_eq!(position, i),
                other => panic!("expected deferral, got {other:?}"),
            }
        }
        assert_eq!(ac.request(6, SimTime::ZERO), AdmissionOutcome::Rejected);
        assert_eq!(ac.totals(), (2, 3, 1));
        assert_eq!(ac.waiting_max_depth(), 3);
    }

    #[test]
    fn waiting_room_drains_in_arrival_order_as_tokens_refill() {
        let mut ac = AdmissionController::new(tight(), SimTime::ZERO);
        for key in 1..=5u64 {
            ac.request(key, SimTime::ZERO);
        }
        assert_eq!(ac.poll(SimTime::from_millis(50)), Vec::<u64>::new(), "no token yet");
        assert_eq!(ac.poll(SimTime::from_millis(100)), vec![3]);
        assert_eq!(ac.poll(SimTime::from_millis(350)), vec![4, 5]);
        assert!(ac.is_admitted(5));
        assert_eq!(ac.waiting.len(), 0);
    }

    #[test]
    fn requests_are_idempotent() {
        let mut ac = AdmissionController::new(tight(), SimTime::ZERO);
        assert_eq!(ac.request(1, SimTime::ZERO), AdmissionOutcome::Admitted);
        assert_eq!(ac.request(1, SimTime::ZERO), AdmissionOutcome::Admitted, "no token spent");
        assert_eq!(ac.request(2, SimTime::ZERO), AdmissionOutcome::Admitted);
        ac.request(3, SimTime::ZERO);
        let again = ac.request(3, SimTime::ZERO);
        assert!(
            matches!(again, AdmissionOutcome::Deferred { position: 0, .. }),
            "re-request keeps its place: {again:?}"
        );
        assert_eq!(ac.waiting.len(), 1, "not double-parked");
    }

    #[test]
    fn arrivals_behind_a_queue_do_not_jump_it() {
        let mut ac = AdmissionController::new(tight(), SimTime::ZERO);
        for key in 1..=3u64 {
            ac.request(key, SimTime::ZERO);
        }
        // A token has refilled, but 3 is parked; 4 must queue behind it.
        let out = ac.request(4, SimTime::from_millis(150));
        assert!(matches!(out, AdmissionOutcome::Deferred { position: 1, .. }), "{out:?}");
        assert_eq!(ac.poll(SimTime::from_millis(150)), vec![3]);
    }

    #[test]
    fn deferral_hints_grow_with_position() {
        let mut ac = AdmissionController::new(tight(), SimTime::ZERO);
        ac.request(1, SimTime::ZERO);
        ac.request(2, SimTime::ZERO);
        let a = match ac.request(3, SimTime::ZERO) {
            AdmissionOutcome::Deferred { retry_after, .. } => retry_after,
            o => panic!("{o:?}"),
        };
        let b = match ac.request(4, SimTime::ZERO) {
            AdmissionOutcome::Deferred { retry_after, .. } => retry_after,
            o => panic!("{o:?}"),
        };
        assert!(b > a, "later arrivals wait longer: {a:?} vs {b:?}");
    }

    #[test]
    fn batch_admission_spends_tokens_without_touching_the_keyed_set() {
        let mut ac = AdmissionController::new(tight(), SimTime::ZERO);
        let (admitted, retry) = ac.admit_up_to(5, SimTime::ZERO);
        assert_eq!(admitted, 2, "burst of 2 tokens");
        assert!(retry > SimDuration::ZERO, "remainder gets a retry hint");
        assert_eq!(ac.admitted_count(), 0, "pooled clients are counted, not keyed");
        assert_eq!(ac.totals(), (2, 3, 0));
        // Tokens refill: the retry drains the remainder two per 200ms.
        let (more, _) = ac.admit_up_to(3, SimTime::from_millis(200));
        assert_eq!(more, 2);
        // Individually parked joiners outrank pooled batches.
        ac.request(9, SimTime::from_millis(250));
        let (none, retry) = ac.admit_up_to(4, SimTime::from_millis(400));
        assert_eq!(none, 0, "waiting room has priority");
        assert!(retry > SimDuration::ZERO);
        assert_eq!(ac.poll(SimTime::from_millis(400)), vec![9]);
    }

    #[test]
    fn reset_forgets_admissions() {
        let mut ac = AdmissionController::new(tight(), SimTime::ZERO);
        ac.request(1, SimTime::ZERO);
        ac.reset(SimTime::from_secs(1));
        assert!(!ac.is_admitted(1));
        assert_eq!(ac.request(1, SimTime::from_secs(1)), AdmissionOutcome::Admitted);
    }

    /// Feeds saturated samples (2.0, the clamp ceiling) every 100 ms from
    /// `from` until the ladder moves; returns when it did.
    fn saturate_until_shed(ls: &mut LoadShedder, from: SimTime) -> SimTime {
        let mut now = from;
        while ls.observe(now, 2.0).is_none() {
            now += SimDuration::from_millis(100);
        }
        now
    }

    #[test]
    fn ladder_moves_one_rung_per_hysteresis_window() {
        let mut ls = LoadShedder::new();
        // The smoothed signal needs three saturated samples to clear 0.85.
        let first = saturate_until_shed(&mut ls, SimTime::ZERO);
        assert_eq!(first, SimTime::from_millis(200));
        assert_eq!(ls.level(), ShedLevel::ReducedRate);
        let inside = first + LoadShedder::HYSTERESIS - SimDuration::from_nanos(1);
        assert!(ls.observe(inside, 2.0).is_none(), "inside the window");
        let t = ls.observe(first + LoadShedder::HYSTERESIS, 2.0).expect("window elapsed");
        assert_eq!((t.from, t.to), (ShedLevel::ReducedRate, ShedLevel::ExpressionOnly));
        let t = ls.observe(t.at + LoadShedder::HYSTERESIS, 2.0).expect("window elapsed");
        assert_eq!(t.to, ShedLevel::Spectator);
        assert!(ls.observe(t.at + LoadShedder::HYSTERESIS, 2.0).is_none(), "bottom rung holds");
    }

    #[test]
    fn recovery_is_monotone_and_flap_free() {
        let mut ls = LoadShedder::new();
        let first = saturate_until_shed(&mut ls, SimTime::ZERO);
        saturate_until_shed(&mut ls, first + LoadShedder::HYSTERESIS);
        assert_eq!(ls.level(), ShedLevel::ExpressionOnly);
        // Load vanishes: recovery climbs one rung per window, never skips.
        let mut rungs = vec![ls.level().rung()];
        for ms in (1_000..=3_000).step_by(50) {
            ls.observe(SimTime::from_millis(ms), 0.0);
            rungs.push(ls.level().rung());
        }
        assert_eq!(ls.level(), ShedLevel::Full);
        for pair in rungs.windows(2) {
            assert!(pair[0] >= pair[1], "recovery never re-sheds: {rungs:?}");
            assert!(pair[0] - pair[1] <= 1, "one rung at a time: {rungs:?}");
        }
    }

    #[test]
    fn mid_band_signal_holds_the_current_rung() {
        let mut ls = LoadShedder::new();
        let first = saturate_until_shed(&mut ls, SimTime::ZERO);
        assert_eq!(ls.level(), ShedLevel::ReducedRate);
        // 0.7 sits between the recover and shed thresholds; the signal
        // decays toward it and crosses neither.
        for ms in (1..=30).map(|i| i * 100) {
            let at = first + SimDuration::from_millis(ms);
            assert!(ls.observe(at, 0.7).is_none(), "dead band holds at {at:?}");
        }
        assert_eq!(ls.level(), ShedLevel::ReducedRate);
    }

    #[test]
    fn smoothing_filters_a_single_spike() {
        let mut ls = LoadShedder::new();
        assert!(ls.observe(SimTime::ZERO, 2.0).is_none(), "one spike is smoothed away");
        for ms in (100..=400).step_by(100) {
            ls.observe(SimTime::from_millis(ms), 0.0);
        }
        assert_eq!(ls.level(), ShedLevel::Full);
    }

    #[test]
    fn levels_define_stride_and_importance_semantics() {
        assert!(ShedLevel::Full.sends_on_tick(7));
        assert!(ShedLevel::ReducedRate.sends_on_tick(8));
        assert!(!ShedLevel::ReducedRate.sends_on_tick(7));
        assert!(!ShedLevel::Spectator.sends_on_tick(0));
        assert_eq!(ShedLevel::ExpressionOnly.min_importance(), Some(0.5));
        assert_eq!(ShedLevel::Full.min_importance(), None);
        assert_eq!(ShedLevel::Spectator.rung(), 3);
    }
}
