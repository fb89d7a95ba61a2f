//! Network link models.
//!
//! A [`Link`] is a directed channel between two nodes with propagation delay,
//! jitter, stochastic loss (i.i.d. or Gilbert–Elliott bursts), finite
//! bandwidth with serialization delay, and a bounded drop-tail queue. Links
//! are the only source of latency and loss in the simulator, which makes the
//! per-hop accounting of the blueprint's Figure 3 explicit and auditable.

use serde::{Deserialize, Serialize};

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Identifier of a directed link within a [`Simulation`](crate::Simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// The raw index of this link.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Packet-loss process of a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LossModel {
    /// No loss at all.
    None,
    /// Each packet is lost independently with probability `p`.
    Iid {
        /// Per-packet loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst-loss process.
    GilbertElliott {
        /// Probability of moving good → bad per packet.
        p_good_to_bad: f64,
        /// Probability of moving bad → good per packet.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Long-run average loss probability of this process.
    pub fn mean_loss(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Iid { p } => p,
            LossModel::GilbertElliott { p_good_to_bad, p_bad_to_good, loss_good, loss_bad } => {
                let denom = p_good_to_bad + p_bad_to_good;
                if denom == 0.0 {
                    loss_good
                } else {
                    let pi_bad = p_good_to_bad / denom;
                    (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
                }
            }
        }
    }
}

/// Static configuration of a directed link.
///
/// Construct with [`LinkConfig::new`] and the builder-style setters, or use a
/// preset from [`crate::topology::LinkClass`].
///
/// # Examples
///
/// ```
/// use metaclass_netsim::{LinkConfig, LossModel, SimDuration};
///
/// let wifi = LinkConfig::new(SimDuration::from_millis(2))
///     .with_jitter(SimDuration::from_micros(1500))
///     .with_loss(LossModel::Iid { p: 0.005 })
///     .with_bandwidth_bps(50_000_000);
/// assert_eq!(wifi.delay(), SimDuration::from_millis(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    delay: SimDuration,
    jitter_std: SimDuration,
    loss: LossModel,
    bandwidth_bps: Option<u64>,
    queue_capacity_bytes: Option<u64>,
}

impl LinkConfig {
    /// A lossless, infinite-bandwidth link with fixed propagation `delay`.
    pub fn new(delay: SimDuration) -> Self {
        LinkConfig {
            delay,
            jitter_std: SimDuration::ZERO,
            loss: LossModel::None,
            bandwidth_bps: None,
            queue_capacity_bytes: None,
        }
    }

    /// Sets the jitter standard deviation (truncated-normal, non-negative).
    pub fn with_jitter(mut self, jitter_std: SimDuration) -> Self {
        self.jitter_std = jitter_std;
        self
    }

    /// Sets the loss model.
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Sets a finite bandwidth in bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero.
    pub fn with_bandwidth_bps(mut self, bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        self.bandwidth_bps = Some(bps);
        self
    }

    /// Bounds the transmit queue; packets arriving beyond `bytes` of backlog
    /// are dropped (drop-tail). Only meaningful with finite bandwidth.
    pub fn with_queue_capacity_bytes(mut self, bytes: u64) -> Self {
        self.queue_capacity_bytes = Some(bytes);
        self
    }

    /// Propagation delay.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// Jitter standard deviation.
    pub fn jitter_std(&self) -> SimDuration {
        self.jitter_std
    }

    /// Loss model.
    pub fn loss(&self) -> LossModel {
        self.loss
    }

    /// Bandwidth, if finite.
    pub fn bandwidth_bps(&self) -> Option<u64> {
        self.bandwidth_bps
    }

    /// Queue capacity, if bounded.
    pub fn queue_capacity_bytes(&self) -> Option<u64> {
        self.queue_capacity_bytes
    }
}

/// Why a packet offered to a link was not delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// The transmit queue was full (drop-tail).
    QueueFull,
    /// The packet was lost in flight (channel loss).
    Loss,
    /// The link was administratively down or severed by a partition.
    LinkDown,
    /// The destination node was crashed.
    NodeDown,
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DropReason::QueueFull => write!(f, "queue full"),
            DropReason::Loss => write!(f, "channel loss"),
            DropReason::LinkDown => write!(f, "link down"),
            DropReason::NodeDown => write!(f, "node down"),
        }
    }
}

/// Runtime state of a directed link.
#[derive(Debug, Clone)]
pub struct Link {
    cfg: LinkConfig,
    /// Time at which the transmitter finishes its current backlog.
    busy_until: SimTime,
    /// Latest arrival scheduled so far, for FIFO enforcement.
    last_arrival: SimTime,
    /// Gilbert–Elliott channel state (`true` = bad).
    ge_bad: bool,
    up: bool,
    /// Severed by a network partition (orthogonal to admin `up`).
    partitioned: bool,
    /// Temporary loss process replacing the configured one (fault injection).
    loss_override: Option<LossModel>,
    /// Extra propagation delay added on top of the configured one.
    extra_delay: SimDuration,
}

/// Outcome of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmit {
    /// Packet will arrive at the far end at the given time.
    Deliver {
        /// Arrival instant at the receiving node.
        at: SimTime,
    },
    /// Packet was dropped.
    Drop(DropReason),
}

impl Link {
    /// Creates a link in the up state.
    pub fn new(cfg: LinkConfig) -> Self {
        Link {
            cfg,
            busy_until: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            ge_bad: false,
            up: true,
            partitioned: false,
            loss_override: None,
            extra_delay: SimDuration::ZERO,
        }
    }

    /// Administratively brings the link up or down; returns whether the link
    /// just became unavailable.
    pub(crate) fn set_up_at(&mut self, up: bool) -> bool {
        let before = self.is_available();
        self.up = up;
        before && !self.is_available()
    }

    /// Marks the link severed (or restored) by a network partition; returns
    /// whether the link just became unavailable. Partition state is tracked
    /// separately from admin state so healing a partition never resurrects
    /// an administratively downed link.
    pub(crate) fn set_partitioned_at(&mut self, partitioned: bool) -> bool {
        let before = self.is_available();
        self.partitioned = partitioned;
        before && !self.is_available()
    }

    /// Whether the link can carry traffic (up and not partitioned).
    pub fn is_available(&self) -> bool {
        self.up && !self.partitioned
    }

    /// Replaces the loss process temporarily (`None` restores the configured
    /// model). Used by loss-burst fault windows.
    pub(crate) fn set_loss_override(&mut self, loss: Option<LossModel>) {
        self.loss_override = loss;
    }

    /// The loss process currently in effect.
    pub fn effective_loss(&self) -> LossModel {
        self.loss_override.unwrap_or(self.cfg.loss)
    }

    /// Adds extra propagation delay on top of the configured one (`ZERO`
    /// restores normal latency). Used by latency-spike fault windows.
    pub(crate) fn set_extra_delay(&mut self, extra: SimDuration) {
        self.extra_delay = extra;
    }

    /// Current transmit backlog in bytes at time `now`, given the configured
    /// bandwidth (zero for infinite-bandwidth links).
    pub fn backlog_bytes(&self, now: SimTime) -> u64 {
        match self.cfg.bandwidth_bps {
            None => 0,
            Some(bps) => {
                let backlog = self.busy_until.duration_since(now);
                ((backlog.as_nanos() as u128 * bps as u128) / (8 * 1_000_000_000)) as u64
            }
        }
    }

    /// Offers a packet of `size_bytes` to the link at time `now`.
    ///
    /// Updates queue occupancy and loss state, and returns either the arrival
    /// time at the far end or a drop reason. Lost packets still occupy the
    /// transmitter (they are sent, then corrupted).
    pub fn transmit(&mut self, now: SimTime, size_bytes: u32, rng: &mut DetRng) -> Transmit {
        if !self.is_available() {
            return Transmit::Drop(DropReason::LinkDown);
        }

        // Queue admission.
        if let (Some(cap), Some(_)) = (self.cfg.queue_capacity_bytes, self.cfg.bandwidth_bps) {
            if self.backlog_bytes(now) + size_bytes as u64 > cap {
                return Transmit::Drop(DropReason::QueueFull);
            }
        }

        // Serialization.
        let start = self.busy_until.max(now);
        let ser = match self.cfg.bandwidth_bps {
            None => SimDuration::ZERO,
            Some(bps) => SimDuration::from_transmission(size_bytes as u64, bps),
        };
        self.busy_until = start + ser;

        // Channel loss (after transmission — lost packets consumed airtime).
        let lost = match self.effective_loss() {
            LossModel::None => false,
            LossModel::Iid { p } => rng.chance(p),
            LossModel::GilbertElliott { p_good_to_bad, p_bad_to_good, loss_good, loss_bad } => {
                if self.ge_bad {
                    if rng.chance(p_bad_to_good) {
                        self.ge_bad = false;
                    }
                } else if rng.chance(p_good_to_bad) {
                    self.ge_bad = true;
                }
                rng.chance(if self.ge_bad { loss_bad } else { loss_good })
            }
        };
        if lost {
            return Transmit::Drop(DropReason::Loss);
        }

        // Propagation + jitter.
        let jitter = if self.cfg.jitter_std.is_zero() {
            SimDuration::ZERO
        } else {
            let std = self.cfg.jitter_std.as_nanos() as f64;
            SimDuration::from_nanos(rng.truncated_normal(0.0, std, 0.0, 4.0 * std) as u64)
        };
        let mut arrival = self.busy_until + self.cfg.delay + self.extra_delay + jitter;
        // Links deliver FIFO: jitter may not overtake an earlier packet.
        if arrival <= self.last_arrival {
            arrival = self.last_arrival + SimDuration::from_nanos(1);
        }
        self.last_arrival = arrival;
        Transmit::Deliver { at: arrival }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(1234)
    }

    #[test]
    fn ideal_link_is_pure_delay() {
        let mut link = Link::new(LinkConfig::new(SimDuration::from_millis(5)));
        let mut r = rng();
        match link.transmit(SimTime::from_millis(10), 100, &mut r) {
            Transmit::Deliver { at } => assert_eq!(at, SimTime::from_millis(15)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bandwidth_serializes_back_to_back_packets() {
        // 1 Mbps, 125-byte packets => 1 ms serialization each.
        let cfg = LinkConfig::new(SimDuration::ZERO).with_bandwidth_bps(1_000_000);
        let mut link = Link::new(cfg);
        let mut r = rng();
        let t0 = SimTime::ZERO;
        let a1 = match link.transmit(t0, 125, &mut r) {
            Transmit::Deliver { at } => at,
            other => panic!("unexpected {other:?}"),
        };
        let a2 = match link.transmit(t0, 125, &mut r) {
            Transmit::Deliver { at } => at,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(a1, SimTime::from_millis(1));
        assert_eq!(a2, SimTime::from_millis(2));
    }

    #[test]
    fn queue_capacity_drops_excess() {
        // 1 Mbps with a 250-byte queue: the third 125-byte packet overflows.
        let cfg = LinkConfig::new(SimDuration::ZERO)
            .with_bandwidth_bps(1_000_000)
            .with_queue_capacity_bytes(250);
        let mut link = Link::new(cfg);
        let mut r = rng();
        let t0 = SimTime::ZERO;
        assert!(matches!(link.transmit(t0, 125, &mut r), Transmit::Deliver { .. }));
        assert!(matches!(link.transmit(t0, 125, &mut r), Transmit::Deliver { .. }));
        assert_eq!(link.transmit(t0, 125, &mut r), Transmit::Drop(DropReason::QueueFull));
        // After the backlog drains, transmission succeeds again.
        assert!(matches!(
            link.transmit(SimTime::from_millis(2), 125, &mut r),
            Transmit::Deliver { .. }
        ));
    }

    #[test]
    fn iid_loss_rate_is_plausible() {
        let cfg =
            LinkConfig::new(SimDuration::from_micros(10)).with_loss(LossModel::Iid { p: 0.1 });
        let mut link = Link::new(cfg);
        let mut r = rng();
        let mut lost = 0;
        for i in 0..10_000u64 {
            if matches!(
                link.transmit(SimTime::from_micros(i), 100, &mut r),
                Transmit::Drop(DropReason::Loss)
            ) {
                lost += 1;
            }
        }
        assert!((800..1_200).contains(&lost), "lost {lost}");
    }

    #[test]
    fn gilbert_elliott_produces_bursts() {
        let cfg =
            LinkConfig::new(SimDuration::from_micros(10)).with_loss(LossModel::GilbertElliott {
                p_good_to_bad: 0.01,
                p_bad_to_good: 0.2,
                loss_good: 0.0,
                loss_bad: 0.8,
            });
        let mut link = Link::new(cfg);
        let mut r = rng();
        let mut losses = Vec::new();
        for i in 0..50_000u64 {
            losses.push(matches!(
                link.transmit(SimTime::from_micros(i), 100, &mut r),
                Transmit::Drop(DropReason::Loss)
            ));
        }
        let total: usize = losses.iter().filter(|&&l| l).count();
        // Mean loss should be near the stationary value.
        let expected = LossModel::GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.2,
            loss_good: 0.0,
            loss_bad: 0.8,
        }
        .mean_loss();
        let observed = total as f64 / losses.len() as f64;
        assert!((observed - expected).abs() < 0.01, "observed {observed} expected {expected}");
        // Conditional loss-after-loss probability must exceed marginal (bursts).
        let mut pairs = 0;
        let mut after_loss = 0;
        for w in losses.windows(2) {
            if w[0] {
                pairs += 1;
                if w[1] {
                    after_loss += 1;
                }
            }
        }
        let conditional = after_loss as f64 / pairs as f64;
        assert!(conditional > 2.0 * observed, "conditional {conditional} marginal {observed}");
    }

    #[test]
    fn fifo_links_never_reorder() {
        let cfg =
            LinkConfig::new(SimDuration::from_millis(5)).with_jitter(SimDuration::from_millis(3));
        let mut link = Link::new(cfg);
        let mut r = rng();
        let mut prev = SimTime::ZERO;
        for i in 0..1_000u64 {
            if let Transmit::Deliver { at } =
                link.transmit(SimTime::from_micros(i * 10), 100, &mut r)
            {
                assert!(at > prev, "reordered at packet {i}");
                prev = at;
            }
        }
    }

    #[test]
    fn down_link_drops_everything() {
        let mut link = Link::new(LinkConfig::new(SimDuration::from_millis(1)));
        link.set_up_at(false);
        let mut r = rng();
        assert_eq!(link.transmit(SimTime::ZERO, 10, &mut r), Transmit::Drop(DropReason::LinkDown));
        link.set_up_at(true);
        assert!(matches!(link.transmit(SimTime::ZERO, 10, &mut r), Transmit::Deliver { .. }));
    }

    #[test]
    fn only_a_new_outage_reports_a_flap() {
        let mut link = Link::new(LinkConfig::new(SimDuration::from_millis(1)));
        assert!(link.set_up_at(false));
        assert!(!link.set_up_at(false), "idempotent, no extra flap");
        assert!(!link.set_up_at(true));
        assert!(link.set_up_at(false));
        assert!(!link.set_up_at(true));
    }

    #[test]
    fn partition_is_orthogonal_to_admin_state() {
        let mut link = Link::new(LinkConfig::new(SimDuration::from_millis(1)));
        let mut r = rng();
        assert!(link.set_partitioned_at(true));
        assert!(!link.is_available());
        assert!(link.up, "the admin state is untouched");
        assert_eq!(
            link.transmit(SimTime::from_millis(6), 10, &mut r),
            Transmit::Drop(DropReason::LinkDown)
        );
        // Admin-down while partitioned; healing the partition must not
        // resurrect the link.
        assert!(!link.set_up_at(false), "one continuous outage");
        assert!(!link.set_partitioned_at(false));
        assert!(!link.is_available());
        assert!(!link.set_up_at(true));
        assert!(link.is_available());
    }

    #[test]
    fn loss_override_replaces_and_restores() {
        let cfg = LinkConfig::new(SimDuration::from_micros(10));
        let mut link = Link::new(cfg);
        let mut r = rng();
        link.set_loss_override(Some(LossModel::Iid { p: 1.0 }));
        assert_eq!(link.transmit(SimTime::ZERO, 10, &mut r), Transmit::Drop(DropReason::Loss));
        link.set_loss_override(None);
        assert!(matches!(link.transmit(SimTime::ZERO, 10, &mut r), Transmit::Deliver { .. }));
    }

    #[test]
    fn extra_delay_stretches_latency() {
        let mut link = Link::new(LinkConfig::new(SimDuration::from_millis(5)));
        let mut r = rng();
        link.set_extra_delay(SimDuration::from_millis(20));
        match link.transmit(SimTime::from_millis(10), 100, &mut r) {
            Transmit::Deliver { at } => assert_eq!(at, SimTime::from_millis(35)),
            other => panic!("unexpected {other:?}"),
        }
        link.set_extra_delay(SimDuration::ZERO);
        match link.transmit(SimTime::from_millis(100), 100, &mut r) {
            Transmit::Deliver { at } => assert_eq!(at, SimTime::from_millis(105)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mean_loss_of_models() {
        assert_eq!(LossModel::None.mean_loss(), 0.0);
        assert_eq!(LossModel::Iid { p: 0.25 }.mean_loss(), 0.25);
        let ge = LossModel::GilbertElliott {
            p_good_to_bad: 0.1,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 0.4,
        };
        assert!((ge.mean_loss() - 0.1).abs() < 1e-12);
    }
}
