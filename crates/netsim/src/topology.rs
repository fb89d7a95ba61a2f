//! Link presets and geography for blueprint topologies.
//!
//! The blueprint's Figure 3 names four transport classes — headset WiFi,
//! wired sensor links, the inter-campus WAN, and the public Internet reaching
//! remote learners — and its scalability discussion (§3.3) requires a
//! worldwide user population with regional servers. [`LinkClass`] provides
//! calibrated [`LinkConfig`] presets for the former; [`Region`] provides an
//! inter-region one-way latency matrix for the latter.

use serde::{Deserialize, Serialize};

use crate::link::{LinkConfig, LossModel};
use crate::time::SimDuration;

/// Calibrated presets for the transport classes in the blueprint.
///
/// # Examples
///
/// ```
/// use metaclass_netsim::LinkClass;
///
/// let wifi = LinkClass::Wifi.config();
/// let wired = LinkClass::WiredLan.config();
/// assert!(wifi.delay() > wired.delay());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Classroom WiFi between a headset and the local edge server
    /// (802.11ac-class: ~2 ms, jittery, occasionally lossy).
    Wifi,
    /// Wired LAN between room sensors and the local edge server.
    WiredLan,
    /// Dedicated inter-campus backbone (e.g. HKUST CWB ↔ GZ, ~7.5 ms one-way).
    CampusBackbone,
    /// Edge server to a nearby cloud (metro distance).
    MetroWan,
    /// Residential last-mile access for remote learners.
    ResidentialAccess,
    /// Congested/cellular access: higher jitter and burst loss.
    CellularAccess,
}

impl LinkClass {
    /// The calibrated link configuration for this class.
    pub fn config(self) -> LinkConfig {
        match self {
            LinkClass::Wifi => LinkConfig::new(SimDuration::from_millis(2))
                .with_jitter(SimDuration::from_micros(1_500))
                .with_loss(LossModel::Iid { p: 0.005 })
                .with_bandwidth_bps(50_000_000)
                .with_queue_capacity_bytes(256 * 1024),
            LinkClass::WiredLan => LinkConfig::new(SimDuration::from_micros(200))
                .with_jitter(SimDuration::from_micros(50))
                .with_loss(LossModel::Iid { p: 0.0001 })
                .with_bandwidth_bps(1_000_000_000)
                .with_queue_capacity_bytes(1024 * 1024),
            LinkClass::CampusBackbone => LinkConfig::new(SimDuration::from_micros(7_500))
                .with_jitter(SimDuration::from_micros(500))
                .with_loss(LossModel::Iid { p: 0.0005 })
                .with_bandwidth_bps(1_000_000_000)
                .with_queue_capacity_bytes(4 * 1024 * 1024),
            LinkClass::MetroWan => LinkConfig::new(SimDuration::from_millis(4))
                .with_jitter(SimDuration::from_micros(800))
                .with_loss(LossModel::Iid { p: 0.0005 })
                .with_bandwidth_bps(1_000_000_000)
                .with_queue_capacity_bytes(4 * 1024 * 1024),
            LinkClass::ResidentialAccess => LinkConfig::new(SimDuration::from_millis(8))
                .with_jitter(SimDuration::from_millis(2))
                .with_loss(LossModel::Iid { p: 0.002 })
                .with_bandwidth_bps(100_000_000)
                .with_queue_capacity_bytes(512 * 1024),
            LinkClass::CellularAccess => LinkConfig::new(SimDuration::from_millis(25))
                .with_jitter(SimDuration::from_millis(8))
                .with_loss(LossModel::GilbertElliott {
                    p_good_to_bad: 0.01,
                    p_bad_to_good: 0.25,
                    loss_good: 0.001,
                    loss_bad: 0.15,
                })
                .with_bandwidth_bps(30_000_000)
                .with_queue_capacity_bytes(512 * 1024),
        }
    }
}

/// A world region hosting remote learners or servers.
///
/// Indexes into a calibrated one-way inter-region latency matrix
/// (public-Internet medians, in milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Region {
    /// East Asia (Hong Kong, Guangzhou, Seoul, Tokyo) — the blueprint's campuses.
    EastAsia,
    /// Southeast Asia (Singapore, Jakarta).
    SoutheastAsia,
    /// South Asia (Mumbai, Delhi).
    SouthAsia,
    /// Europe (Frankfurt, London, Cambridge).
    Europe,
    /// North America (Boston/MIT, Virginia, California).
    NorthAmerica,
    /// South America (São Paulo).
    SouthAmerica,
    /// Oceania (Sydney).
    Oceania,
    /// Africa (Johannesburg, Cairo).
    Africa,
}

impl Region {
    /// All regions, in declaration order.
    pub const ALL: [Region; 8] = [
        Region::EastAsia,
        Region::SoutheastAsia,
        Region::SouthAsia,
        Region::Europe,
        Region::NorthAmerica,
        Region::SouthAmerica,
        Region::Oceania,
        Region::Africa,
    ];

    fn idx(self) -> usize {
        match self {
            Region::EastAsia => 0,
            Region::SoutheastAsia => 1,
            Region::SouthAsia => 2,
            Region::Europe => 3,
            Region::NorthAmerica => 4,
            Region::SouthAmerica => 5,
            Region::Oceania => 6,
            Region::Africa => 7,
        }
    }

    /// One-way median latency in milliseconds between region cores.
    pub fn one_way_ms(self, other: Region) -> u64 {
        // Symmetric matrix of one-way medians (ms).
        const M: [[u64; 8]; 8] = [
            //  EA  SEA  SA   EU   NA  SAm   OC   AF
            [5, 25, 45, 90, 60, 130, 55, 110],    // EastAsia
            [25, 5, 30, 85, 85, 160, 45, 95],     // SoutheastAsia
            [45, 30, 5, 65, 110, 150, 75, 80],    // SouthAsia
            [90, 85, 65, 5, 40, 95, 140, 45],     // Europe
            [60, 85, 110, 40, 5, 75, 75, 90],     // NorthAmerica
            [130, 160, 150, 95, 75, 5, 140, 120], // SouthAmerica
            [55, 45, 75, 140, 75, 140, 5, 130],   // Oceania
            [110, 95, 80, 45, 90, 120, 130, 5],   // Africa
        ];
        M[self.idx()][other.idx()]
    }

    /// A backbone link configuration between two region cores: one-way
    /// propagation from the matrix, 5% jitter, light loss.
    pub fn backbone_to(self, other: Region) -> LinkConfig {
        let ms = self.one_way_ms(other);
        LinkConfig::new(SimDuration::from_millis(ms))
            .with_jitter(SimDuration::from_millis_f64(ms as f64 * 0.05))
            .with_loss(LossModel::Iid { p: 0.0005 })
            .with_bandwidth_bps(10_000_000_000)
            .with_queue_capacity_bytes(16 * 1024 * 1024)
    }

    /// The region nearest to `self` among `candidates` (by one-way latency);
    /// `None` if `candidates` is empty. Ties break toward the earlier
    /// candidate.
    pub fn nearest_of(self, candidates: &[Region]) -> Option<Region> {
        candidates.iter().copied().min_by_key(|c| self.one_way_ms(*c))
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Region::EastAsia => "east-asia",
            Region::SoutheastAsia => "southeast-asia",
            Region::SouthAsia => "south-asia",
            Region::Europe => "europe",
            Region::NorthAmerica => "north-america",
            Region::SouthAmerica => "south-america",
            Region::Oceania => "oceania",
            Region::Africa => "africa",
        };
        f.write_str(name)
    }
}

/// Result of [`min_cut_partition`]: a shard assignment for every node plus
/// the derived conservative lookahead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Shard index per node (`0..shards`).
    pub shard_of: Vec<u32>,
    /// Minimum weight over edges whose endpoints land in different shards —
    /// the conservative lookahead in ns. `u64::MAX` when no edge crosses a
    /// shard boundary (disconnected shards can run unboundedly far apart).
    pub lookahead_ns: u64,
    /// Number of non-empty shards actually produced (`<= shards` requested).
    pub shards: usize,
}

/// Deterministically partitions an undirected weighted graph into at most
/// `shards` groups, cutting only the cheapest edges.
///
/// The heuristic raises a latency threshold `T` through the distinct edge
/// weights and merges every edge with weight `< T`; the largest `T` that
/// still leaves at least `shards` connected components wins (mirroring the
/// blueprint's campus/cloud split, where intra-room links are orders of
/// magnitude cheaper than the WAN). Components are then packed onto shards
/// balanced by node count — largest first, ties toward the smaller minimum
/// node id, each placed on the lightest shard.
///
/// `edges` are `(a, b, weight_ns)` and are treated as undirected; duplicate
/// pairs keep their minimum weight. Nodes with no edges form their own
/// components. The result is a pure function of the inputs.
pub fn min_cut_partition(node_count: usize, edges: &[(u32, u32, u64)], shards: usize) -> Partition {
    struct Dsu(Vec<u32>);
    impl Dsu {
        fn find(&mut self, x: u32) -> u32 {
            let mut root = x;
            while self.0[root as usize] != root {
                root = self.0[root as usize];
            }
            let mut cur = x;
            while self.0[cur as usize] != root {
                let next = self.0[cur as usize];
                self.0[cur as usize] = root;
                cur = next;
            }
            root
        }
        fn union(&mut self, a: u32, b: u32) -> bool {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra == rb {
                return false;
            }
            // Root at the smaller id for determinism.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.0[hi as usize] = lo;
            true
        }
    }

    let shards = shards.max(1);
    // Undirected-ize with minimum weight per pair, sorted by weight.
    let mut undirected: std::collections::BTreeMap<(u32, u32), u64> = Default::default();
    for &(a, b, w) in edges {
        if a == b {
            continue;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        let entry = undirected.entry(key).or_insert(w);
        *entry = (*entry).min(w);
    }
    let mut sorted: Vec<((u32, u32), u64)> = undirected.into_iter().collect();
    sorted.sort_by_key(|&((a, b), w)| (w, a, b));

    // Sweep the threshold upward: after merging all edges with weight < T,
    // the component count is what a cut at T yields. Keep the largest T
    // whose count still reaches `shards` (T = infinity merges nothing more,
    // covering graphs that are disconnected outright).
    let mut dsu = Dsu((0..node_count as u32).collect());
    let mut components = node_count;
    let mut best_threshold = None;
    let mut i = 0;
    while i < sorted.len() {
        let threshold = sorted[i].1;
        if components >= shards {
            best_threshold = Some(threshold);
        }
        while i < sorted.len() && sorted[i].1 == threshold {
            let ((a, b), _) = sorted[i];
            if dsu.union(a, b) {
                components -= 1;
            }
            i += 1;
        }
    }
    if components >= shards {
        best_threshold = Some(u64::MAX);
    }

    // Rebuild at the chosen threshold and collect components.
    let mut dsu = Dsu((0..node_count as u32).collect());
    if let Some(t) = best_threshold {
        for &((a, b), w) in &sorted {
            if w < t {
                dsu.union(a, b);
            }
        }
    } else {
        // Even the full graph has fewer components than requested shards:
        // merge everything and let the packing below spread what exists.
        for &((a, b), _) in &sorted {
            dsu.union(a, b);
        }
    }
    let mut members: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    for node in 0..node_count as u32 {
        members.entry(dsu.find(node)).or_default().push(node);
    }

    // Pack components onto shards, balanced by node count: largest first
    // (ties toward the smaller root id), each onto the lightest shard (ties
    // toward the lower shard index).
    let mut comps: Vec<(u32, Vec<u32>)> = members.into_iter().collect();
    comps.sort_by_key(|(root, nodes)| (std::cmp::Reverse(nodes.len()), *root));
    let mut shard_of = vec![0u32; node_count];
    // With more shards than components each component lands on its own
    // empty shard in index order, so only `components` shards are sized.
    let mut load = vec![0usize; shards.min(comps.len())];
    for (_, nodes) in &comps {
        let lightest =
            (0..load.len()).min_by_key(|&s| (load[s], s)).expect("a shard per component");
        load[lightest] += nodes.len();
        for &n in nodes {
            shard_of[n as usize] = lightest as u32;
        }
    }

    let lookahead_ns = sorted
        .iter()
        .filter(|((a, b), _)| shard_of[*a as usize] != shard_of[*b as usize])
        .map(|&(_, w)| w)
        .min()
        .unwrap_or(u64::MAX);
    let populated = load.iter().filter(|&&l| l > 0).count();
    Partition { shard_of, lookahead_ns, shards: populated.max(1) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_matrix_is_symmetric() {
        for a in Region::ALL {
            for b in Region::ALL {
                assert_eq!(a.one_way_ms(b), b.one_way_ms(a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn intra_region_is_cheapest() {
        for a in Region::ALL {
            for b in Region::ALL {
                if a != b {
                    assert!(a.one_way_ms(a) < a.one_way_ms(b), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn nearest_of_picks_self_when_available() {
        assert_eq!(Region::Europe.nearest_of(&Region::ALL), Some(Region::Europe));
        assert_eq!(Region::Europe.nearest_of(&[]), None);
    }

    #[test]
    fn nearest_of_is_sensible_for_remote_learners() {
        // A South American learner with servers only in NA and EU goes to NA.
        let got = Region::SouthAmerica.nearest_of(&[Region::NorthAmerica, Region::Europe]);
        assert_eq!(got, Some(Region::NorthAmerica));
    }

    #[test]
    fn link_class_presets_are_ordered_by_delay() {
        let wired = LinkClass::WiredLan.config().delay();
        let wifi = LinkClass::Wifi.config().delay();
        let campus = LinkClass::CampusBackbone.config().delay();
        let cell = LinkClass::CellularAccess.config().delay();
        assert!(wired < wifi && wifi < campus && campus < cell);
    }

    #[test]
    fn presets_have_finite_bandwidth_and_queues() {
        for class in [
            LinkClass::Wifi,
            LinkClass::WiredLan,
            LinkClass::CampusBackbone,
            LinkClass::MetroWan,
            LinkClass::ResidentialAccess,
            LinkClass::CellularAccess,
        ] {
            let cfg = class.config();
            assert!(cfg.bandwidth_bps().is_some(), "{class:?}");
            assert!(cfg.queue_capacity_bytes().is_some(), "{class:?}");
        }
    }

    #[test]
    fn backbone_delay_matches_matrix() {
        let cfg = Region::EastAsia.backbone_to(Region::Europe);
        assert_eq!(cfg.delay(), SimDuration::from_millis(90));
    }

    #[test]
    fn partition_cuts_the_expensive_edges() {
        // Two 3-node cliques at 1 ms joined by one 50 ms WAN edge.
        let ms = 1_000_000;
        let edges = vec![
            (0, 1, ms),
            (1, 2, ms),
            (0, 2, ms),
            (3, 4, ms),
            (4, 5, ms),
            (3, 5, ms),
            (2, 3, 50 * ms),
        ];
        let p = min_cut_partition(6, &edges, 2);
        assert_eq!(p.shards, 2);
        assert_eq!(p.lookahead_ns, 50 * ms);
        assert_eq!(p.shard_of[0], p.shard_of[1]);
        assert_eq!(p.shard_of[1], p.shard_of[2]);
        assert_eq!(p.shard_of[3], p.shard_of[4]);
        assert_eq!(p.shard_of[4], p.shard_of[5]);
        assert_ne!(p.shard_of[0], p.shard_of[3]);
    }

    #[test]
    fn partition_balances_many_components_onto_few_shards() {
        // Six isolated pairs at 1 ms, pairwise joined at 20 ms.
        let ms = 1_000_000;
        let mut edges = Vec::new();
        for pair in 0u32..6 {
            edges.push((2 * pair, 2 * pair + 1, ms));
        }
        for pair in 0u32..5 {
            edges.push((2 * pair, 2 * pair + 2, 20 * ms));
        }
        let p = min_cut_partition(12, &edges, 4);
        assert_eq!(p.shards, 4);
        assert_eq!(p.lookahead_ns, 20 * ms);
        let mut load = [0usize; 4];
        for &s in &p.shard_of {
            load[s as usize] += 1;
        }
        assert_eq!(load, [4, 4, 2, 2], "six pairs pack 2/2/1/1 components");
    }

    #[test]
    fn partition_handles_degenerate_graphs() {
        // Fewer components than shards: everything merges into one shard.
        let p = min_cut_partition(2, &[(0, 1, 5)], 4);
        assert_eq!(p.shards, 1);
        assert_eq!(p.lookahead_ns, u64::MAX, "no crossing edges remain");
        // No edges at all: four singletons spread across shards.
        let p = min_cut_partition(4, &[], 4);
        assert_eq!(p.shards, 4);
        assert_eq!(p.lookahead_ns, u64::MAX);
        // All-equal weights cannot be cut above zero cost but still split.
        let p = min_cut_partition(4, &[(0, 1, 7), (1, 2, 7), (2, 3, 7)], 2);
        assert!(p.shards >= 2);
        assert_eq!(p.lookahead_ns, 7);
        // Deterministic across calls.
        let a = min_cut_partition(4, &[(0, 1, 7), (1, 2, 7), (2, 3, 7)], 2);
        assert_eq!(a, p);
    }

    #[test]
    fn a_huge_shard_count_packs_like_one_more_than_the_nodes() {
        // Two 2-node components joined at 40 ns, plus two singletons.
        let edges = [(0, 1, 5), (2, 3, 9), (1, 2, 40)];
        let p = min_cut_partition(6, &edges, usize::MAX);
        assert_eq!(p, min_cut_partition(6, &edges, 7));
        assert_eq!(p.shards, 3);
        assert_eq!(min_cut_partition(0, &[], usize::MAX), min_cut_partition(0, &[], 1));
    }
}
