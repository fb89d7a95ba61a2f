//! Interest management: who needs whose updates, at what priority.
//!
//! §3.3 names "the synchronization of a large number of entities within a
//! single digital space" as a primary challenge. The classic answer is an
//! area-of-interest filter: each subscriber receives, per tick, a bounded
//! budget of updates chosen by distance, field of view, speaker importance,
//! and staleness (staleness grows without bound, so every relevant entity is
//! eventually refreshed — no starvation).

use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use metaclass_avatar::{AvatarId, Vec3};
use serde::{Deserialize, Serialize};

/// Identifier of a subscriber (a client endpoint receiving updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SubscriberId(pub u32);

/// Configuration of the interest filter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterestConfig {
    /// Entities beyond this distance are never selected, metres.
    pub radius: f64,
    /// Spatial-grid cell size, metres.
    pub cell_size: f64,
    /// Half-angle of the subscriber's field of view, degrees; entities inside
    /// get a priority boost.
    pub fov_half_angle_deg: f64,
    /// Multiplier applied to in-FOV entities.
    pub fov_boost: f64,
    /// Weight of importance (speaker flag) in the score.
    pub importance_weight: f64,
    /// Weight of staleness (ticks since last selected) in the score.
    pub staleness_weight: f64,
}

impl Default for InterestConfig {
    fn default() -> Self {
        InterestConfig {
            radius: 30.0,
            cell_size: 4.0,
            fov_half_angle_deg: 55.0,
            fov_boost: 2.0,
            importance_weight: 4.0,
            staleness_weight: 0.25,
        }
    }
}

#[derive(Debug, Clone)]
struct Entity {
    position: Vec3,
    importance: f64,
    cell: (i32, i32),
}

/// The subscriber's point of view for a selection query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewpoint {
    /// Subscriber position.
    pub position: Vec3,
    /// Gaze yaw, radians (0 faces +z).
    pub yaw: f64,
}

/// Area-of-interest manager over one shared space.
///
/// # Examples
///
/// ```
/// use metaclass_avatar::{AvatarId, Vec3};
/// use metaclass_sync::{InterestConfig, InterestManager, SubscriberId, Viewpoint};
///
/// let mut im = InterestManager::new(InterestConfig::default());
/// im.update_entity(AvatarId(1), Vec3::new(1.0, 0.0, 1.0), 0.0);
/// im.update_entity(AvatarId(2), Vec3::new(100.0, 0.0, 100.0), 0.0); // out of range
/// let picked = im.select(
///     SubscriberId(7),
///     Viewpoint { position: Vec3::ZERO, yaw: 0.0 },
///     8,
/// );
/// assert_eq!(picked, vec![AvatarId(1)]);
/// ```
#[derive(Debug, Clone)]
pub struct InterestManager {
    cfg: InterestConfig,
    entities: BTreeMap<AvatarId, Entity>,
    grid: BTreeMap<(i32, i32), Vec<AvatarId>>,
    /// Ticks since each (subscriber, entity) pair was last selected.
    staleness: BTreeMap<SubscriberId, BTreeMap<AvatarId, u32>>,
    /// Scored candidates of the selection in progress; kept for its capacity.
    scored: Vec<(f64, AvatarId)>,
    /// The latest selection, which `select` lends to its caller.
    selected: Vec<AvatarId>,
}

/// Selection order: score descending, id ascending as tiebreak. Ids are
/// unique within a selection, so the order is total and the first `k` of a
/// full sort are the `k` a partial selection finds.
fn by_priority(a: &(f64, AvatarId), b: &(f64, AvatarId)) -> Ordering {
    b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal).then(a.1.cmp(&b.1))
}

impl InterestManager {
    /// Creates an empty manager.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cell_size` or `cfg.radius` is not strictly positive.
    pub fn new(cfg: InterestConfig) -> Self {
        assert!(cfg.cell_size > 0.0, "cell size must be positive");
        assert!(cfg.radius > 0.0, "radius must be positive");
        InterestManager {
            cfg,
            entities: BTreeMap::new(),
            grid: BTreeMap::new(),
            staleness: BTreeMap::new(),
            scored: Vec::new(),
            selected: Vec::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &InterestConfig {
        &self.cfg
    }

    /// Inserts or moves an entity. `importance` is `0.0` for a silent
    /// attendee up to `1.0` for the active speaker.
    pub fn update_entity(&mut self, id: AvatarId, position: Vec3, importance: f64) {
        let cell = cell_of(&self.cfg, position);
        match self.entities.get_mut(&id) {
            Some(e) => {
                if e.cell != cell {
                    if let Some(v) = self.grid.get_mut(&e.cell) {
                        v.retain(|x| *x != id);
                    }
                    self.grid.entry(cell).or_default().push(id);
                    e.cell = cell;
                }
                e.position = position;
                e.importance = importance.clamp(0.0, 1.0);
            }
            None => {
                self.entities
                    .insert(id, Entity { position, importance: importance.clamp(0.0, 1.0), cell });
                self.grid.entry(cell).or_default().push(id);
            }
        }
    }

    /// Removes an entity (participant left).
    pub fn remove_entity(&mut self, id: AvatarId) {
        if let Some(e) = self.entities.remove(&id) {
            if let Some(v) = self.grid.get_mut(&e.cell) {
                v.retain(|x| *x != id);
            }
        }
        for per_sub in self.staleness.values_mut() {
            per_sub.remove(&id);
        }
    }

    /// Removes a subscriber's bookkeeping (client disconnected).
    pub fn remove_subscriber(&mut self, sub: SubscriberId) {
        self.staleness.remove(&sub);
    }

    /// Number of tracked entities.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Entities within `radius` of `p`, via the spatial grid.
    ///
    /// Scans the cell window around `p` when it is small, and falls back to
    /// iterating the *occupied* cells when the radius covers more cells than
    /// exist — so enormous radii (an "everything is interesting" policy)
    /// stay O(entities) instead of O(radius²).
    pub fn entities_near(&self, p: Vec3) -> Vec<AvatarId> {
        let mut out = Vec::new();
        for_each_near(&self.cfg, &self.entities, &self.grid, p, |id, _| out.push(id));
        out
    }

    /// Selects up to `budget` entities for `sub` this tick, highest priority
    /// first, and updates staleness accounting. The subscriber's own avatar
    /// id (equal numeric id) is *not* excluded — exclude it at the call site
    /// if subscribers are also entities. The selection is lent from the
    /// manager's own buffer and stands until the next one.
    pub fn select(&mut self, sub: SubscriberId, view: Viewpoint, budget: usize) -> &[AvatarId] {
        self.select_with_min_importance(sub, view, budget, f64::NEG_INFINITY)
    }

    /// Like [`select`](Self::select), but only entities whose importance is
    /// at least `min_importance` are candidates. The expression-only rung of
    /// an overload-shedding ladder uses this to keep showing the speaker
    /// (importance 1.0) while suppressing the crowd.
    pub fn select_with_min_importance(
        &mut self,
        sub: SubscriberId,
        view: Viewpoint,
        budget: usize,
        min_importance: f64,
    ) -> &[AvatarId] {
        let stale_map = self.staleness.entry(sub).or_default();
        let cfg = &self.cfg;
        let fov_cos = (cfg.fov_half_angle_deg.to_radians()).cos();
        let gaze = Vec3::new(view.yaw.sin(), 0.0, view.yaw.cos());

        let scored = &mut self.scored;
        scored.clear();
        for_each_near(cfg, &self.entities, &self.grid, view.position, |id, e| {
            if e.importance < min_importance {
                return;
            }
            let to = e.position - view.position;
            let dist = to.norm();
            let mut score = 1.0 / (1.0 + dist * dist);
            if let Some(dir) = Vec3::new(to.x, 0.0, to.z).normalized() {
                if dir.dot(gaze) >= fov_cos {
                    score *= cfg.fov_boost;
                }
            }
            // Importance is additive: the active speaker outranks even a
            // nearest neighbour, anywhere in the room.
            score += cfg.importance_weight * e.importance;
            // Score with the staleness so far and age it for the next tick.
            // New entities score as very stale.
            let stale = match stale_map.entry(id) {
                Entry::Occupied(mut aged) => {
                    let stale = *aged.get();
                    *aged.get_mut() = stale.saturating_add(1);
                    stale
                }
                Entry::Vacant(new) => {
                    new.insert(1_001);
                    1_000_000
                }
            };
            score += cfg.staleness_weight * stale as f64;
            scored.push((score, id));
        });

        // Only the winners need ordering.
        let budget = budget.min(scored.len());
        if budget > 0 && budget < scored.len() {
            scored.select_nth_unstable_by(budget - 1, by_priority);
        }
        scored[..budget].sort_unstable_by(by_priority);
        self.selected.clear();
        self.selected.extend(scored[..budget].iter().map(|(_, id)| *id));
        for id in &self.selected {
            stale_map.insert(*id, 0);
        }
        &self.selected
    }
}

fn cell_of(cfg: &InterestConfig, p: Vec3) -> (i32, i32) {
    ((p.x / cfg.cell_size).floor() as i32, (p.z / cfg.cell_size).floor() as i32)
}

/// Calls `visit` for every entity within `cfg.radius` of `p`, walking the
/// grid cells around `p` (or the occupied cells, when those are fewer).
fn for_each_near(
    cfg: &InterestConfig,
    entities: &BTreeMap<AvatarId, Entity>,
    grid: &BTreeMap<(i32, i32), Vec<AvatarId>>,
    p: Vec3,
    mut visit: impl FnMut(AvatarId, &Entity),
) {
    let r = cfg.radius;
    let r_cells = (r / cfg.cell_size).ceil() as i64;
    let center = cell_of(cfg, p);
    let mut visit_cell = |ids: &[AvatarId]| {
        for id in ids {
            let e = &entities[id];
            if e.position.distance(p) <= r {
                visit(*id, e);
            }
        }
    };
    let window_cells = (2 * r_cells + 1).saturating_mul(2 * r_cells + 1);
    if window_cells as usize > grid.len() {
        for ((cx, cz), ids) in grid {
            if (*cx as i64 - center.0 as i64).abs() <= r_cells
                && (*cz as i64 - center.1 as i64).abs() <= r_cells
            {
                visit_cell(ids);
            }
        }
    } else {
        for dx in -(r_cells as i32)..=(r_cells as i32) {
            for dz in -(r_cells as i32)..=(r_cells as i32) {
                if let Some(ids) = grid.get(&(center.0 + dx, center.1 + dz)) {
                    visit_cell(ids);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager() -> InterestManager {
        InterestManager::new(InterestConfig::default())
    }

    fn vp(x: f64, z: f64, yaw: f64) -> Viewpoint {
        Viewpoint { position: Vec3::new(x, 0.0, z), yaw }
    }

    #[test]
    fn out_of_radius_entities_are_never_selected() {
        let mut im = manager();
        im.update_entity(AvatarId(1), Vec3::new(5.0, 0.0, 5.0), 0.0);
        im.update_entity(AvatarId(2), Vec3::new(500.0, 0.0, 0.0), 1.0);
        for _ in 0..10 {
            let sel = im.select(SubscriberId(0), vp(0.0, 0.0, 0.0), 10);
            assert_eq!(sel, vec![AvatarId(1)]);
        }
    }

    #[test]
    fn nearer_entities_win_under_budget_pressure() {
        let mut im = manager();
        for i in 0..20 {
            im.update_entity(AvatarId(i), Vec3::new(1.0 + i as f64, 0.0, 0.0), 0.0);
        }
        let sel = im.select(SubscriberId(0), vp(0.0, 0.0, 0.0), 3);
        // First tick: staleness ties (all new), so distance dominates.
        assert!(sel.contains(&AvatarId(0)));
        assert!(sel.contains(&AvatarId(1)));
    }

    #[test]
    fn speaker_importance_beats_distance() {
        let mut im = manager();
        im.update_entity(AvatarId(1), Vec3::new(2.0, 0.0, 0.0), 0.0); // near, silent
        im.update_entity(AvatarId(2), Vec3::new(15.0, 0.0, 0.0), 1.0); // far, speaking
                                                                       // Burn in staleness equally.
        im.select(SubscriberId(0), vp(0.0, 0.0, 0.0), 2);
        let sel = im.select(SubscriberId(0), vp(0.0, 0.0, 0.0), 1);
        assert_eq!(sel, vec![AvatarId(2)], "speaker should outrank a silent neighbour");
    }

    #[test]
    fn no_starvation_within_radius() {
        let mut im = manager();
        let n = 50;
        for i in 0..n {
            let angle = i as f64 / n as f64 * std::f64::consts::TAU;
            im.update_entity(
                AvatarId(i),
                Vec3::new(5.0 * angle.cos(), 0.0, 5.0 * angle.sin()),
                0.0,
            );
        }
        let budget = 5;
        let mut seen = std::collections::BTreeSet::new();
        // Within ~n/budget + slack ticks, every entity must be selected once.
        for _ in 0..(n as usize / budget + 5) {
            for &id in im.select(SubscriberId(0), vp(0.0, 0.0, 0.0), budget) {
                seen.insert(id);
            }
        }
        assert_eq!(seen.len(), n as usize, "starved entities: {}", n as usize - seen.len());
    }

    #[test]
    fn fov_boost_prefers_entities_in_view() {
        let cfg = InterestConfig { staleness_weight: 0.0, ..Default::default() };
        let mut im = InterestManager::new(cfg);
        // Equidistant: one straight ahead (+z), one behind.
        im.update_entity(AvatarId(1), Vec3::new(0.0, 0.0, 8.0), 0.0);
        im.update_entity(AvatarId(2), Vec3::new(0.0, 0.0, -8.0), 0.0);
        let sel = im.select(SubscriberId(0), vp(0.0, 0.0, 0.0), 1);
        assert_eq!(sel, vec![AvatarId(1)]);
    }

    #[test]
    fn moving_entities_change_cells_correctly() {
        let mut im = manager();
        im.update_entity(AvatarId(1), Vec3::new(0.0, 0.0, 0.0), 0.0);
        im.update_entity(AvatarId(1), Vec3::new(25.0, 0.0, 0.0), 0.0);
        assert_eq!(im.entity_count(), 1);
        // Near the new location, not the old one.
        assert_eq!(im.entities_near(Vec3::new(25.0, 0.0, 0.0)), vec![AvatarId(1)]);
        assert!(im.entities_near(Vec3::new(-20.0, 0.0, 0.0)).is_empty());
    }

    #[test]
    fn removal_cleans_grid_and_staleness() {
        let mut im = manager();
        im.update_entity(AvatarId(1), Vec3::ZERO, 0.0);
        im.select(SubscriberId(0), vp(0.0, 0.0, 0.0), 1);
        im.remove_entity(AvatarId(1));
        assert_eq!(im.entity_count(), 0);
        assert!(im.select(SubscriberId(0), vp(0.0, 0.0, 0.0), 5).is_empty());
        im.remove_subscriber(SubscriberId(0));
    }

    #[test]
    fn enormous_radii_stay_cheap() {
        // A 10 km radius ("send everything") must not scan radius² cells.
        let cfg = InterestConfig { radius: 10_000.0, ..Default::default() };
        let mut im = InterestManager::new(cfg);
        for i in 0..200 {
            im.update_entity(AvatarId(i), Vec3::new((i % 20) as f64, 0.0, (i / 20) as f64), 0.0);
        }
        let start = std::time::Instant::now();
        for tick in 0..100 {
            let sel = im.select(SubscriberId(0), vp(tick as f64 % 5.0, 0.0, 0.0), 16);
            assert_eq!(sel.len(), 16);
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "giant-radius selection took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn selections_are_deterministic() {
        let build = || {
            let mut im = manager();
            for i in 0..30 {
                im.update_entity(
                    AvatarId(i),
                    Vec3::new(i as f64 * 0.7, 0.0, (i % 5) as f64),
                    (i % 3) as f64 / 2.0,
                );
            }
            let mut all = Vec::new();
            for tick in 0..10 {
                all.push(im.select(SubscriberId(1), vp(tick as f64, 0.0, 0.0), 4).to_vec());
            }
            all
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn a_never_seen_entity_outranks_aged_ones() {
        let cfg = InterestConfig { fov_boost: 1.0, ..Default::default() };
        let mut im = InterestManager::new(cfg);
        let view = vp(0.0, 0.0, 0.0);
        // Budget 0 ages the candidates without resetting anyone.
        im.update_entity(AvatarId(1), Vec3::new(2.0, 0.0, 0.0), 0.0);
        im.select(SubscriberId(0), view, 0);
        im.update_entity(AvatarId(2), Vec3::new(1.0, 0.0, 0.0), 0.0);
        im.select(SubscriberId(0), view, 0);
        // 1 has aged one tick more (+0.25); 2 leads by more in distance
        // (0.5 against 0.2).
        assert_eq!(im.select(SubscriberId(0), view, 1), vec![AvatarId(2)]);
        // A newcomer scores as very stale, however far away.
        im.update_entity(AvatarId(3), Vec3::new(25.0, 0.0, 0.0), 0.0);
        assert_eq!(im.select(SubscriberId(0), view, 1), vec![AvatarId(3)]);
    }

    #[test]
    fn min_importance_filter_keeps_only_the_speaker() {
        let mut im = manager();
        im.update_entity(AvatarId(1), Vec3::new(1.0, 0.0, 1.0), 0.0);
        im.update_entity(AvatarId(2), Vec3::new(2.0, 0.0, 1.0), 0.0);
        im.update_entity(AvatarId(7), Vec3::new(6.0, 0.0, 6.0), 1.0); // speaker
        let sel = im.select_with_min_importance(SubscriberId(0), vp(0.0, 0.0, 0.0), 8, 0.5);
        assert_eq!(sel, vec![AvatarId(7)], "only the speaker passes the filter");
        let all = im.select(SubscriberId(0), vp(0.0, 0.0, 0.0), 8);
        assert_eq!(all.len(), 3, "unfiltered selection still sees everyone");
    }
}
