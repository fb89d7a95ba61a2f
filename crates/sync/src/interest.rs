//! Interest management: who needs whose updates, at what priority.
//!
//! §3.3 names "the synchronization of a large number of entities within a
//! single digital space" as a primary challenge. The classic answer is an
//! area-of-interest filter: each subscriber receives, per tick, a bounded
//! budget of updates chosen by distance, field of view, speaker importance,
//! and staleness (staleness grows without bound, so every relevant entity is
//! eventually refreshed — no starvation).

use std::cmp::Ordering;
use std::collections::BTreeMap;

use metaclass_avatar::{AvatarId, Vec3};
use serde::{Deserialize, Serialize};

/// Identifier of a subscriber (a client endpoint receiving updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SubscriberId(pub u32);

/// Configuration of the interest filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterestConfig {
    /// Entities beyond this distance are never selected, metres.
    pub radius: f64,
}

impl Default for InterestConfig {
    fn default() -> Self {
        InterestConfig { radius: 30.0 }
    }
}

#[derive(Debug, Clone)]
struct Entity {
    id: AvatarId,
    position: Vec3,
    importance: f64,
    cell: (i32, i32),
}

/// Staleness of a (subscriber, entity) pair never scored: apart from every
/// count a pair can reach, `u32::MAX` included.
const NEVER_SEEN: u64 = u64::MAX;

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
    /// Each tracked entity's slot; only `update_entity` and `remove_entity`
    /// look ids up here.
    slots: BTreeMap<AvatarId, usize>,
    /// Entities by slot; `None` marks a free slot.
    entities: Vec<Option<Entity>>,
    /// Free slots, reused last-freed first.
    free: Vec<usize>,
    /// Occupied grid cells and the slots in them; a cell is dropped when its
    /// last occupant leaves.
    grid: BTreeMap<(i32, i32), Vec<usize>>,
    /// Per subscriber, ticks since each slot's entity was last selected, or
    /// [`NEVER_SEEN`]. Rows grow to the slot table on the subscriber's next
    /// selection; a freed slot's column is reset in every row.
    staleness: BTreeMap<SubscriberId, Vec<u64>>,
    /// Scored candidates `(score, id, slot)` of the selection in progress;
    /// kept for its capacity.
    scored: Vec<(f64, AvatarId, usize)>,
    /// The latest selection, which `select` lends to its caller.
    selected: Vec<AvatarId>,
    /// The same selection as slots.
    selected_slots: Vec<usize>,
}

/// Selection order: score descending, id ascending as tiebreak. Ids are
/// unique within a selection, so the order is total and the first `k` of a
/// full sort are the `k` a partial selection finds.
fn by_priority(a: &(f64, AvatarId, usize), b: &(f64, AvatarId, usize)) -> Ordering {
    b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal).then(a.1.cmp(&b.1))
}

impl InterestManager {
    /// Spatial-grid cell size, metres.
    pub const CELL_SIZE: f64 = 4.0;
    /// Half-angle of the subscriber's field of view, degrees; entities inside
    /// get a priority boost.
    pub const FOV_HALF_ANGLE_DEG: f64 = 55.0;
    /// Multiplier applied to in-FOV entities.
    pub const FOV_BOOST: f64 = 2.0;
    /// Weight of importance (speaker flag) in the score.
    pub const IMPORTANCE_WEIGHT: f64 = 4.0;
    /// Weight of staleness (ticks since last selected) in the score.
    pub const STALENESS_WEIGHT: f64 = 0.25;

    /// Creates an empty manager.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.radius` is not strictly positive.
    pub fn new(cfg: InterestConfig) -> Self {
        assert!(cfg.radius > 0.0, "radius must be positive");
        InterestManager {
            cfg,
            slots: BTreeMap::new(),
            entities: Vec::new(),
            free: Vec::new(),
            grid: BTreeMap::new(),
            staleness: BTreeMap::new(),
            scored: Vec::new(),
            selected: Vec::new(),
            selected_slots: Vec::new(),
        }
    }

    /// Inserts or moves an entity and returns its slot: a small index, stable
    /// until the entity is removed (after which a new entity may reuse it),
    /// that callers can key their own per-entity tables by. `importance` is
    /// `0.0` for a silent attendee up to `1.0` for the active speaker.
    pub fn update_entity(&mut self, id: AvatarId, position: Vec3, importance: f64) -> usize {
        let cell = cell_of(position);
        let importance = importance.clamp(0.0, 1.0);
        if let Some(&slot) = self.slots.get(&id) {
            let e = self.entities[slot].as_mut().expect("a mapped slot is occupied");
            if e.cell != cell {
                leave_cell(&mut self.grid, e.cell, slot);
                self.grid.entry(cell).or_default().push(slot);
                e.cell = cell;
            }
            e.position = position;
            e.importance = importance;
            return slot;
        }
        let entity = Some(Entity { id, position, importance, cell });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entities[slot] = entity;
                slot
            }
            None => {
                self.entities.push(entity);
                self.entities.len() - 1
            }
        };
        self.slots.insert(id, slot);
        self.grid.entry(cell).or_default().push(slot);
        slot
    }

    /// Removes an entity (participant left). Its slot's staleness is reset
    /// for every subscriber, so a new entity reusing the slot is never seen.
    pub fn remove_entity(&mut self, id: AvatarId) {
        let Some(slot) = self.slots.remove(&id) else {
            return;
        };
        let e = self.entities[slot].take().expect("a mapped slot is occupied");
        leave_cell(&mut self.grid, e.cell, slot);
        for row in self.staleness.values_mut() {
            if let Some(stale) = row.get_mut(slot) {
                *stale = NEVER_SEEN;
            }
        }
        self.free.push(slot);
    }

    /// Removes a subscriber's bookkeeping (client disconnected).
    pub fn remove_subscriber(&mut self, sub: SubscriberId) {
        self.staleness.remove(&sub);
    }

    /// The slot `id` occupies, if it is tracked.
    pub fn slot_of(&self, id: AvatarId) -> Option<usize> {
        self.slots.get(&id).copied()
    }

    /// The slots of the latest selection, in the order of the ids it
    /// returned.
    pub fn selected_slots(&self) -> &[usize] {
        &self.selected_slots
    }

    /// Selects up to `budget` entities for `sub` this tick, highest priority
    /// first, and updates staleness accounting. The subscriber's own avatar
    /// id (equal numeric id) is *not* excluded — exclude it at the call site
    /// if subscribers are also entities. The selection is lent from the
    /// manager's own buffer and stands until the next one, which
    /// [`selected_slots`](Self::selected_slots) also reads as slots.
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
        let row = self.staleness.entry(sub).or_default();
        if row.len() < self.entities.len() {
            row.resize(self.entities.len(), NEVER_SEEN);
        }
        let fov_cos = (Self::FOV_HALF_ANGLE_DEG.to_radians()).cos();
        let gaze = Vec3::new(view.yaw.sin(), 0.0, view.yaw.cos());

        let scored = &mut self.scored;
        scored.clear();
        for_each_near(self.cfg.radius, &self.entities, &self.grid, view.position, |slot, e| {
            if e.importance < min_importance {
                return;
            }
            let to = e.position - view.position;
            let dist = to.norm();
            let mut score = 1.0 / (1.0 + dist * dist);
            if let Some(dir) = Vec3::new(to.x, 0.0, to.z).normalized() {
                if dir.dot(gaze) >= fov_cos {
                    score *= Self::FOV_BOOST;
                }
            }
            // Importance is additive: the active speaker outranks even a
            // nearest neighbour, anywhere in the room.
            score += Self::IMPORTANCE_WEIGHT * e.importance;
            // Score with the staleness so far and age it for the next tick.
            // New entities score as very stale.
            let aged = &mut row[slot];
            let stale = if *aged == NEVER_SEEN {
                *aged = 1_001;
                1_000_000
            } else {
                let stale = *aged as u32;
                *aged = u64::from(stale.saturating_add(1));
                stale
            };
            score += Self::STALENESS_WEIGHT * stale as f64;
            scored.push((score, e.id, slot));
        });

        // Only the winners need ordering.
        let budget = budget.min(scored.len());
        if budget > 0 && budget < scored.len() {
            scored.select_nth_unstable_by(budget - 1, by_priority);
        }
        scored[..budget].sort_unstable_by(by_priority);
        self.selected.clear();
        self.selected_slots.clear();
        for &(_, id, slot) in &scored[..budget] {
            self.selected.push(id);
            self.selected_slots.push(slot);
            row[slot] = 0;
        }
        &self.selected
    }
}

fn cell_of(p: Vec3) -> (i32, i32) {
    let size = InterestManager::CELL_SIZE;
    ((p.x / size).floor() as i32, (p.z / size).floor() as i32)
}

/// Takes `slot` out of `cell`, dropping the cell once it is empty.
fn leave_cell(grid: &mut BTreeMap<(i32, i32), Vec<usize>>, cell: (i32, i32), slot: usize) {
    let occupants = grid.get_mut(&cell).expect("an entity's cell is occupied");
    let at = occupants.iter().position(|&s| s == slot).expect("an entity is in its cell");
    occupants.swap_remove(at);
    if occupants.is_empty() {
        grid.remove(&cell);
    }
}

/// Calls `visit` for every entity within `r` of `p`, walking the
/// grid cells around `p` — or the occupied cells, when the radius covers
/// more cells than exist, so enormous radii (an "everything is interesting"
/// policy) stay O(entities) instead of O(radius²).
fn for_each_near(
    r: f64,
    entities: &[Option<Entity>],
    grid: &BTreeMap<(i32, i32), Vec<usize>>,
    p: Vec3,
    mut visit: impl FnMut(usize, &Entity),
) {
    let r_cells = (r / InterestManager::CELL_SIZE).ceil() as i64;
    let center = cell_of(p);
    let mut visit_cell = |slots: &[usize]| {
        for &slot in slots {
            let e = entities[slot].as_ref().expect("a gridded slot is occupied");
            if e.position.distance(p) <= r {
                visit(slot, e);
            }
        }
    };
    let window_cells = (2 * r_cells + 1).saturating_mul(2 * r_cells + 1);
    if window_cells as usize > grid.len() {
        for ((cx, cz), slots) in grid {
            if (*cx as i64 - center.0 as i64).abs() <= r_cells
                && (*cz as i64 - center.1 as i64).abs() <= r_cells
            {
                visit_cell(slots);
            }
        }
    } else {
        for dx in -(r_cells as i32)..=(r_cells as i32) {
            for dz in -(r_cells as i32)..=(r_cells as i32) {
                if let Some(slots) = grid.get(&(center.0 + dx, center.1 + dz)) {
                    visit_cell(slots);
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
        let mut im = manager();
        // Equidistant and both never seen: one straight ahead (+z), one behind.
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
        assert_eq!((im.slots.len(), im.grid.len()), (1, 1), "one entity in one cell");
        // Near the new location, not the old one.
        assert_eq!(im.select(SubscriberId(0), vp(25.0, 0.0, 0.0), 8), vec![AvatarId(1)]);
        assert!(im.select(SubscriberId(0), vp(-20.0, 0.0, 0.0), 8).is_empty());
    }

    #[test]
    fn removal_cleans_grid_and_staleness() {
        let mut im = manager();
        im.update_entity(AvatarId(1), Vec3::ZERO, 0.0);
        im.select(SubscriberId(0), vp(0.0, 0.0, 0.0), 1);
        im.remove_entity(AvatarId(1));
        assert!(im.slots.is_empty() && im.grid.is_empty());
        assert!(im.select(SubscriberId(0), vp(0.0, 0.0, 0.0), 5).is_empty());
        im.remove_subscriber(SubscriberId(0));
    }

    #[test]
    fn enormous_radii_stay_cheap() {
        // A 10 km radius ("send everything") must not scan radius² cells.
        let cfg = InterestConfig { radius: 10_000.0 };
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
        let mut im = manager();
        // Every entity sits on the x axis, outside the field of view.
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
    fn a_pair_aged_to_the_limit_is_not_a_pair_never_seen() {
        let mut im = manager();
        // Every entity sits on the x axis, outside the field of view.
        let (sub, view) = (SubscriberId(0), vp(0.0, 0.0, 0.0));
        let aged = im.update_entity(AvatarId(1), Vec3::new(2.0, 0.0, 0.0), 0.0);
        im.select(sub, view, 0);
        // Four billion ticks unselected, short-cut: the count saturates there.
        im.staleness.get_mut(&sub).expect("row made by the select")[aged] = u64::from(u32::MAX);
        let fresh = im.update_entity(AvatarId(2), Vec3::new(1.0, 0.0, 0.0), 0.0);
        // Budget 0: both are scored and aged, neither reset. Never seen
        // becomes 1 001; the limit stays the limit.
        im.select(sub, view, 0);
        let row = &im.staleness[&sub];
        assert_eq!((row[aged], row[fresh]), (u64::from(u32::MAX), 1_001));
        // The saturated pair outranks a nearer newcomer, which scores as
        // 1 000 000 ticks stale.
        im.update_entity(AvatarId(3), Vec3::new(0.5, 0.0, 0.0), 0.0);
        assert_eq!(im.select(sub, view, 1), vec![AvatarId(1)]);
    }

    #[test]
    fn a_walker_leaves_no_empty_cells_behind() {
        let mut im = manager();
        let cell = InterestManager::CELL_SIZE;
        for step in 0..50 {
            im.update_entity(AvatarId(1), Vec3::new(step as f64 * cell + 0.5, 0.0, 0.5), 0.0);
        }
        assert_eq!(im.grid.len(), 1, "one occupied cell for one avatar");
        im.remove_entity(AvatarId(1));
        assert!(im.grid.is_empty());
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
