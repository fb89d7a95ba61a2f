//! Storage for messages in flight.
//!
//! [`Context::send`](crate::Context::send) stores a payload in the sending
//! core's [`EnvSlab`] and hands the engine a `u32` index; ops and queue
//! entries carry that index. [`Remap`] re-indexes those entries when the
//! sharded engine moves them between slabs, and an [`Outbox`] carries
//! cross-shard deliveries, each with its own copy of the envelope.

use crate::node::NodeId;
use crate::time::SimTime;

/// A message in flight: its sender, wire size, send time and payload. The
/// destination rides on the queue entry
/// ([`EventKind::Deliver`](crate::sim::EventKind::Deliver)) or the outbox
/// entry, so one envelope can serve several destinations.
#[derive(Clone)]
pub(crate) struct Envelope<M> {
    /// Originating node.
    pub(crate) src: NodeId,
    /// Wire size used for serialization/queueing, in bytes.
    pub(crate) size_bytes: u32,
    /// Time the message was first offered to the network.
    pub(crate) sent_at: SimTime,
    /// Application payload.
    pub(crate) payload: M,
}

/// A slab entry: an envelope and the number of pending send ops and queue
/// entries that still name it.
struct Entry<M> {
    env: Envelope<M>,
    refs: u32,
}

/// Refcounted slab storage for in-flight [`Envelope`]s.
///
/// [`Context::send`](crate::Context::send) stores a payload here at call
/// time and hands the engine a `u32` index;
/// [`Context::send_all`](crate::Context::send_all) stores it once for every
/// destination. Ops and queue entries carry that index, which keeps
/// [`Op`](crate::node::Op) and [`EventKind`](crate::sim::EventKind) small,
/// fixed-size, and independent of the message type: the timer wheel moves
/// 24-byte payloads around while the (potentially fat) envelopes stay put.
/// Each delivery, drop or cross-shard copy releases one reference; the last
/// one moves the payload out and the earlier ones clone it. Freed slots are
/// recycled LIFO, so steady-state traffic performs no allocation once the
/// slab has grown to its high-water mark.
pub(crate) struct EnvSlab<M> {
    slots: Vec<Option<Entry<M>>>,
    free: Vec<u32>,
    live: u32,
    high_water: u32,
}

impl<M> EnvSlab<M> {
    pub(crate) fn new() -> Self {
        EnvSlab { slots: Vec::new(), free: Vec::new(), live: 0, high_water: 0 }
    }

    /// Stores `env` with one reference.
    pub(crate) fn insert(&mut self, env: Envelope<M>) -> u32 {
        self.insert_entry(Entry { env, refs: 1 })
    }

    /// Stores `entry` with the references it already holds.
    fn insert_entry(&mut self, entry: Entry<M>) -> u32 {
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        let entry = Some(entry);
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = entry;
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(entry);
                idx
            }
        }
    }

    fn entry(&mut self, idx: u32) -> &mut Entry<M> {
        self.slots[idx as usize].as_mut().expect("envelope already released")
    }

    /// The envelope at `idx`.
    pub(crate) fn get(&self, idx: u32) -> &Envelope<M> {
        &self.slots[idx as usize].as_ref().expect("envelope already released").env
    }

    /// Adds a reference to the envelope at `idx`.
    pub(crate) fn share(&mut self, idx: u32) {
        self.entry(idx).refs += 1;
    }

    /// Drops one reference, freeing the slot (and the payload) with the last.
    pub(crate) fn release(&mut self, idx: u32) {
        let entry = self.entry(idx);
        entry.refs -= 1;
        if entry.refs == 0 {
            self.remove(idx);
        }
    }

    /// Frees the slot at `idx` and returns its entry, references and all.
    fn remove(&mut self, idx: u32) -> Entry<M> {
        let entry = self.slots[idx as usize].take().expect("envelope already released");
        self.free.push(idx);
        self.live -= 1;
        entry
    }

    /// Number of envelopes currently stored.
    pub(crate) fn live(&self) -> u32 {
        self.live
    }

    /// Highest number of envelopes ever live at once.
    pub(crate) fn high_water(&self) -> u32 {
        self.high_water
    }

    /// Folds in another slab's high water (largest per-executor-lane
    /// population wins).
    pub(crate) fn raise_high_water(&mut self, hw: u32) {
        if hw > self.high_water {
            self.high_water = hw;
        }
    }

    /// Committed heap footprint of the slab's own storage in bytes.
    pub(crate) fn arena_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<Option<Entry<M>>>()
            + self.free.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

impl<M: Clone> EnvSlab<M> {
    /// Takes one reference as an owned envelope: the last reference moves
    /// it out of the slab, an earlier one clones it.
    pub(crate) fn take(&mut self, idx: u32) -> Envelope<M> {
        let entry = self.entry(idx);
        if entry.refs > 1 {
            entry.refs -= 1;
            entry.env.clone()
        } else {
            self.remove(idx).env
        }
    }
}

/// Maps slab indices of one slab to indices of others while queue entries
/// move between them (shard deal-out and reassembly), so entries that
/// shared an envelope before the move share one after it — one copy per
/// destination slab. The table is recycled: it keeps its capacity across
/// moves, so a move allocates only while the slabs still grow.
#[derive(Default)]
pub(crate) struct Remap {
    table: Vec<u32>,
    ways: usize,
}

impl Remap {
    const UNMAPPED: u32 = u32::MAX;

    /// Clears the table for moving references out of `from` into `ways`
    /// destination slabs.
    pub(crate) fn reset<M>(&mut self, from: &EnvSlab<M>, ways: usize) {
        self.ways = ways;
        self.table.clear();
        self.table.resize(from.slots.len() * ways, Self::UNMAPPED);
    }

    /// Moves one reference to `from`'s envelope `idx` into destination slab
    /// `way`, `to`, and returns its index there. With one way every
    /// reference goes to `to`, so the first to arrive moves the entry whole,
    /// with all its references, and later ones only look up its index. With
    /// several, the first reference to arrive in `to` takes a copy (the last
    /// one of `from` moves it), and later ones share that copy.
    pub(crate) fn move_ref<M: Clone>(
        &mut self,
        from: &mut EnvSlab<M>,
        idx: u32,
        way: usize,
        to: &mut EnvSlab<M>,
    ) -> u32 {
        let slot = &mut self.table[idx as usize * self.ways + way];
        if *slot == Self::UNMAPPED {
            *slot = if self.ways == 1 {
                to.insert_entry(from.remove(idx))
            } else {
                to.insert(from.take(idx))
            };
        } else if self.ways > 1 {
            to.share(*slot);
            from.release(idx);
        }
        *slot
    }

    /// Committed heap footprint of the table in bytes.
    pub(crate) fn arena_bytes(&self) -> u64 {
        (self.table.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// One shard-pair outbox: stamped cross-shard deliveries awaiting exchange,
/// each with its destination and its own copy of the envelope.
pub(crate) type Outbox<M> = Vec<(SimTime, u128, NodeId, Envelope<M>)>;

#[cfg(test)]
mod tests {
    use super::*;

    /// A payload that counts its clones.
    struct Counted(std::rc::Rc<std::cell::Cell<u32>>);
    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.set(self.0.get() + 1);
            Counted(std::rc::Rc::clone(&self.0))
        }
    }

    #[test]
    fn a_one_way_move_takes_the_whole_entry_without_cloning() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut from = EnvSlab::new();
        let env = Envelope {
            src: NodeId(0),
            size_bytes: 8,
            sent_at: SimTime::ZERO,
            payload: Counted(std::rc::Rc::clone(&clones)),
        };
        let idx = from.insert(env);
        from.share(idx);
        from.share(idx);
        let mut to = EnvSlab::new();
        let mut remap = Remap::default();
        remap.reset(&from, 1);
        let moved: Vec<u32> = (0..3).map(|_| remap.move_ref(&mut from, idx, 0, &mut to)).collect();
        assert_eq!(moved, vec![moved[0]; 3], "every reference maps to one entry");
        assert_eq!(to.live(), 1);
        assert_eq!(to.slots[moved[0] as usize].as_ref().unwrap().refs, 3);
        assert_eq!(from.live(), 0, "the source slab is left empty");
        assert_eq!(clones.get(), 0, "the payload was never cloned");
    }
}
