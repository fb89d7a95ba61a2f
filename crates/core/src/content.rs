//! Content democratization and privacy (§3.3).
//!
//! "The Metaverse encourages every participant to contribute content …
//! well-designed economics models are the keys to the sustainability of user
//! contributions that expect credits and rewards … we have to consider the
//! appropriateness of content overlays under the privacy-preserving
//! perspective." This module provides the classroom's content plane: an
//! append-only, hash-chained contribution ledger with credit accounting, a
//! visibility/privacy policy for content overlays, and a moderation queue.

use std::collections::BTreeMap;

use metaclass_avatar::AvatarId;
use metaclass_netsim::{Fnv1a, SimTime};
use serde::{Deserialize, Serialize};

/// What kind of artifact a participant contributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ContentKind {
    /// Slides or documents shown in the shared space.
    Slide,
    /// A 3D model (lab equipment, a student-built artifact).
    Model3d,
    /// A spatial annotation anchored in a classroom.
    Annotation,
    /// A recorded clip of a session segment.
    Recording,
    /// A "choose your own adventure" learner-driven activity (§3.1).
    LearnerActivity,
}

impl ContentKind {
    /// Credits awarded to the author when the item is approved. Richer
    /// artifacts earn more — the "economics model" sustaining contributions.
    pub fn credit_value(self) -> u32 {
        match self {
            ContentKind::Annotation => 1,
            ContentKind::Slide => 3,
            ContentKind::Recording => 4,
            ContentKind::Model3d => 8,
            ContentKind::LearnerActivity => 10,
        }
    }
}

/// Who may see a content overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Visibility {
    /// Anyone in the Metaverse, including guests.
    Public,
    /// Only enrolled participants of this class.
    ClassOnly,
    /// Only a specific breakout group.
    Group(u32),
    /// Only the author (drafts).
    Private,
}

/// A viewer's standing with respect to the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewerContext {
    /// The viewer's avatar.
    pub avatar: AvatarId,
    /// Whether the viewer is enrolled in this class (guests are not).
    pub enrolled: bool,
    /// The viewer's breakout group, if any.
    pub group: Option<u32>,
}

/// One contributed item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentItem {
    /// Ledger-assigned id.
    pub id: u64,
    /// The contributing participant.
    pub author: AvatarId,
    /// Artifact kind.
    pub kind: ContentKind,
    /// Visibility policy.
    pub visibility: Visibility,
    /// Payload size, bytes (for storage/bandwidth accounting).
    pub bytes: u64,
    /// Contribution time.
    pub created_at: SimTime,
    /// Hash of the previous ledger entry (chain integrity).
    pub prev_hash: u64,
    /// This entry's hash.
    pub hash: u64,
}

/// Whether the privacy policy lets `viewer` see `item`.
///
/// Recordings are special-cased: they capture *other people*, so even
/// `Public` recordings are limited to enrolled participants — the paper's
/// "appropriateness of content overlays under the privacy-preserving
/// perspective".
pub fn can_view(item: &ContentItem, viewer: &ViewerContext) -> bool {
    if viewer.avatar == item.author {
        return true;
    }
    let base = match item.visibility {
        Visibility::Public => true,
        Visibility::ClassOnly => viewer.enrolled,
        Visibility::Group(g) => viewer.group == Some(g),
        Visibility::Private => false,
    };
    if item.kind == ContentKind::Recording {
        base && viewer.enrolled
    } else {
        base
    }
}

/// Errors from ledger operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerError {
    /// The chain failed verification at the given entry index.
    CorruptChain {
        /// Index of the first bad entry.
        at: usize,
    },
    /// Unknown content id.
    UnknownItem {
        /// The id that was not found.
        id: u64,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::CorruptChain { at } => write!(f, "ledger chain corrupt at entry {at}"),
            LedgerError::UnknownItem { id } => write!(f, "unknown content item {id}"),
        }
    }
}

impl std::error::Error for LedgerError {}

fn entry_hash(prev: u64, author: AvatarId, kind: ContentKind, bytes: u64, at: SimTime) -> u64 {
    let mut h = Fnv1a::new();
    for v in [
        prev,
        author.0 as u64,
        kind.credit_value() as u64 ^ ((kind as u64) << 32),
        bytes,
        at.as_nanos(),
    ] {
        h.write_u64(v);
    }
    h.finish()
}

/// The class's append-only contribution ledger with credit accounting.
///
/// # Examples
///
/// ```
/// use metaclass_avatar::AvatarId;
/// use metaclass_core::{ContentKind, ContentLedger, Visibility};
/// use metaclass_netsim::SimTime;
///
/// let mut ledger = ContentLedger::new();
/// let id = ledger.contribute(
///     AvatarId(3),
///     ContentKind::Model3d,
///     Visibility::ClassOnly,
///     120_000,
///     SimTime::from_secs(60),
/// );
/// ledger.approve(id)?;
/// assert_eq!(ledger.credits_of(AvatarId(3)), 8);
/// assert!(ledger.verify().is_ok());
/// # Ok::<(), metaclass_core::LedgerError>(())
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ContentLedger {
    entries: Vec<ContentItem>,
    credits: BTreeMap<AvatarId, u32>,
    /// Items pending moderation, in submission order.
    pending: Vec<u64>,
    approved: BTreeMap<u64, bool>,
}

impl ContentLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a contribution (enters the moderation queue) and returns its
    /// content id.
    pub fn contribute(
        &mut self,
        author: AvatarId,
        kind: ContentKind,
        visibility: Visibility,
        bytes: u64,
        at: SimTime,
    ) -> u64 {
        let prev_hash = self.entries.last().map_or(0, |e| e.hash);
        let id = self.entries.len() as u64;
        let hash = entry_hash(prev_hash, author, kind, bytes, at);
        self.entries.push(ContentItem {
            id,
            author,
            kind,
            visibility,
            bytes,
            created_at: at,
            prev_hash,
            hash,
        });
        self.pending.push(id);
        id
    }

    /// Approves a pending item, crediting its author.
    ///
    /// # Errors
    ///
    /// [`LedgerError::UnknownItem`] for ids never contributed. Approving an
    /// already-moderated item is a no-op.
    pub fn approve(&mut self, id: u64) -> Result<(), LedgerError> {
        let item = self.entries.get(id as usize).ok_or(LedgerError::UnknownItem { id })?.clone();
        if self.approved.contains_key(&id) {
            return Ok(());
        }
        self.pending.retain(|p| *p != id);
        self.approved.insert(id, true);
        *self.credits.entry(item.author).or_insert(0) += item.kind.credit_value();
        Ok(())
    }

    /// Rejects a pending item (no credits; stays on the chain for audit).
    ///
    /// # Errors
    ///
    /// [`LedgerError::UnknownItem`] for ids never contributed.
    pub fn reject(&mut self, id: u64) -> Result<(), LedgerError> {
        if id as usize >= self.entries.len() {
            return Err(LedgerError::UnknownItem { id });
        }
        if self.approved.contains_key(&id) {
            return Ok(());
        }
        self.pending.retain(|p| *p != id);
        self.approved.insert(id, false);
        Ok(())
    }

    /// Items awaiting moderation, oldest first.
    pub fn pending(&self) -> &[u64] {
        &self.pending
    }

    /// Whether an item was approved (`None` while pending/unknown).
    pub fn is_approved(&self, id: u64) -> Option<bool> {
        self.approved.get(&id).copied()
    }

    /// The item by id.
    pub fn item(&self, id: u64) -> Option<&ContentItem> {
        self.entries.get(id as usize)
    }

    /// Total entries on the chain (including rejected ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accumulated credits of an author.
    pub fn credits_of(&self, author: AvatarId) -> u32 {
        self.credits.get(&author).copied().unwrap_or(0)
    }

    /// The credit leaderboard, highest first (ties by avatar id).
    pub fn leaderboard(&self) -> Vec<(AvatarId, u32)> {
        let mut v: Vec<(AvatarId, u32)> = self.credits.iter().map(|(a, c)| (*a, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Everything `viewer` is allowed to see, approved items only.
    pub fn visible_to(&self, viewer: &ViewerContext) -> Vec<&ContentItem> {
        self.entries
            .iter()
            .filter(|i| self.is_approved(i.id) == Some(true) && can_view(i, viewer))
            .collect()
    }

    /// Verifies the hash chain.
    ///
    /// # Errors
    ///
    /// [`LedgerError::CorruptChain`] at the first tampered entry.
    pub fn verify(&self) -> Result<(), LedgerError> {
        let mut prev = 0u64;
        for (i, e) in self.entries.iter().enumerate() {
            let expect = entry_hash(prev, e.author, e.kind, e.bytes, e.created_at);
            if e.prev_hash != prev || e.hash != expect {
                return Err(LedgerError::CorruptChain { at: i });
            }
            prev = e.hash;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn contributions_chain_and_verify() {
        let mut l = ContentLedger::new();
        for i in 0..10 {
            l.contribute(
                AvatarId(i % 3),
                ContentKind::Annotation,
                Visibility::Public,
                100,
                at(i as u64),
            );
        }
        assert_eq!(l.len(), 10);
        assert!(l.verify().is_ok());
    }

    #[test]
    fn tampering_is_detected() {
        let mut l = ContentLedger::new();
        l.contribute(AvatarId(1), ContentKind::Slide, Visibility::Public, 10, at(1));
        l.contribute(AvatarId(2), ContentKind::Slide, Visibility::Public, 10, at(2));
        l.entries[0].bytes = 999_999; // tamper
        assert_eq!(l.verify(), Err(LedgerError::CorruptChain { at: 0 }));
    }

    #[test]
    fn credits_flow_only_on_approval() {
        let mut l = ContentLedger::new();
        let a = l.contribute(AvatarId(1), ContentKind::Model3d, Visibility::ClassOnly, 1, at(1));
        let b = l.contribute(AvatarId(1), ContentKind::Slide, Visibility::ClassOnly, 1, at(2));
        assert_eq!(l.credits_of(AvatarId(1)), 0);
        assert_eq!(l.pending(), &[a, b]);
        l.approve(a).unwrap();
        l.reject(b).unwrap();
        assert_eq!(l.credits_of(AvatarId(1)), 8);
        assert_eq!(l.is_approved(a), Some(true));
        assert_eq!(l.is_approved(b), Some(false));
        assert!(l.pending().is_empty());
        // Double approval does not double-credit.
        l.approve(a).unwrap();
        assert_eq!(l.credits_of(AvatarId(1)), 8);
    }

    #[test]
    fn unknown_items_error() {
        let mut l = ContentLedger::new();
        assert_eq!(l.approve(7), Err(LedgerError::UnknownItem { id: 7 }));
        assert_eq!(l.reject(7), Err(LedgerError::UnknownItem { id: 7 }));
        assert!(l.approve(7).unwrap_err().to_string().contains("unknown"));
    }

    #[test]
    fn privacy_matrix() {
        let item = |kind, visibility| ContentItem {
            id: 0,
            author: AvatarId(1),
            kind,
            visibility,
            bytes: 0,
            created_at: at(0),
            prev_hash: 0,
            hash: 0,
        };
        let guest = ViewerContext { avatar: AvatarId(9), enrolled: false, group: None };
        let student = ViewerContext { avatar: AvatarId(8), enrolled: true, group: Some(2) };
        let author = ViewerContext { avatar: AvatarId(1), enrolled: true, group: None };

        // Public slide: everyone.
        assert!(can_view(&item(ContentKind::Slide, Visibility::Public), &guest));
        // Class-only: guests out.
        assert!(!can_view(&item(ContentKind::Slide, Visibility::ClassOnly), &guest));
        assert!(can_view(&item(ContentKind::Slide, Visibility::ClassOnly), &student));
        // Group: only the right group.
        assert!(can_view(&item(ContentKind::Annotation, Visibility::Group(2)), &student));
        assert!(!can_view(&item(ContentKind::Annotation, Visibility::Group(3)), &student));
        // Private: author only.
        assert!(can_view(&item(ContentKind::Slide, Visibility::Private), &author));
        assert!(!can_view(&item(ContentKind::Slide, Visibility::Private), &student));
        // Recordings never reach guests, even when marked public.
        assert!(!can_view(&item(ContentKind::Recording, Visibility::Public), &guest));
        assert!(can_view(&item(ContentKind::Recording, Visibility::Public), &student));
    }

    #[test]
    fn visible_to_respects_approval_and_policy() {
        let mut l = ContentLedger::new();
        let a = l.contribute(AvatarId(1), ContentKind::Slide, Visibility::Public, 1, at(1));
        let b = l.contribute(AvatarId(1), ContentKind::Slide, Visibility::Private, 1, at(2));
        let c = l.contribute(AvatarId(1), ContentKind::Slide, Visibility::Public, 1, at(3));
        l.approve(a).unwrap();
        l.approve(b).unwrap();
        // c stays pending.
        let student = ViewerContext { avatar: AvatarId(8), enrolled: true, group: None };
        let visible: Vec<u64> = l.visible_to(&student).iter().map(|i| i.id).collect();
        assert_eq!(visible, vec![a]);
        let _ = c;
    }

    #[test]
    fn leaderboard_orders_deterministically() {
        let mut l = ContentLedger::new();
        for (author, kind) in [
            (2u32, ContentKind::Model3d),
            (1, ContentKind::Slide),
            (1, ContentKind::Slide),
            (3, ContentKind::Annotation),
        ] {
            let id =
                l.contribute(AvatarId(author), kind, Visibility::Public, 1, at(id_seed(author)));
            l.approve(id).unwrap();
        }
        let lb = l.leaderboard();
        assert_eq!(lb[0], (AvatarId(2), 8));
        assert_eq!(lb[1], (AvatarId(1), 6));
        assert_eq!(lb[2], (AvatarId(3), 1));
    }

    fn id_seed(author: u32) -> u64 {
        author as u64
    }
}
