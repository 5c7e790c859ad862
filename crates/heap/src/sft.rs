//! The space-function table (SFT): a lock-free block → space map the
//! barrier fast tier classifies pointers through.
//!
//! Modeled on mmtk-core's `SFTMap`: a flat table indexed by block id
//! whose entries are written through whenever a block's owner heap or
//! entangled flag changes, so classifying an arbitrary `ObjRef` costs a
//! couple of dependent loads — **no registry read-lock, no `Arc` clone,
//! no heap-table query**. Block ids are dense (the registry issues them
//! monotonically), so the table is a `SegTable` (`segtable.rs`):
//! lock-free O(1) lookup over the whole `u32` id range.
//!
//! Entries are packed `u64`s:
//!
//! ```text
//! bit  63     PRESENT   — block is live (cleared when freed)
//! bit  62     ENTANGLED — block was retained by a local collection and
//!             is swept by the concurrent collector
//! bits 0..32  owner heap id (as written at allocation/merge; not
//!             canonicalized — exactly the same value `Block::owner`
//!             holds, which is what the barrier's leaf-identity check
//!             compares against)
//! ```
//!
//! The entry is advisory for *classification only*: a stale read (e.g. a
//! block freed between the load and the access) falls back to the slow
//! tier or the registry's own freed-block panic, never to a wrong fast
//! path — the fast tier only fires when the entry proves both sides
//! local, and locality is stable while the owning task runs.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::segtable::SegTable;

const PRESENT: u64 = 1 << 63;
const ENTANGLED: u64 = 1 << 62;
const OWNER_MASK: u64 = 0xFFFF_FFFF;

/// A decoded SFT entry for a live block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SftEntry {
    /// The block's owner heap id (uncanonicalized, as stored on the block).
    pub owner: u32,
    /// Whether the block has been retained into the entangled space.
    pub entangled: bool,
}

/// The block-classification table. One per [`crate::Store`].
#[derive(Debug, Default)]
pub struct SftTable {
    entries: SegTable<AtomicU64>,
}

impl SftTable {
    /// Creates an empty table (no segments materialized).
    pub fn new() -> SftTable {
        SftTable::default()
    }

    /// Publishes (or updates) the entry for a live block. Called by the
    /// block on construction and on every owner/entangled transition.
    pub fn publish(&self, id: u32, owner: u32, entangled: bool) {
        let bits = PRESENT | u64::from(owner) | if entangled { ENTANGLED } else { 0 };
        self.entries.get_or_grow(id).store(bits, Ordering::Release);
    }

    /// Clears the entry when the block is freed.
    pub fn retract(&self, id: u32) {
        if let Some(entry) = self.entries.get(id) {
            entry.store(0, Ordering::Release);
        }
    }

    /// Classifies a block id: `None` for unknown/freed blocks. The fast
    /// path the barrier takes: a segment load, an entry load.
    #[inline]
    pub fn classify(&self, id: u32) -> Option<SftEntry> {
        let bits = self.entries.get(id)?.load(Ordering::Acquire);
        if bits & PRESENT == 0 {
            return None;
        }
        Some(SftEntry {
            owner: (bits & OWNER_MASK) as u32,
            entangled: bits & ENTANGLED != 0,
        })
    }

    /// The owner heap of a live block, or `None` if freed/unknown.
    #[inline]
    pub fn owner_of(&self, id: u32) -> Option<u32> {
        self.classify(id).map(|e| e.owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_classify_retract() {
        let t = SftTable::new();
        assert_eq!(t.classify(7), None);
        t.publish(7, 3, false);
        assert_eq!(
            t.classify(7),
            Some(SftEntry {
                owner: 3,
                entangled: false
            })
        );
        t.publish(7, 3, true);
        assert!(t.classify(7).unwrap().entangled);
        t.retract(7);
        assert_eq!(t.classify(7), None);
    }

    #[test]
    fn cross_segment_ids() {
        let t = SftTable::new();
        let far = 4096 * 3 + 17;
        t.publish(far, 99, false);
        assert_eq!(t.owner_of(far), Some(99));
        assert_eq!(t.owner_of(far + 1), None);
        assert_eq!(t.owner_of(far * 2), None, "untouched segment");
    }

    /// Block ids are never reused, so a long-lived process walks past any
    /// fixed capacity: the 16 777 216th id used to panic ("beyond SFT
    /// capacity").
    #[test]
    fn ids_past_two_to_the_24_classify() {
        let t = SftTable::new();
        for id in [1 << 24, (1 << 24) + 4097] {
            assert_eq!(t.classify(id), None);
            t.publish(id, 7, true);
            assert_eq!(
                t.classify(id),
                Some(SftEntry {
                    owner: 7,
                    entangled: true
                })
            );
        }
        t.retract(1 << 24);
        assert_eq!(t.classify(1 << 24), None);
        assert_eq!(t.classify(u32::MAX), None, "the spine covers every id");
    }
}
