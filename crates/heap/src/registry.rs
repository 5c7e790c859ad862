//! The global block registry: an append-only table mapping block ids to
//! live size-class blocks, with a lock-free index of their owner heaps.
//!
//! Block ids are monotonically increasing and never reused, so a freed slot
//! (`None`) unambiguously means the block was reclaimed; touching it through
//! a stale `ObjRef` panics loudly, which turns use-after-free bugs into
//! immediate test failures.
//!
//! The owner index is the one other fact the registry keeps per block id:
//! its owner heap plus one, 0 for an id with no live block. The owner never
//! changes after construction, so only [`BlockRegistry::register`] and
//! [`BlockRegistry::free`] write it, under the table's write lock, and
//! readers take no lock: [`BlockRegistry::owner_of`] is a segment load and
//! an entry load (`segtable.rs`). Its two readers are the write barrier's
//! fast exit for a store between two blocks of the task's own leaf heap,
//! and the local collector's test of whether a from-space block was freed
//! under it by the concurrent sweep. A stale read (a block freed between
//! the load and the access) fails closed: to the slow tier, or to the
//! registry's own freed-block panic, never to a wrong fast path.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::block::Block;
use crate::segtable::SegTable;
use crate::stats::{Counter, StoreStats};

/// Append-only table of all blocks ever allocated.
#[derive(Debug)]
pub struct BlockRegistry {
    blocks: RwLock<Vec<Option<Arc<Block>>>>,
    /// Owner heap + 1 of each live block, 0 for a freed or unknown id.
    /// Written only under `blocks`' write lock (release stores); read
    /// without a lock (acquire loads).
    owners: SegTable<AtomicU32>,
    /// Occupied slots of `blocks`, kept by `register`/`free` under the
    /// write lock so `live` need not walk every id ever issued.
    live: AtomicUsize,
    stats: Arc<StoreStats>,
    /// The owning store's serial, for the events the registry emits.
    serial: u32,
}

impl Default for BlockRegistry {
    fn default() -> Self {
        BlockRegistry::new(Arc::new(StoreStats::new()), crate::events::NO_STORE)
    }
}

impl BlockRegistry {
    /// Creates an empty registry reporting block churn into `stats`, for
    /// the store with serial `serial`.
    pub fn new(stats: Arc<StoreStats>, serial: u32) -> BlockRegistry {
        BlockRegistry {
            blocks: RwLock::new(Vec::new()),
            owners: SegTable::default(),
            live: AtomicUsize::new(0),
            stats,
            serial,
        }
    }

    /// Allocates a fresh block id and registers an empty block of
    /// `capacity` words in size class `class`, owned by heap `owner`.
    pub fn register(&self, owner: u32, capacity: usize, class: usize) -> Arc<Block> {
        let mut table = self.blocks.write();
        let id = u32::try_from(table.len()).expect("block id overflow");
        let entry = owner
            .checked_add(1)
            .expect("a block's owner is a heap, not NO_HEAP");
        let block = Arc::new(Block::new(id, owner, capacity, class));
        self.owners.get_or_grow(id).store(entry, Ordering::Release);
        table.push(Some(Arc::clone(&block)));
        self.live.fetch_add(1, Ordering::Relaxed);
        self.stats.add(Counter::blocks_allocated, 1);
        block
    }

    /// Returns the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the block has been freed (a dangling
    /// reference).
    pub fn get(&self, id: u32) -> Arc<Block> {
        self.try_get(id)
            .unwrap_or_else(|| panic!("access to freed or unknown block {id}"))
    }

    /// Returns the block with the given id, or `None` if freed/unknown.
    pub fn try_get(&self, id: u32) -> Option<Arc<Block>> {
        self.blocks.read().get(id as usize).cloned().flatten()
    }

    /// The owner heap (uncanonicalized, as [`Block::owner`] holds it) of
    /// live block `id`, or `None` if freed or unknown. Takes no lock.
    #[inline]
    pub fn owner_of(&self, id: u32) -> Option<u32> {
        self.owners.get(id)?.load(Ordering::Acquire).checked_sub(1)
    }

    /// Whether block `id` is live: registered and not yet freed. Takes no
    /// lock.
    #[inline]
    pub fn is_live(&self, id: u32) -> bool {
        self.owner_of(id).is_some()
    }

    /// Frees a block, dropping the registry's reference and its owner
    /// entry. Outstanding `Arc`s keep the memory alive until they are
    /// released; subsequent `get` calls panic.
    pub fn free(&self, id: u32) {
        let mut table = self.blocks.write();
        if let Some(slot) = table.get_mut(id as usize) {
            if let Some(block) = slot.take() {
                self.live.fetch_sub(1, Ordering::Relaxed);
                self.owners.get_or_grow(id).store(0, Ordering::Release);
                self.stats.add(Counter::blocks_freed, 1);
                let kind = crate::events::EventKind::BlockFree;
                crate::events::emit(self.serial, kind, id, 0, block.owner());
            }
        }
    }

    /// Number of ids ever issued (including freed blocks).
    pub fn issued(&self) -> usize {
        self.blocks.read().len()
    }

    /// Number of blocks currently live: one load, no lock, no walk.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Total logical live bytes across all live blocks.
    pub fn total_live_bytes(&self) -> usize {
        self.blocks
            .read()
            .iter()
            .flatten()
            .map(|b| b.live_bytes())
            .sum()
    }

    /// Snapshot of all live blocks (for collector iteration).
    pub fn live_blocks(&self) -> Vec<Arc<Block>> {
        self.blocks.read().iter().flatten().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::ObjKind;
    use crate::value::Word;

    fn registry() -> (BlockRegistry, Arc<StoreStats>) {
        let stats = Arc::new(StoreStats::new());
        let reg = BlockRegistry::new(Arc::clone(&stats), crate::events::NO_STORE);
        (reg, stats)
    }

    #[test]
    fn register_and_get() {
        let (reg, stats) = registry();
        let b0 = reg.register(0, 16, 0);
        let b1 = reg.register(0, 16, 0);
        assert_eq!(b0.id(), 0);
        assert_eq!(b1.id(), 1);
        assert_eq!(reg.get(1).id(), 1);
        assert_eq!(reg.issued(), 2);
        assert_eq!(reg.live(), 2);
        assert_eq!(stats.snapshot().blocks_allocated, 2);
    }

    #[test]
    fn free_makes_access_panic_and_retracts_the_owner() {
        let (reg, stats) = registry();
        reg.register(3, 16, 0);
        assert_eq!(reg.owner_of(0), Some(3));
        reg.free(0);
        assert_eq!(reg.live(), 0);
        assert!(reg.try_get(0).is_none());
        assert_eq!(reg.owner_of(0), None, "a freed block has no owner");
        assert!(!reg.is_live(0));
        assert_eq!(stats.snapshot().blocks_freed, 1);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.get(0)));
        assert!(res.is_err(), "freed block access must panic");
    }

    /// The owner index spans segments: ids in a later segment resolve,
    /// their neighbours and untouched segments read as absent.
    #[test]
    fn owner_lookup_across_segments() {
        let (reg, _) = registry();
        let far = 4096 * 3 + 17;
        for owner in 0..=far {
            reg.register(owner % 100, 2, 0);
        }
        assert_eq!(reg.owner_of(0), Some(0));
        assert_eq!(reg.owner_of(4095), Some(95));
        assert_eq!(reg.owner_of(4096), Some(96));
        assert_eq!(reg.owner_of(far), Some(far % 100));
        assert_eq!(reg.owner_of(far + 1), None, "never issued");
        assert_eq!(reg.owner_of(far * 2), None, "untouched segment");
    }

    /// Block ids are never reused, so a long-lived process walks past any
    /// fixed capacity: the 16 777 216th id once panicked ("beyond SFT
    /// capacity"). The index is a `SegTable`, which these ids reach
    /// without issuing 2^24 blocks.
    #[test]
    fn ids_past_two_to_the_24_resolve() {
        let reg = BlockRegistry::default();
        for id in [1 << 24, (1 << 24) + 4097] {
            assert_eq!(reg.owner_of(id), None);
            reg.owners.get_or_grow(id).store(7 + 1, Ordering::Release);
            assert_eq!(reg.owner_of(id), Some(7));
        }
        assert_eq!(reg.owner_of(u32::MAX), None, "the spine covers every id");
    }

    #[test]
    fn live_counts_registrations_minus_frees() {
        let (reg, _) = registry();
        for _ in 0..3 {
            reg.register(0, 16, 0);
        }
        reg.free(1);
        reg.free(1); // a second free of the same id is a no-op
        reg.free(7); // never issued
        assert_eq!(reg.live(), 2);
        assert_eq!(reg.live(), reg.live_blocks().len());
        assert_eq!(reg.issued(), 3);
        assert!(reg.is_live(0) && !reg.is_live(1) && reg.is_live(2));
        assert!(!reg.is_live(7));
    }

    #[test]
    fn total_live_bytes_sums() {
        let (reg, _) = registry();
        let b = reg.register(0, 16, 0);
        crate::block::alloc_once(&b, ObjKind::Tuple, &[Word::UNIT; 2]).unwrap();
        assert_eq!(reg.total_live_bytes(), b.live_bytes());
        assert!(reg.total_live_bytes() > 0);
    }

    #[test]
    fn live_blocks_snapshot() {
        let (reg, _) = registry();
        reg.register(0, 16, 0);
        reg.register(1, 16, 0);
        reg.free(0);
        let live = reg.live_blocks();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].id(), 1);
    }
}
