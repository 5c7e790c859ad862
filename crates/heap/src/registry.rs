//! The global block registry: an append-only table mapping block ids to
//! live size-class blocks.
//!
//! Block ids are monotonically increasing and never reused, so a freed slot
//! (`None`) unambiguously means the block was reclaimed; touching it through
//! a stale `ObjRef` panics loudly, which turns use-after-free bugs into
//! immediate test failures. Freeing a block also retracts its SFT entry, so
//! the barrier's side-metadata classification fails closed on stale ids.

use std::sync::Arc;

use parking_lot::RwLock;

use crate::block::Block;
use crate::stats::{Counter, StoreStats};

/// Append-only table of all blocks ever allocated.
#[derive(Debug)]
pub struct BlockRegistry {
    blocks: RwLock<Vec<Option<Arc<Block>>>>,
    stats: Arc<StoreStats>,
}

impl Default for BlockRegistry {
    fn default() -> Self {
        BlockRegistry::new(Arc::new(StoreStats::new()))
    }
}

impl BlockRegistry {
    /// Creates an empty registry reporting block churn into `stats`.
    pub fn new(stats: Arc<StoreStats>) -> BlockRegistry {
        BlockRegistry {
            blocks: RwLock::new(Vec::new()),
            stats,
        }
    }

    /// Allocates a fresh block id and registers the block built by `make`.
    pub fn register(&self, make: impl FnOnce(u32) -> Block) -> Arc<Block> {
        let mut table = self.blocks.write();
        let id = u32::try_from(table.len()).expect("block id overflow");
        let block = Arc::new(make(id));
        table.push(Some(Arc::clone(&block)));
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

    /// Frees a block, dropping the registry's reference and retracting
    /// its SFT entry. Outstanding `Arc`s keep the memory alive until they
    /// are released; subsequent `get` calls panic.
    pub fn free(&self, id: u32) {
        let mut table = self.blocks.write();
        if let Some(slot) = table.get_mut(id as usize) {
            if let Some(block) = slot.take() {
                block.on_free();
                self.stats.add(Counter::blocks_freed, 1);
                crate::events::emit(crate::events::EventKind::BlockFree, id, 0, block.owner());
            }
        }
    }

    /// Number of ids ever issued (including freed blocks).
    pub fn issued(&self) -> usize {
        self.blocks.read().len()
    }

    /// Number of blocks currently live.
    pub fn live(&self) -> usize {
        self.blocks.read().iter().filter(|c| c.is_some()).count()
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
    use crate::sft::SftTable;
    use crate::value::Word;

    fn registry() -> (BlockRegistry, Arc<SftTable>, Arc<StoreStats>) {
        let stats = Arc::new(StoreStats::new());
        (
            BlockRegistry::new(Arc::clone(&stats)),
            Arc::new(SftTable::new()),
            stats,
        )
    }

    #[test]
    fn register_and_get() {
        let (reg, sft, stats) = registry();
        let b0 = reg.register(|id| Block::new(id, 0, 16, 0, Arc::clone(&sft)));
        let b1 = reg.register(|id| Block::new(id, 0, 16, 0, Arc::clone(&sft)));
        assert_eq!(b0.id(), 0);
        assert_eq!(b1.id(), 1);
        assert_eq!(reg.get(1).id(), 1);
        assert_eq!(reg.issued(), 2);
        assert_eq!(reg.live(), 2);
        assert_eq!(stats.snapshot().blocks_allocated, 2);
    }

    #[test]
    fn free_makes_access_panic_and_retracts_sft() {
        let (reg, sft, stats) = registry();
        reg.register(|id| Block::new(id, 0, 16, 0, Arc::clone(&sft)));
        assert!(sft.classify(0).is_some());
        reg.free(0);
        assert_eq!(reg.live(), 0);
        assert!(reg.try_get(0).is_none());
        assert!(sft.classify(0).is_none(), "freed block leaves the SFT");
        assert_eq!(stats.snapshot().blocks_freed, 1);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.get(0)));
        assert!(res.is_err(), "freed block access must panic");
    }

    #[test]
    fn total_live_bytes_sums() {
        let (reg, sft, _) = registry();
        let b = reg.register(|id| Block::new(id, 0, 16, 0, Arc::clone(&sft)));
        b.try_alloc(ObjKind::Tuple, &[Word::UNIT; 2]).unwrap();
        assert_eq!(reg.total_live_bytes(), b.live_bytes());
        assert!(reg.total_live_bytes() > 0);
    }

    #[test]
    fn live_blocks_snapshot() {
        let (reg, sft, _) = registry();
        reg.register(|id| Block::new(id, 0, 16, 0, Arc::clone(&sft)));
        reg.register(|id| Block::new(id, 1, 16, 0, Arc::clone(&sft)));
        reg.free(0);
        let live = reg.live_blocks();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].id(), 1);
    }
}
