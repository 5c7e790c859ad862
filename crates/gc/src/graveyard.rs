//! Deferred block reclamation.
//!
//! Under real threads, a block evacuated by the local collector may still
//! be referenced by a concurrent task that read a (soon-stale) pointer just
//! before the collection: the stale copy's forwarding word must remain
//! readable until every task has passed a safepoint. Evacuated blocks are
//! therefore *retired* to the graveyard and only freed at a quiescent
//! point. The sequential executor has no such races and frees immediately.

use parking_lot::Mutex;

use mpl_heap::events::{self, EventKind};
use mpl_heap::Store;

/// A set of blocks awaiting reclamation at the next quiescent point.
#[derive(Debug, Default)]
pub struct Graveyard {
    pending: Mutex<Vec<u32>>,
}

impl Graveyard {
    /// Creates an empty graveyard.
    pub fn new() -> Graveyard {
        Graveyard::default()
    }

    /// Retires a block for deferred freeing.
    pub fn retire(&self, block_id: u32) {
        events::emit(EventKind::BlockRetire, block_id, 0, 0);
        self.pending.lock().push(block_id);
    }

    /// Number of blocks awaiting reclamation.
    pub fn pending(&self) -> usize {
        self.pending.lock().len()
    }

    /// Frees all retired blocks. Call only at a global quiescent point
    /// (all tasks at safepoints, e.g. a top-level join).
    pub fn drain(&self, store: &Store) -> usize {
        let _stall = crate::stall::guard(crate::stall::GRAVEYARD);
        let ids = std::mem::take(&mut *self.pending.lock());
        let n = ids.len();
        for id in ids {
            store.blocks().free(id);
        }
        if n > 0 {
            // The reap is itself a reclamation phase: with auditing on,
            // certify no live field was left pointing into a freed block.
            crate::audit::audit(store, crate::check::Phase::GraveyardReap);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_heap::{ObjKind, StoreConfig};

    #[test]
    fn retire_then_drain_frees() {
        let store = Store::new(StoreConfig {
            block_words: 12,
            ..Default::default()
        });
        let h = store.new_root_heap();
        let r = store.alloc_values(h, ObjKind::Tuple, &[]);
        let g = Graveyard::new();
        g.retire(r.block());
        assert_eq!(g.pending(), 1);
        assert!(store.blocks().try_get(r.block()).is_some());
        assert_eq!(g.drain(&store), 1);
        assert_eq!(g.pending(), 0);
        assert!(store.blocks().try_get(r.block()).is_none());
    }
}
