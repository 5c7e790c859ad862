//! Epoch-based block reclamation.
//!
//! A from-space block a local collection evacuated may still be read by a
//! thread that loaded a pointer into it before the collection repaired
//! the field it came from: a remote reader between its load and its pin,
//! whose pin then chases the forwarding word. A concurrent-collection
//! tracer can hold such a pointer too, taken from a root snapshot or an
//! SATB entry made before the owner wrote its roots back. So the owner
//! *retires* the blocks once its roots are written back, and they are
//! freed only when no such holder can be left
//! ([`crate::CgcState::retire`]):
//!
//! * every open mutator slot either sits in a safe window or has
//!   acknowledged an epoch at least the block's retirement epoch — an
//!   acknowledgement happens only at a poll point, where the task holds
//!   nothing but its own, its ancestors' and pinned objects; and
//! * the concurrent cycle that was in flight when the block was retired,
//!   if any, has finished.
//!
//! With one thread running, both hold at the retirement itself (the
//! collecting slot is in a safe window), so the blocks are freed by the
//! collection that evacuated them. The graveyard is only the list of
//! blocks still waiting; [`crate::CgcState::reclaim`] decides and frees.

use parking_lot::Mutex;

use mpl_heap::events::{self, EventKind};
use mpl_heap::Store;

/// A retired block and what it waits for.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Retired {
    pub(crate) block: u32,
    /// The epoch its retirement bumped the snapshot epoch to.
    pub(crate) epoch: u64,
    /// The cycle counter at its retirement (odd: a cycle was in flight).
    pub(crate) cycle: u64,
}

/// The blocks retired and not yet freed.
#[derive(Debug, Default)]
pub struct Graveyard {
    pending: Mutex<Vec<Retired>>,
}

impl Graveyard {
    /// Adds `store`'s `blocks`, retired at `epoch` during cycle count
    /// `cycle`, and returns how many blocks now wait.
    pub(crate) fn retire(&self, store: &Store, blocks: &[u32], epoch: u64, cycle: u64) -> usize {
        let mut pending = self.pending.lock();
        for &block in blocks {
            events::emit(store.serial(), EventKind::BlockRetire, block, 0, 0);
            pending.push(Retired {
                block,
                epoch,
                cycle,
            });
        }
        pending.len()
    }

    /// Number of blocks awaiting reclamation.
    pub fn pending(&self) -> usize {
        self.pending.lock().len()
    }

    /// Frees every waiting block `ripe` accepts and returns how many. The
    /// blocks leave the list under its lock and are freed after it.
    pub(crate) fn reap(&self, store: &Store, ripe: impl Fn(&Retired) -> bool) -> usize {
        let freed: Vec<u32> = {
            let mut pending = self.pending.lock();
            let mut freed = Vec::new();
            pending.retain(|r| {
                let go = ripe(r);
                if go {
                    freed.push(r.block);
                }
                !go
            });
            freed
        };
        if freed.is_empty() {
            return 0;
        }
        let _stall = crate::stall::guard(crate::stall::GRAVEYARD);
        for &id in &freed {
            store.blocks().free(id);
        }
        // The reap is itself a reclamation phase: with auditing on,
        // certify no live field was left pointing into a freed block.
        crate::audit::audit(store, crate::check::Phase::GraveyardReap);
        freed.len()
    }
}
