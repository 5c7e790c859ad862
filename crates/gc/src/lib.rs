//! # mpl-gc — the two collectors of the entanglement-managed runtime
//!
//! Reproduces the memory-reclamation half of *"Efficient Parallel
//! Functional Programming with Effects"* (PLDI 2023):
//!
//! * [`lgc`] — the **local collector**: a moving (copying) collection of a
//!   single task's heap, run at the owner's safepoints with no
//!   synchronization. Pinned (entangled) objects and their reachable
//!   closure are shielded in place, so concurrent readers are never
//!   exposed to a moving object.
//! * [`cgc`] — the **concurrent collector**: a snapshot-at-the-beginning
//!   mark–sweep that reclaims *only* entangled-space objects. Disentangled
//!   programs never trigger it. Its [`CgcState`] is the one registry of
//!   **mutator slots** — one per thread of execution, each a lock-free
//!   [`roots`] stack plus the SATB buffer the snapshot protocol drains in
//!   place — and the root set is whatever those slots hold.
//! * [`policy`] — the triggers tying both to allocation volume and pinned
//!   footprint.
//! * [`graveyard`] — epoch-based block reclamation: a block a local
//!   collection emptied is freed once every open slot has moved past the
//!   epoch it was retired at ([`CgcState::retire`]).
//! * [`check`](mod@check) — the **heap checker**: one walk over the store,
//!   parameterised by the [`Phase`] it runs at (a collector phase
//!   boundary, or a quiescent runtime), that certifies no field dangles,
//!   no dead object is reachable, shields hold and pins were released.
//!   [`audit`](fn@audit) runs it at every phase boundary when auditing is on.
//!
//! # Example
//!
//! The canonical life cycle of an entangled object — pinned by a sibling,
//! shielded in place by the owner's local collection, reclaimed by the
//! concurrent collector once it dies:
//!
//! ```
//! use mpl_gc::{collect_entangled, collect_local, CgcState};
//! use mpl_heap::{ObjKind, ObjRef, Store, StoreConfig, Value};
//!
//! let s = Store::new(StoreConfig::default());
//! let root = s.new_root_heap();
//! let (left, _right) = s.fork_heaps(root);
//!
//! // A task on the right path acquires (and pins) the left task's cell.
//! let cell = s.alloc_values(left, ObjKind::Ref, &[Value::Int(7)]);
//! s.pin(cell, 0);
//!
//! // The owner's local collection cannot move a pinned object: it is
//! // shielded in place, into the heap's non-moving entangled space. The
//! // blocks it emptied are retired: with no slot running, freed at once.
//! let state = CgcState::new();
//! let mut roots: [ObjRef; 0] = [];
//! let out = collect_local(&s, left, &mut roots);
//! assert!(s.handle(cell).header().in_entangled_space());
//! state.retire(&s, &out.dead_blocks);
//! assert_eq!(state.retired_blocks(), 0);
//!
//! // The concurrent mark-sweep roots at the open mutator slots' stacks,
//! // read *after* the snapshot handshake: while a slot roots the cell it
//! // survives; once nothing references it, it is reclaimed.
//! let slot = state.open_slot();
//! slot.roots.push(cell);
//! assert_eq!(collect_entangled(&s, &state).swept_objects, 0);
//! state.close_slot(&s, &slot);
//! assert_eq!(collect_entangled(&s, &state).swept_objects, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod cgc;
pub mod check;
pub mod graveyard;
pub mod lgc;
pub mod policy;
pub mod roots;

pub use audit::{audit, AuditCounters};
pub use cgc::{
    cgc_begin, cgc_finish, collect_entangled, CgcOutcome, CgcState, MutatorSlot, REQ_CANCEL,
    REQ_CGC, REQ_HANDSHAKE,
};
pub use check::{check, Phase, Shield};
pub use lgc::{collect_local, LgcOutcome};
pub use policy::GcPolicy;
