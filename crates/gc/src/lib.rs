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
//! * [`graveyard`] — quiescence-deferred block reclamation for the
//!   real-thread executor.
//!
//! # Example
//!
//! The canonical life cycle of an entangled object — pinned by a sibling,
//! shielded in place by the owner's local collection, reclaimed by the
//! concurrent collector once it dies:
//!
//! ```
//! use mpl_gc::{collect_entangled, collect_local, CgcState, Graveyard};
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
//! // shielded in place, into the heap's non-moving entangled space.
//! let graveyard = Graveyard::new();
//! let mut roots: [ObjRef; 0] = [];
//! collect_local(&s, left, &mut roots, &graveyard, true);
//! assert!(s.handle(cell).header().in_entangled_space());
//!
//! // The concurrent mark-sweep roots at the open mutator slots' stacks,
//! // read *after* the snapshot handshake: while a slot roots the cell it
//! // survives; once nothing references it, it is reclaimed.
//! let state = CgcState::new();
//! let slot = state.open_slot();
//! slot.roots.push(cell);
//! assert_eq!(collect_entangled(&s, &state).swept_objects, 0);
//! state.close_slot(&slot);
//! assert_eq!(collect_entangled(&s, &state).swept_objects, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod cgc;
pub mod graveyard;
pub mod lgc;
pub mod policy;
pub mod roots;
pub mod stall;
pub mod validate;

pub use audit::{audit_phase, check_dead_reachability, check_shield_closure, AuditCounters};
pub use cgc::{cgc_begin, cgc_step, collect_entangled, CgcOutcome, CgcState, MutatorSlot};
pub use graveyard::Graveyard;
pub use lgc::{collect_local, LgcOutcome};
pub use policy::GcPolicy;
pub use validate::{assert_heap_sound, dangling_fields};
