//! # mpl-heap — hierarchical heap substrate
//!
//! The memory substrate for a reproduction of *"Efficient Parallel
//! Functional Programming with Effects"* (Arora, Westrick, Acar; PLDI
//! 2023). It provides:
//!
//! * a tagged-word object model ([`value`], [`object`], [`header`]) with
//!   atomic headers carrying the **pin bit** and **entanglement level**;
//! * segregated size-class **blocks** with bump-pointer allocation,
//!   Immix-style line marks, and per-block side-metadata bitmaps for the
//!   GC bits ([`block`]), and a registry of them whose lock-free owner
//!   index maps any pointer to its heap ([`registry`]);
//! * the **heap hierarchy** mirroring the fork-join task tree: O(1) joins
//!   (a concurrent union-find), O(1) ancestry (fork-path labels), per-heap
//!   remembered sets and entangled-object indexes ([`heap`]);
//! * the [`store::Store`] facade combining all of the above, plus the
//!   measured cost metrics ([`stats`]).
//!
//! # Example
//!
//! ```
//! use mpl_heap::{ObjKind, Store, StoreConfig, Value};
//!
//! let store = Store::new(StoreConfig::default());
//! let root = store.new_root_heap();
//! let (left, right) = store.fork_heaps(root);
//!
//! // The "right" task allocates a mutable cell; a task on the left path
//! // that acquires it sees it as remote and pins it.
//! let cell = store.alloc_values(right, ObjKind::Ref, &[Value::Int(42)]);
//! let left_task = store.heaps().label(left);
//! assert!(!store.is_local(&left_task, cell));
//! let level = store.entanglement_level(&left_task, cell);
//! let (_, newly_pinned) = store.pin(cell, level);
//! assert!(newly_pinned);
//!
//! // The join makes the tasks non-concurrent and unpins the object.
//! let unpinned = store.join(root, [left, right]).unpinned;
//! assert_eq!(unpinned, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block;
pub mod budget;
pub mod events;
pub mod header;
pub mod heap;
pub mod inspect;
pub mod object;
pub mod registry;
mod segtable;
pub mod stats;
pub mod store;
pub mod value;
mod zeroed;

pub use block::{
    size_class, Block, Region, DEFAULT_BLOCK_WORDS, LINE_WORDS, NUM_SIZE_CLASSES,
    OBJECT_HEADER_WORDS, SIZE_CLASS_WORDS,
};
pub use budget::{BudgetSnapshot, TenantBudget};
pub use events::{Event, EventKind};
pub use header::{Header, ObjKind, NO_PIN_LEVEL};
pub use heap::{
    DebtCell, DebtRecord, HeapInfo, HeapState, HeapTable, Joined, Label, LazyHeap, Remset,
    RemsetEntry, NO_HEAP,
};
pub use inspect::{report, to_dot, HeapReport, StoreReport};
pub use object::{Object, PinOutcome, OBJECT_OVERHEAD_BYTES};
pub use registry::BlockRegistry;
pub use stats::{Counter, PendingStats, StatsSnapshot, StoreStats};
pub use store::{JoinOutcome, ObjHandle, Store, StoreConfig, FIRST_BLOCK_WORDS};
pub use value::{ObjRef, Value, Word, INT_MAX, INT_MIN};
