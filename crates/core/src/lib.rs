//! # mpl-runtime — entanglement-managed parallel functional runtime
//!
//! The primary contribution of *"Efficient Parallel Functional Programming
//! with Effects"* (Arora, Westrick, Acar; PLDI 2023), reproduced in Rust:
//! a fork-join runtime whose memory manager is a **hierarchy of heaps**
//! mirroring the task tree, extended with **entanglement management** so
//! that programs may use mutation (memory effects) without restriction:
//!
//! * every task allocates into its own leaf heap with no synchronization;
//! * mutable reads/writes pass through a constant-time barrier that
//!   detects *remote* objects (allocated by a concurrent task) and
//!   **pins** them at their entanglement level;
//! * pinned objects are shielded from the moving local collector
//!   ([`mpl_gc::lgc`]) and reclaimed by a concurrent non-moving collector
//!   ([`mpl_gc::cgc`]); joins unpin;
//! * disentangled objects never pay anything beyond the barrier check.
//!
//! # Quickstart
//!
//! ```
//! use mpl_runtime::{Runtime, RuntimeConfig, Value};
//!
//! let rt = Runtime::new(RuntimeConfig::managed());
//! let result = rt.run(|m| {
//!     // A shared mutable cell...
//!     let cell = m.alloc_ref(Value::Int(0));
//!     let c = m.root(cell);
//!     // ...updated by two parallel tasks (an effect!).
//!     m.fork(
//!         |m| {
//!             let cell = m.get(&c);
//!             let boxed = m.alloc_tuple(&[Value::Int(21)]);
//!             m.write_ref(cell, boxed);
//!             Value::Unit
//!         },
//!         |m| {
//!             let cell = m.get(&c);
//!             // May observe the sibling's allocation: an entangled read,
//!             // managed transparently by pinning.
//!             let _ = m.read_ref(cell);
//!             Value::Unit
//!         },
//!     );
//!     let cell = m.get(&c);
//!     let boxed = m.read_ref(cell);
//!     if let Value::Obj(_) = boxed { m.tuple_get(boxed, 0) } else { Value::Int(-1) }
//! });
//! assert_eq!(result, Value::Int(21));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod barrier;
pub mod cancel;
pub mod config;
pub mod mutator;
mod roots;
pub mod runtime;
mod telemetry;

pub use cancel::{CancelReason, CancelToken, Cancelled, RunError};
pub use config::{Mode, RuntimeConfig, WorkModel};
pub use mutator::{AllocError, Handle, Mutator, RootMark, ENTANGLEMENT_PANIC};
pub use runtime::{Runtime, TelemetryReport, TenantSession};

// Re-export the fault-injection plan types so harnesses configure
// failpoints without naming the leaf crate.
pub use mpl_fail::{FailAction, FailPlan, FailWhen, Failpoint};

// Re-export the value types users interact with.
pub use mpl_gc::GcPolicy;
pub use mpl_heap::{
    to_dot as heap_dot, BudgetSnapshot, ObjKind, ObjRef, StatsSnapshot, StoreConfig, TenantBudget,
    Value,
};
pub use mpl_sched::{simulate, sweep, Dag, SchedSnapshot, SimParams, SimResult};
