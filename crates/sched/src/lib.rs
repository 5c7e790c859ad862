//! # mpl-sched — fork-join scheduling infrastructure
//!
//! Three pieces used by the entanglement-managed runtime:
//!
//! * [`dag`] — records the fork-join computation DAG with measured
//!   per-strand work;
//! * [`simsched`] — replays a recorded DAG under P-processor randomized
//!   work stealing in virtual time (the basis of the speedup experiments
//!   on hosts without many physical cores);
//! * [`executor`] / [`worker`] — the real work-stealing executor: a
//!   persistent worker pool with per-worker deques, randomized victim
//!   selection, and a help-first fork-join protocol.
//!
//! # Example
//!
//! Record a two-way fork with uneven work and replay it on 1 and 2
//! simulated processors:
//!
//! ```
//! use mpl_sched::{simulate, DagBuilder, SimParams};
//!
//! let (builder, start) = DagBuilder::new();
//! builder.add_work(start, 10);
//! let (l, r) = builder.fork(start);
//! builder.add_work(l, 100);
//! builder.add_work(r, 100);
//! let joined = builder.join(l, r);
//! builder.add_work(joined, 10);
//! let dag = builder.finish();
//!
//! let t1 = simulate(&dag, SimParams { procs: 1, steal_overhead: 0, seed: 1 });
//! let t2 = simulate(&dag, SimParams { procs: 2, steal_overhead: 0, seed: 1 });
//! assert_eq!(t1.time, 220);
//! assert_eq!(t2.time, 120, "the two branches overlap");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dag;
pub mod executor;
pub mod simsched;
pub mod worker;

pub use dag::{Dag, DagBuilder, StrandId};
pub use executor::{Executor, SchedSnapshot, SchedStats};
pub use simsched::{simulate, SimParams, SimResult};
pub use worker::{
    on_worker_thread, set_job_finish_hook, try_join, DriverGuard, WorkerCtx, PARK_INTERVAL,
};
