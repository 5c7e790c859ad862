//! # mpl-serve — multi-tenant session serving on the MPL runtime
//!
//! A long-running service layer over one persistent [`mpl_runtime::Runtime`]:
//! each **tenant** owns a per-tenant root heap with an attached
//! [`mpl_heap::TenantBudget`] and a set of persistent **sessions** (caches,
//! counters, feed structures rooted across requests); each **request** is a
//! fork/join DAG over that shared mutable state, with a disentangled or
//! entangled access profile selectable per tenant.
//!
//! The crate provides the three pieces the E12 experiment needs:
//!
//! * [`traffic`] — a *deterministic open-loop* traffic generator: seeded
//!   Poisson or uniform arrivals, a weighted request mix, and a schedule
//!   digest for same-seed/any-worker-count reproducibility checks.
//! * [`server`] — the dispatcher: admission control against per-tenant
//!   budgets (shed or retry-after-collection), per-request deadlines with
//!   seeded-jitter retry/backoff, per-tenant circuit breakers, a brownout
//!   ladder driven by timeout rate + census fragmentation + GC pause
//!   histograms, [`mpl_fail`] failpoints on the admit/shed paths, and
//!   per-request latency measured from the *scheduled* arrival (open
//!   loop: no coordinated omission).
//! * [`report`] — the SLO reporter: per-tenant p50/p99/p999 latency,
//!   goodput, shed counts, GC pause overlap from
//!   [`StatsSnapshot::delta`](mpl_heap::StatsSnapshot::delta), and the
//!   live-bytes slope from the runtime's telemetry sampler.
//!
//! ```
//! use mpl_runtime::{Runtime, RuntimeConfig};
//! use mpl_serve::{Server, TenantSpec, TrafficConfig};
//!
//! let rt = Runtime::new(RuntimeConfig::managed());
//! let mut server = Server::new(&rt, vec![TenantSpec::new("t0", 1 << 20)]);
//! let traffic = TrafficConfig {
//!     requests: 50,
//!     rate_hz: 5_000.0,
//!     ..TrafficConfig::default()
//! };
//! let rep = server.run(&traffic);
//! assert_eq!(rep.offered, 50);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;
pub mod server;
pub mod tenant;
pub mod traffic;
pub mod workload;

pub use report::{GcReport, ServerReport, TenantReport};
pub use server::{Brownout, Server};
pub use tenant::{Breaker, BreakerState, Tenant, TenantCounts, TenantSpec};
pub use traffic::{
    schedule, schedule_digest, Arrival, ArrivalProcess, RequestKind, RequestMix, SplitMix64,
    TrafficConfig,
};
pub use workload::{Profile, SessionState};
