//! # mpl-bench-suite — the Parallel-ML-style benchmark suite
//!
//! Twenty benchmarks in the mold of the paper's evaluation (PBBS-derived
//! Parallel ML programs): thirteen **disentangled** (pure or
//! locally-effectful fork-join) and seven **entangled** (in-place effects
//! shared across concurrent tasks: concurrent hash tables, lock-free
//! stacks/queues, BFS parent-claiming, concurrent memoization, account
//! updates, concurrent union-find).
//!
//! Every benchmark implements [`Benchmark`]:
//!
//! * `run_mpl` — against the entanglement-managed runtime's [`Mutator`];
//! * `run_seq` — the same algorithm, single-threaded, on the barrier-free
//!   sequential baseline (`T_s` in the overhead tables);
//! * `run_native` — plain Rust (the C++/Go stand-in and the checksum
//!   oracle);
//! * `run_global` — on the shared-heap stop-the-world runtime, for the
//!   cross-runtime comparison benchmarks.
//!
//! All workloads are seeded and deterministic; each `run_*` returns a
//! checksum that must agree across every implementation (verified by each
//! module's tests and the integration suite).
//!
//! # Example
//!
//! ```
//! use mpl_runtime::{Runtime, RuntimeConfig, Value};
//!
//! let fib = mpl_bench_suite::by_name("fib").unwrap();
//! let n = fib.small_n();
//! let rt = Runtime::new(RuntimeConfig::managed());
//! let managed = rt.run(|m| Value::Int(fib.run_mpl(m, n)));
//! assert_eq!(managed, Value::Int(fib.run_native(n)), "checksums agree");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod mplutil;
pub mod util;

pub mod disentangled {
    //! Disentangled benchmarks: no cross-task memory effects.
    pub mod dmm;
    pub mod fib;
    pub mod grep;
    pub mod histogram;
    pub mod integrate;
    pub mod mcss;
    pub mod msort;
    pub mod nbody;
    pub mod nqueens;
    pub mod primes;
    pub mod quickhull;
    pub mod spmv;
    pub mod tokens;
}

pub mod entangled {
    //! Entangled benchmarks: concurrent tasks share mutable objects.
    pub mod accounts;
    pub mod bfs;
    pub mod conc_stack;
    pub mod dedup;
    pub mod memo;
    pub mod msqueue;
    pub mod unionfind;
}

use mpl_baselines::{GlobalMutator, SeqRuntime};
use mpl_runtime::{FailAction, FailPlan, FailWhen, Mutator, Runtime, RuntimeConfig, Value};

/// A suite benchmark, runnable on every runtime with a common checksum.
pub trait Benchmark: Sync {
    /// Short name (table row label).
    fn name(&self) -> &'static str;

    /// True if the benchmark entangles (uses cross-task memory effects).
    fn entangled(&self) -> bool;

    /// Default problem size for the experiment tables.
    fn default_n(&self) -> usize;

    /// A smaller size for quick verification runs.
    fn small_n(&self) -> usize {
        (self.default_n() / 16).max(4)
    }

    /// Scales the default size to `pct` percent of full scale. Linear by
    /// default; benchmarks whose cost is exponential in `n` (fib, memo,
    /// nqueens) override this with a logarithmic adjustment.
    fn scaled_n(&self, pct: usize) -> usize {
        (self.default_n() * pct / 100).max(self.small_n().min(self.default_n()))
    }

    /// Runs on the entanglement-managed runtime; returns the checksum.
    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64;

    /// Runs on the sequential baseline; returns the checksum.
    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64;

    /// Plain-Rust implementation (oracle + native comparison).
    fn run_native(&self, n: usize) -> i64;

    /// Runs on the global-heap runtime, if supported (comparison set).
    fn run_global(&self, _m: &mut GlobalMutator, _n: usize) -> Option<i64> {
        None
    }
}

/// All benchmarks, disentangled first.
pub fn all() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(disentangled::fib::Fib),
        Box::new(disentangled::msort::Msort),
        Box::new(disentangled::primes::Primes),
        Box::new(disentangled::tokens::Tokens),
        Box::new(disentangled::histogram::Histogram),
        Box::new(disentangled::quickhull::Quickhull),
        Box::new(disentangled::nqueens::Nqueens),
        Box::new(disentangled::mcss::Mcss),
        Box::new(disentangled::dmm::Dmm),
        Box::new(disentangled::integrate::Integrate),
        Box::new(disentangled::grep::Grep),
        Box::new(disentangled::spmv::Spmv),
        Box::new(disentangled::nbody::Nbody),
        Box::new(entangled::bfs::Bfs),
        Box::new(entangled::dedup::Dedup),
        Box::new(entangled::conc_stack::ConcStack),
        Box::new(entangled::accounts::Accounts),
        Box::new(entangled::memo::Memo),
        Box::new(entangled::msqueue::MsQueue),
        Box::new(entangled::unionfind::UnionFind),
    ]
}

/// Looks a benchmark up by name.
pub fn by_name(name: &str) -> Option<Box<dyn Benchmark>> {
    all().into_iter().find(|b| b.name() == name)
}

/// A failpoint schedule under which two workers steal: every block refill
/// sleeps 200 µs (the `heap/alloc` failpoint), long enough for the idle
/// worker to wake and steal the branch its forker left on the deque. Only
/// a stolen branch runs beside its sibling, in a heap of its own, so this
/// is what whole-program entanglement is measured and tested under.
pub fn steal_schedule() -> FailPlan {
    FailPlan::new(0).with("heap/alloc", FailAction::Delay(200_000), FailWhen::Always)
}

/// Runs `b` at `n` on fresh two-worker runtimes built from `config`, under
/// [`steal_schedule`], until `k` runs have stolen a task, handing each
/// such run's runtime and outcome (its checksum, or the panic it unwound
/// with) to `check`. A run that steals nothing runs every right branch
/// after its left sibling, in its heap, so nothing in it can entangle: it
/// must return the native checksum with no pin, and another run is made,
/// up to `4 k` in all.
///
/// # Panics
///
/// Panics if a run without a steal pins or misses the native checksum,
/// or if fewer than `k` of the `4 k` runs steal.
pub fn for_stolen_runs(
    b: &dyn Benchmark,
    n: usize,
    config: RuntimeConfig,
    k: usize,
    mut check: impl FnMut(&Runtime, std::thread::Result<i64>),
) {
    let native = b.run_native(n);
    let config = config
        .with_threads_exact(2)
        .with_failpoints(steal_schedule());
    let mut stolen = 0;
    for _ in 0..4 * k {
        let rt = Runtime::new(config);
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int()
        }));
        if rt.sched_stats().steals == 0 {
            assert_eq!(got.ok(), Some(native), "{}: a run with no steal", b.name());
            assert_eq!(rt.stats().pins, 0, "{}: a run with no steal", b.name());
            continue;
        }
        check(&rt, got);
        stolen += 1;
        if stolen == k {
            return;
        }
    }
    panic!(
        "{}: {stolen} of {} runs at two workers stole",
        b.name(),
        4 * k
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let benches = all();
        assert_eq!(benches.len(), 20);
        let names: std::collections::HashSet<_> = benches.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 20, "names must be unique");
        assert_eq!(benches.iter().filter(|b| b.entangled()).count(), 7);
        assert!(by_name("fib").is_some());
        assert!(by_name("nope").is_none());
    }
}
