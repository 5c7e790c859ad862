//! A persistent work-stealing worker pool for the real-thread executor.
//!
//! An [`Executor`] owns `P - 1` long-lived worker threads (the thread that calls
//! `Runtime::run` acts as worker 0, the *driver*), each with a private
//! LIFO deque of pending fork branches. `fork(f, g)` pushes the right
//! branch onto the current worker's deque and runs the left branch
//! inline (*help-first*); idle workers steal the oldest branch from a
//! randomly chosen victim's deque. A branch that nobody stole is popped
//! back and run inline by its own worker, so an un-stolen fork costs two
//! deque operations instead of a thread spawn.
//!
//! The join protocol (in [`crate::worker`]) keeps the hierarchical-heap
//! discipline intact: branch *bodies* are closures supplied by the
//! runtime that build their own task context from their forker's,
//! suspended at the fork, so which OS thread executes a branch is
//! invisible to the heap hierarchy — where child heaps sit, where they
//! merge and entanglement pinning depend only on fork/join nesting, which
//! the latch-based join preserves exactly.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};

use crossbeam_deque::{Injector, Stealer, Worker as Deque};
use parking_lot::Mutex;

use crate::worker::{self, DriverGuard, JobRef};

/// Scheduler event counters, updated by workers with relaxed atomics.
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Branches pushed onto a worker deque by `fork`.
    pub pushes: AtomicU64,
    /// Branches taken from another worker's deque (or the injector).
    pub steals: AtomicU64,
    /// Pushed branches popped back un-stolen and run inline by the
    /// forking worker (the sequentialized-fork fast path).
    pub sequentialized: AtomicU64,
    /// Times a worker went to sleep after failing to find work.
    pub parks: AtomicU64,
    /// Times a push woke a sleeping worker.
    pub unparks: AtomicU64,
}

impl SchedStats {
    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> SchedSnapshot {
        SchedSnapshot {
            pushes: self.pushes.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            sequentialized: self.sequentialized.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            unparks: self.unparks.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`SchedStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedSnapshot {
    /// See [`SchedStats::pushes`].
    pub pushes: u64,
    /// See [`SchedStats::steals`].
    pub steals: u64,
    /// See [`SchedStats::sequentialized`].
    pub sequentialized: u64,
    /// See [`SchedStats::parks`].
    pub parks: u64,
    /// See [`SchedStats::unparks`].
    pub unparks: u64,
}

/// State shared by all workers of one pool.
pub(crate) struct Shared {
    /// Overflow queue for jobs pushed from threads that are not workers.
    pub(crate) injector: Injector<JobRef>,
    /// Steal endpoints, indexed by worker.
    pub(crate) stealers: Vec<Stealer<JobRef>>,
    /// Threads currently parked waiting for work.
    pub(crate) sleepers: Mutex<Vec<Thread>>,
    /// How many workers sit between listing themselves in `sleepers` and
    /// delisting: lets a push skip the list's lock when nobody sleeps.
    pub(crate) sleeping: AtomicUsize,
    /// Pool shutdown flag.
    pub(crate) terminate: AtomicBool,
    /// Event counters.
    pub(crate) stats: SchedStats,
}

impl Shared {
    /// Wakes one sleeping worker, if any (called after a push). A worker
    /// that lists itself just after the count is read misses this push —
    /// the window the list itself always had (it could be locked and
    /// found empty a moment too early); `PARK_INTERVAL` bounds the cost.
    pub(crate) fn notify_one(&self) {
        if self.sleeping.load(Ordering::SeqCst) == 0 {
            return;
        }
        let woken = self.sleepers.lock().pop();
        if let Some(t) = woken {
            self.stats.unparks.fetch_add(1, Ordering::Relaxed);
            t.unpark();
        }
    }

    fn notify_all(&self) {
        let mut sleepers = self.sleepers.lock();
        for t in sleepers.drain(..) {
            t.unpark();
        }
    }
}

/// A persistent pool of `workers` work-stealing workers (including the
/// driver slot occupied by the thread that runs the program).
pub struct Executor {
    shared: Arc<Shared>,
    /// Worker 0's deque, parked here between `Runtime::run` calls.
    driver: Mutex<Option<Deque<JobRef>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl Executor {
    /// Creates a pool with `workers` total workers: `workers - 1`
    /// background threads plus the driver slot.
    pub fn new(workers: usize) -> Executor {
        assert!(workers >= 1, "need at least one worker");
        let deques: Vec<Deque<JobRef>> = (0..workers).map(|_| Deque::new_lifo()).collect();
        let stealers = deques.iter().map(Deque::stealer).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            sleepers: Mutex::new(Vec::new()),
            sleeping: AtomicUsize::new(0),
            terminate: AtomicBool::new(false),
            stats: SchedStats::default(),
        });
        let mut deques = deques.into_iter();
        let driver = deques.next().expect("workers >= 1");
        let handles = deques
            .enumerate()
            .map(|(i, deque)| {
                let shared = Arc::clone(&shared);
                let index = i + 1;
                thread::Builder::new()
                    .name(format!("mpl-worker-{index}"))
                    .spawn(move || worker::worker_loop(shared, index, deque))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Executor {
            shared,
            driver: Mutex::new(Some(driver)),
            handles: Mutex::new(handles),
            workers,
        }
    }

    /// Total worker count (background threads + driver).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A snapshot of the scheduler counters.
    pub fn stats(&self) -> SchedSnapshot {
        self.shared.stats.snapshot()
    }

    /// Wakes every parked worker. The runtime's cancellation machinery
    /// installs this as the token-trip kick: the steal/park loops are
    /// cancellation poll points only in the sense that a woken worker
    /// immediately re-probes for work, so a trip shortens the park
    /// latency from a full park interval to one unpark — the branch
    /// bodies themselves unwind at their first in-task poll point.
    pub fn unpark_all(&self) {
        self.shared.notify_all();
    }

    /// Installs the calling thread as worker 0 until the guard drops.
    /// Returns `None` if another thread currently holds the driver slot
    /// (callers then fall back to sequential forks).
    pub fn install_driver(&self) -> Option<DriverGuard<'_>> {
        let deque = self.driver.lock().take()?;
        Some(DriverGuard::install(self, deque))
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    pub(crate) fn return_driver(&self, deque: Deque<JobRef>) {
        debug_assert!(
            deque.is_empty(),
            "driver deque must be drained before release"
        );
        *self.driver.lock() = Some(deque);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.terminate.store(true, Ordering::SeqCst);
        self.shared.notify_all();
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::try_join;

    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        match try_join(move |_| fib(n - 1), move |_| fib(n - 2)) {
            Ok((a, b)) => a + b,
            Err((a, b)) => a(false) + b(false),
        }
    }

    #[test]
    fn pool_starts_and_shuts_down() {
        let ex = Executor::new(4);
        assert_eq!(ex.workers(), 4);
        drop(ex);
    }

    #[test]
    fn join_off_pool_falls_back_to_sequential() {
        // No driver installed on this thread: try_join must hand the
        // closures back.
        assert!(try_join(|_| 1, |_| 2).is_err());
        assert_eq!(fib(10), 55);
    }

    #[test]
    fn driver_join_computes_and_counts() {
        let ex = Executor::new(4);
        let guard = ex.install_driver().expect("driver slot free");
        assert_eq!(fib(16), 987);
        drop(guard);
        let s = ex.stats();
        assert!(s.pushes > 0, "forks must hit the deque: {s:?}");
        assert_eq!(
            s.steals + s.sequentialized,
            s.pushes,
            "every push is either stolen or popped back: {s:?}"
        );
    }

    #[test]
    fn migrated_is_false_inline_and_true_for_a_stolen_job() {
        // One worker: nobody can steal, so both closures of every join —
        // nested ones included — run inside the frame that forked them.
        let ex = Executor::new(1);
        let guard = ex.install_driver().expect("driver slot free");
        let nested = |outer: bool| {
            let (l, r) = try_join(|m| m, |m| m).ok().expect("on the pool");
            outer || l || r
        };
        let (l, r) = try_join(nested, nested).ok().expect("on the pool");
        assert!(!l && !r, "nothing migrates on one worker");
        drop(guard);
        assert_eq!(ex.stats().steals, 0);

        // Two workers: the left branch holds the driver until the right
        // one has been stolen, so the right one must report the steal.
        let ex = Executor::new(2);
        let guard = ex.install_driver().expect("driver slot free");
        let stolen = AtomicBool::new(false);
        let (l, r) = try_join(
            |m| {
                while !stolen.load(Ordering::Acquire) {
                    thread::yield_now();
                }
                m
            },
            |m| {
                stolen.store(true, Ordering::Release);
                m
            },
        )
        .ok()
        .expect("on the pool");
        assert!(!l, "the left branch always runs inline");
        assert!(r, "a job another worker took is migrated");
        drop(guard);
        let s = ex.stats();
        assert_eq!((s.steals, s.sequentialized), (1, 0), "{s:?}");
    }

    #[test]
    fn driver_slot_is_exclusive_and_returns() {
        let ex = Executor::new(2);
        let g1 = ex.install_driver().expect("free");
        assert!(ex.install_driver().is_none(), "slot taken");
        drop(g1);
        assert!(ex.install_driver().is_some(), "slot returned");
    }

    #[test]
    fn stress_many_forks_across_runs() {
        let ex = Executor::new(8);
        for round in 0..5 {
            let guard = ex.install_driver().expect("driver slot free");
            assert_eq!(fib(14), 377, "round {round}");
            drop(guard);
        }
    }

    /// The GC's work-packet fan-out shape: recursive binary `try_join`
    /// splits over a shared slice of borrowed (non-`'static`) work
    /// items, with every leaf writing through a shared atomic. This is
    /// exactly how `mpl-gc` schedules trace/sweep packets, so the shape
    /// gets its own coverage here.
    #[test]
    fn recursive_borrowed_fanout_visits_every_item() {
        use std::sync::atomic::{AtomicU64, Ordering};

        fn fan(items: &[u64], sum: &AtomicU64) {
            if items.len() <= 1 {
                for &it in items {
                    sum.fetch_add(it, Ordering::Relaxed);
                }
                return;
            }
            let (l, r) = items.split_at(items.len() / 2);
            match try_join(|_| fan(l, sum), |_| fan(r, sum)) {
                Ok(_) => {}
                Err((a, b)) => {
                    a(false);
                    b(false);
                }
            }
        }

        let items: Vec<u64> = (1..=512).collect();
        let expect: u64 = items.iter().sum();
        // On-pool: packets are pushed/stolen across 4 workers.
        let ex = Executor::new(4);
        let guard = ex.install_driver().expect("driver slot free");
        let sum = AtomicU64::new(0);
        fan(&items, &sum);
        assert_eq!(sum.load(Ordering::Relaxed), expect);
        drop(guard);
        // Off-pool: the same fan-out degrades to a sequential walk.
        let sum = AtomicU64::new(0);
        fan(&items, &sum);
        assert_eq!(sum.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn panics_propagate_from_stolen_branch() {
        let ex = Executor::new(2);
        let guard = ex.install_driver().expect("driver slot free");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = try_join(
                |_| 1,
                |_| -> i32 {
                    panic!("branch panic");
                },
            );
        }));
        assert!(r.is_err(), "panic must cross the join");
        drop(guard);
        drop(ex);
    }

    /// Overwrites the stack below its caller with junk.
    #[inline(never)]
    fn scribble(seed: usize) -> usize {
        let mut junk = [0usize; 128];
        for (k, w) in junk.iter_mut().enumerate() {
            *w = seed ^ k ^ 0x5a5a_5a5a;
        }
        std::hint::black_box(&mut junk);
        junk[seed % 128]
    }

    /// A thief's latch set must read nothing of the job after its store:
    /// the owner returns from its join at once and reuses the frame. The
    /// failpoint holds the setter between the store and the wake-up while
    /// the owner scribbles over the frame the job lived in.
    #[test]
    fn a_latch_set_reads_nothing_of_a_popped_frame() {
        let plan = mpl_fail::FailPlan::new(1).with(
            "sched/latch",
            mpl_fail::FailAction::Delay(100_000),
            mpl_fail::FailWhen::OneIn(8),
        );
        let token = mpl_fail::install(&plan);
        let ex = Executor::new(4);
        let guard = ex.install_driver().expect("driver slot free");
        let mut acc = 0usize;
        for i in 0..20_000usize {
            let (a, b) = try_join(|_| i, |_| i + 1).ok().expect("on the pool");
            acc = acc.wrapping_add(scribble(a + b));
        }
        drop(guard);
        mpl_fail::uninstall(token);
        std::hint::black_box(acc);
        assert!(ex.stats().steals > 0, "no job was stolen");
    }
}
