//! Worker-side machinery of the work-stealing executor: stack jobs, the
//! per-thread worker context, the fork-join wait protocol, and the
//! background worker loop.
//!
//! # Safety architecture
//!
//! A forked branch is represented by a [`StackJob`] that lives in the
//! forking caller's stack frame; the deque holds a type-erased pointer
//! to it ([`JobRef`]). This is sound because [`WorkerCtx::join`] never
//! returns until the job's latch is set — either the owner popped the
//! job back and ran it inline, or a thief ran it and set the latch — so
//! the pointee outlives every access. The same argument erases the
//! closure's borrow lifetimes (branches borrow the runtime), which is
//! why the unsafe code is confined to this module behind the safe
//! [`WorkerCtx::join`] / [`try_join`] API.

use std::cell::{Cell, UnsafeCell};
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use crossbeam_deque::{Steal, Worker as Deque};
use crossbeam_utils::Backoff;

use crate::executor::{Executor, Shared};

/// How long an idle worker sleeps between work re-checks once its
/// exponential backoff is exhausted. Short enough that a missed wakeup
/// (the push/park race window — a push that finds no sleeper listed,
/// whether by `Shared::sleeping` reading zero or by the list being
/// empty, just before the worker lists itself) costs microseconds, long
/// enough that a quiescent pool burns no meaningful CPU. Public so the telemetry
/// sampler can convert park counts into an idle-time estimate.
pub const PARK_INTERVAL: Duration = Duration::from_micros(100);

// ---- jobs ----------------------------------------------------------------

/// Type-erased pointer to a [`StackJob`] living in some caller's stack
/// frame. `Send` because the pointee is `Sync`-by-construction (all
/// mutation goes through its `UnsafeCell`s under the once-only execute
/// protocol) and outlives the reference (see module docs).
pub(crate) struct JobRef {
    data: *const (),
    execute_fn: unsafe fn(*const (), bool),
}

unsafe impl Send for JobRef {}

impl JobRef {
    /// Identity of the underlying job (its address), used by the owner
    /// to recognize its own popped-back branch.
    pub(crate) fn id(&self) -> usize {
        self.data as usize
    }

    /// Runs the job, telling its closure whether it `migrated` — left
    /// the frame of the `join` that pushed it (see [`WorkerCtx::join`]).
    ///
    /// # Safety
    ///
    /// The underlying [`StackJob`] must still be alive and not yet
    /// executed. Both are guaranteed by the join protocol: each job is
    /// taken from a deque exactly once, and the pushing frame blocks in
    /// `join` until the latch is set.
    pub(crate) unsafe fn execute(self, migrated: bool) {
        (self.execute_fn)(self.data, migrated)
    }
}

/// Set exactly once when a job finishes; wakes the owner.
struct Latch {
    done: AtomicBool,
    owner: thread::Thread,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            done: AtomicBool::new(false),
            owner: thread::current(),
        }
    }

    fn probe(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    fn set(&self) {
        self.done.store(true, Ordering::Release);
        self.owner.unpark();
    }
}

/// A fork branch allocated in the forking caller's stack frame.
struct StackJob<F, R> {
    f: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<thread::Result<R>>>,
    latch: Latch,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce(bool) -> R + Send,
    R: Send,
{
    fn new(f: F) -> StackJob<F, R> {
        StackJob {
            f: UnsafeCell::new(Some(f)),
            result: UnsafeCell::new(None),
            latch: Latch::new(),
        }
    }

    /// # Safety
    ///
    /// The returned reference must be executed at most once, before
    /// `self` is dropped.
    unsafe fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: self as *const StackJob<F, R> as *const (),
            execute_fn: execute_stack_job::<F, R>,
        }
    }

    /// # Safety
    ///
    /// Only after the latch is set.
    unsafe fn take_result(&self) -> thread::Result<R> {
        (*self.result.get())
            .take()
            .expect("latch set without a stored result")
    }
}

unsafe fn execute_stack_job<F, R>(data: *const (), migrated: bool)
where
    F: FnOnce(bool) -> R + Send,
    R: Send,
{
    let job = &*(data as *const StackJob<F, R>);
    let f = (*job.f.get()).take().expect("stack job executed twice");
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(migrated)));
    *job.result.get() = Some(result);
    job.latch.set();
}

// ---- per-thread worker context -------------------------------------------

thread_local! {
    /// The worker context installed on this thread, if any. A raw
    /// pointer (rather than an owning cell) because `join` re-enters
    /// `with_current` from nested forks while the outer borrow is live.
    static CURRENT: Cell<*const WorkerCtx> = const { Cell::new(ptr::null()) };
}

/// One worker's scheduling state: its deque, its view of the pool, and
/// a private RNG for victim selection.
pub struct WorkerCtx {
    shared: Arc<Shared>,
    index: usize,
    deque: Deque<JobRef>,
    rng: Cell<u64>,
}

impl WorkerCtx {
    fn new(shared: Arc<Shared>, index: usize, deque: Deque<JobRef>) -> WorkerCtx {
        WorkerCtx {
            shared,
            index,
            deque,
            // Distinct odd seed per worker; quality hardly matters for
            // victim selection, independence across workers does.
            rng: Cell::new((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
        }
    }

    /// This worker's index in the pool (0 is the driver).
    pub fn index(&self) -> usize {
        self.index
    }

    fn next_rand(&self) -> u64 {
        // SplitMix64.
        let s = self.rng.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.rng.set(s);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn push(&self, job: JobRef) {
        self.deque.push(job);
        self.shared.stats.pushes.fetch_add(1, Ordering::Relaxed);
        self.shared.notify_one();
    }

    /// Takes work: own deque (LIFO), then the injector, then a randomly
    /// rotated sweep over the other workers' deques (FIFO steals).
    fn find_job(&self) -> Option<JobRef> {
        if let Some(job) = self.deque.pop() {
            return Some(job);
        }
        self.steal_job()
    }

    fn steal_job(&self) -> Option<JobRef> {
        mpl_fail::hit_hard("sched/steal");
        // Steal latency (first probe to job-in-hand) is only recorded for
        // *successful* steals; a sweep that comes up empty is idleness,
        // accounted by the park span instead.
        let span = mpl_obs::span_start();
        loop {
            match self.shared.injector.steal() {
                Steal::Success(job) => {
                    self.shared.stats.steals.fetch_add(1, Ordering::Relaxed);
                    mpl_obs::span_close(mpl_obs::Metric::SchedSteal, span);
                    return Some(job);
                }
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        let n = self.shared.stealers.len();
        if n <= 1 {
            return None;
        }
        let start = self.next_rand() as usize % n;
        for k in 0..n {
            let victim = (start + k) % n;
            if victim == self.index {
                continue;
            }
            loop {
                match self.shared.stealers[victim].steal() {
                    Steal::Success(job) => {
                        self.shared.stats.steals.fetch_add(1, Ordering::Relaxed);
                        mpl_obs::span_close(mpl_obs::Metric::SchedSteal, span);
                        return Some(job);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    /// Runs a job this worker took from a deque, as one timeline span
    /// followed by the job-finish hook. `migrated` is passed on to the
    /// job's closure (see [`WorkerCtx::join`]).
    ///
    /// # Safety
    ///
    /// As for [`JobRef::execute`]: `job` was taken from a deque (exactly
    /// once), so its pusher is still blocked in its own `join`.
    unsafe fn run(&self, job: JobRef, migrated: bool) {
        let span = mpl_obs::span_start();
        job.execute(migrated);
        mpl_obs::span_close(mpl_obs::Metric::SchedRun, span);
        run_job_finish_hook(self.index);
    }

    /// Help-first fork-join: pushes `b` onto this worker's deque, runs
    /// `a` inline, then resolves `b` — popping it back and running it
    /// inline if nobody stole it, otherwise working (own deque, then
    /// steals) while waiting for the thief's latch, parking briefly when
    /// the whole pool is out of work.
    ///
    /// Each closure is told whether it `migrated` (rayon's
    /// `join_context`): `false` when it runs directly inside this call's
    /// frame — `a` always, `b` when popped back — so everything its
    /// forker left on this native stack is exactly one frame below it;
    /// `true` when it was stolen, or popped by a *deeper* join waiting on
    /// this worker, and so runs on top of frames that are not its
    /// forker's.
    ///
    /// Panics in either branch propagate to the caller after *both*
    /// branches have finished, so no stack job outlives its frame.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce(bool) -> RA + Send,
        B: FnOnce(bool) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let job_b = StackJob::new(b);
        // Safety: resolved below before `job_b` drops — the loop does
        // not exit until the latch is set.
        let b_ref = unsafe { job_b.as_job_ref() };
        let b_id = b_ref.id();
        self.push(b_ref);

        let ra = panic::catch_unwind(AssertUnwindSafe(|| a(false)));

        let backoff = Backoff::new();
        while !job_b.latch.probe() {
            // Own deque first: if `b` is still here it is resolved on
            // the spot (the sequentialized-fork fast path). Anything
            // else found here is a shallower branch of our own spine,
            // safe to run inline while we wait — but it runs above
            // frames that are not its forker's, so it is migrated.
            if let Some(job) = self.deque.pop() {
                let popped_b = job.id() == b_id;
                if popped_b {
                    self.shared
                        .stats
                        .sequentialized
                        .fetch_add(1, Ordering::Relaxed);
                }
                // Safety: taken from a deque exactly once; pusher still
                // blocked in its own join.
                unsafe { self.run(job, !popped_b) };
                if popped_b {
                    break;
                }
                backoff.reset();
                continue;
            }
            // `b` was stolen: help rather than spin.
            if let Some(job) = self.steal_job() {
                // Safety: as above.
                unsafe { self.run(job, true) };
                backoff.reset();
                continue;
            }
            if backoff.is_completed() {
                mpl_fail::hit_hard("sched/park");
                self.shared.stats.parks.fetch_add(1, Ordering::Relaxed);
                let span = mpl_obs::span_start();
                thread::park_timeout(PARK_INTERVAL);
                mpl_obs::span_close(mpl_obs::Metric::SchedPark, span);
            } else {
                backoff.snooze();
            }
        }

        // Safety: latch observed set.
        let rb = unsafe { job_b.take_result() };
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(p), _) => panic::resume_unwind(p),
            (_, Err(p)) => panic::resume_unwind(p),
        }
    }
}

/// Runs `a` and `b` as a potentially parallel fork-join on the calling
/// thread's worker, or hands both closures back (`Err`) if the calling
/// thread is not a pool worker so the caller can run them sequentially
/// (passing `false`: nothing migrates without a pool). See
/// [`WorkerCtx::join`] for the `migrated` argument.
pub fn try_join<A, B, RA, RB>(a: A, b: B) -> Result<(RA, RB), (A, B)>
where
    A: FnOnce(bool) -> RA + Send,
    B: FnOnce(bool) -> RB + Send,
    RA: Send,
    RB: Send,
{
    CURRENT.with(|c| {
        let p = c.get();
        if p.is_null() {
            Err((a, b))
        } else {
            // Safety: the pointee is kept alive by `TlsGuard`/
            // `DriverGuard`, which clear the pointer before dropping it.
            Ok(unsafe { &*p }.join(a, b))
        }
    })
}

/// True if the calling thread currently has a worker context installed.
pub fn on_worker_thread() -> bool {
    CURRENT.with(|c| !c.get().is_null())
}

/// Hook invoked with the worker's pool index after each job the worker
/// finishes executing (both jobs run from `WorkerCtx::join`'s help loop
/// and jobs run from the background worker loop). The runtime uses it to
/// mark task boundaries in diagnostic traces — job completion is a
/// natural safepoint — without this crate depending on any of it. First
/// [`set_job_finish_hook`] wins; later calls are ignored.
static JOB_FINISH_HOOK: OnceLock<fn(usize)> = OnceLock::new();

/// Installs the process-wide job-finish hook (see [`JOB_FINISH_HOOK`]).
/// Idempotent for the same function; a second, different hook is
/// ignored.
pub fn set_job_finish_hook(hook: fn(usize)) {
    let _ = JOB_FINISH_HOOK.set(hook);
}

fn run_job_finish_hook(index: usize) {
    if let Some(hook) = JOB_FINISH_HOOK.get() {
        hook(index);
    }
}

/// Restores the previous TLS pointer on drop.
struct TlsGuard {
    prev: *const WorkerCtx,
}

impl TlsGuard {
    fn install(ctx: &WorkerCtx) -> TlsGuard {
        let prev = CURRENT.with(|c| c.replace(ctx as *const WorkerCtx));
        TlsGuard { prev }
    }
}

impl Drop for TlsGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Installs the calling thread as the pool's worker 0 (the driver) for
/// the guard's lifetime; returns the deque to the pool on drop.
pub struct DriverGuard<'e> {
    exec: &'e Executor,
    ctx: Option<Box<WorkerCtx>>,
    prev: *const WorkerCtx,
}

impl<'e> DriverGuard<'e> {
    pub(crate) fn install(exec: &'e Executor, deque: Deque<JobRef>) -> DriverGuard<'e> {
        // Worker 0's diagnostic rings and timeline track.
        mpl_obs::register_worker(0);
        let ctx = Box::new(WorkerCtx::new(Arc::clone(exec.shared()), 0, deque));
        let prev = CURRENT.with(|c| c.replace(&*ctx as *const WorkerCtx));
        DriverGuard {
            exec,
            ctx: Some(ctx),
            prev,
        }
    }
}

impl Drop for DriverGuard<'_> {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
        let ctx = self.ctx.take().expect("driver context dropped twice");
        self.exec.return_driver(ctx.deque);
    }
}

/// The background worker loop: drain available work, then park with
/// exponential backoff until pushed work (or shutdown) arrives.
pub(crate) fn worker_loop(shared: Arc<Shared>, index: usize, deque: Deque<JobRef>) {
    mpl_obs::register_worker(index);
    let ctx = WorkerCtx::new(shared, index, deque);
    let _tls = TlsGuard::install(&ctx);
    let backoff = Backoff::new();
    loop {
        if let Some(job) = ctx.find_job() {
            // Safety: taken from a deque exactly once; pusher is blocked
            // in its join until our execute sets the latch. Nothing runs
            // inline at the top of a worker's stack: every job migrated.
            unsafe { ctx.run(job, true) };
            backoff.reset();
            continue;
        }
        if ctx.shared.terminate.load(Ordering::Acquire) {
            break;
        }
        if backoff.is_completed() {
            mpl_fail::hit_hard("sched/park");
            ctx.shared.sleepers.lock().push(thread::current());
            ctx.shared.sleeping.fetch_add(1, Ordering::SeqCst);
            ctx.shared.stats.parks.fetch_add(1, Ordering::Relaxed);
            let span = mpl_obs::span_start();
            thread::park_timeout(PARK_INTERVAL);
            mpl_obs::span_close(mpl_obs::Metric::SchedPark, span);
            let me = thread::current().id();
            ctx.shared.sleeping.fetch_sub(1, Ordering::SeqCst);
            ctx.shared.sleepers.lock().retain(|t| t.id() != me);
        } else {
            backoff.snooze();
        }
    }
}
