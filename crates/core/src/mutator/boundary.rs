//! Per-task GC state and the boundary protocol that keeps it coherent.
//!
//! A [`TaskCtx`] is everything one task owns on the mutator/collector
//! seam — its lazily created heap, allocation and block caches, the
//! remembered-set write buffer, task-buffered counters and DAG work —
//! plus what it *borrows* from its forker (or its run) for as long as it
//! runs: the tenant budget, the cancel token, the DAG recording and the
//! [`MutatorSlot`] (root stack + SATB buffer) — its run's, its session's,
//! or its forker's, unless the scheduler migrated it (`mpl_gc::roots` has
//! the ownership rule). That
//! state crosses exactly five boundaries, and each boundary is one method
//! here — the only place its work happens (DESIGN.md "Task boundaries"
//! tabulates which component does what at which boundary):
//!
//! | boundary | method | who calls it |
//! |---|---|---|
//! | poll point | [`TaskCtx::poll`] | every allocation, both barrier slow tiers, branch entry |
//! | fork (until the join) | [`TaskCtx::suspend`] | [`Mutator::fork`] |
//! | concurrent-collection safepoint | [`TaskCtx::cgc_safepoint`] | allocation, joins, the pressure ladder |
//! | local collection | [`TaskCtx::collect_local`] | allocation, joins, the pressure ladder, run end |
//! | task end | [`TaskCtx::finish`] | `Drop` (normal return and every unwind) |
//!
//! [`TaskCtx::enter`] is the one constructor. The remembered-set buffer,
//! its dedup set and the session link are private to this module, so no
//! other file can flush or drop them. Nothing here registers anything:
//! slots are opened and closed by the run, the session and the steal
//! (`runtime/`, `Mutator::fork`), and whoever catches a task's outcome
//! pops its frame (`run_branch`, `run_root`).
//!
//! The task's allocation regions settle into their blocks at a refill
//! (`mutator/alloc.rs`), at `suspend`, before `collect_local` and at
//! `finish`: the points where the task lets go of them.
//!
//! A task's heap is a [`LazyHeap`]: a fork pushes no heap node, and a
//! task gets one at its first store-path refill, slow-tier barrier,
//! allocation barrier or local collection ([`TaskCtx::path`],
//! [`TaskCtx::materialise`]), or when a descendant gets one. Until then
//! its leaf is [`mpl_heap::NO_HEAP`], which owns no block, so the write
//! barrier's `owner == leaf` test sends it to the slow tier exactly as a
//! fresh, empty heap would.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mpl_gc::lgc::IdSet;
use mpl_gc::{MutatorSlot, REQ_CANCEL, REQ_CGC};
use mpl_heap::{
    Block, Counter, LazyHeap, ObjRef, PendingStats, Region, RemsetEntry, Value, NUM_SIZE_CLASSES,
};
use mpl_sched::{DagBuilder, StrandId};

use super::Mutator;
use crate::cancel::{CancelReason, CancelToken, Cancelled};
use crate::runtime::{Runtime, TenantSession};

/// Buffered remembered-set entries are published once the buffer reaches
/// this size, bounding the memory a write-heavy task can defer.
const REMSET_BUFFER_CAP: usize = 256;

/// `limit - used` as an allowance: zero when nothing is left, saturated
/// for an unlimited threshold.
fn room(limit: usize, used: usize) -> isize {
    isize::try_from(limit.saturating_sub(used)).unwrap_or(isize::MAX)
}

/// RAII collector-safe window on a mutator slot: while held, the
/// concurrent collector's snapshot handshake does not wait on the slot.
/// Held around every region where the task either blocks (fork branch
/// suspension on the pool, the collection gate) or runs for an unbounded
/// stretch without reaching a poll point (a local collection).
///
/// Soundness: every pre-window logged pointer is already in the slot's
/// SATB buffer, which the collector drains in place, and the exit re-acks
/// the current epoch; the wrapped regions perform no unlogged
/// entangled-pointer deletions (a branch body borrowing the slot resumes
/// it for as long as it runs, a migrated one mutates through its own, and
/// the collectors' own heap surgery is covered by the forwarding and
/// retirement arguments in [`TaskCtx::collect_local`]). Nor does a task
/// hold a pointer it loaded from another heap and has not yet pinned:
/// a window opens only where a poll could, so a slot in one holds back
/// no retired block (`mpl_gc::graveyard`).
/// Windows nest — the slot's safe-window depth is a counter, and a
/// slot nobody runs on rests at depth 1.
pub(crate) struct SafeWindow<'rt> {
    st: &'rt mpl_gc::CgcState,
    slot: &'rt MutatorSlot,
}

impl Drop for SafeWindow<'_> {
    fn drop(&mut self) {
        self.st.exit_safe(self.slot);
    }
}

/// How a task takes its slot over at [`TaskCtx::enter`] and leaves it at
/// [`TaskCtx::finish`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Handoff {
    /// Resumes a paused slot and pauses it again at the end: a root task,
    /// and every branch on the pool, whose forker may block on a stolen
    /// sibling and so waits paused.
    Paused,
    /// Takes the slot over running and leaves it running: a fork's
    /// branches with no pool, where the forker runs one after the other
    /// and never blocks, so the window close and reopen around each
    /// would buy nothing.
    Running,
}

/// Per-task execution state. See the module docs for the protocol.
///
/// `'rt` bounds everything the task borrows: the runtime, and what its
/// forker (suspended until the join) or its run lends it.
#[derive(Debug)]
pub(crate) struct TaskCtx<'rt> {
    pub(crate) rt: &'rt Runtime,
    /// The task's place in the heap tree; its heap and path exist once
    /// materialised (module docs). Also carries the tenant budget the
    /// heap is accounted against (`None` for unbudgeted tasks — the
    /// common case, which pays one branch). Borrowed: a fork's branches
    /// that run one after the other share one cell (`Mutator::fork`).
    pub(crate) heap: &'rt LazyHeap<'rt>,
    /// The slot this task runs on (borrowed — see the module docs), and
    /// where its frame starts on the slot's root stack: roots below
    /// `base` belong to suspended ancestors and are not this task's to
    /// release or to collect from. 0 for a root task, so a session's
    /// roots from earlier requests are its LGC roots. `shared_slot` is the
    /// same slot, for what must hold on to it (a [`super::Handle`], a
    /// branch's task context); `slot` saves the hot paths a load.
    pub(crate) slot: &'rt MutatorSlot,
    pub(crate) shared_slot: &'rt Arc<MutatorSlot>,
    pub(crate) base: usize,
    pub(crate) alloc_since: usize,
    pub(crate) dag: Option<&'rt DagBuilder>,
    pub(crate) strand: StrandId,
    pub(crate) work: u64,
    pub(crate) block_cache: [Option<(u32, Arc<Block>)>; 4],
    /// Per-size-class bump regions: the task's claim on its leaf heap's
    /// current allocation block of each class. A class is refilled alone
    /// when its region runs out; all are settled when the task lets go
    /// (module docs) and dropped at collections.
    pub(crate) alloc_cache: [Option<Region>; NUM_SIZE_CLASSES],
    /// Reused field staging buffer for the allocation slow path, so it
    /// never builds a per-object `Vec` (taken/restored around each use).
    pub(crate) scratch_vals: Vec<Value>,
    /// Task-buffered counters, flushed to the global
    /// [`mpl_heap::StoreStats`] at boundaries (forks, collections,
    /// safepoints — every refill is one — and task end) so the hot path
    /// pays no global atomics.
    pub(crate) pending: PendingStats,
    /// Size-proportional collection budget: collect once `alloc_since`
    /// exceeds `max(policy trigger, 2 × last survivors)`. Keeps total
    /// copying linear even when joins repeatedly merge surviving data.
    pub(crate) lgc_budget: usize,
    /// Bytes the allocation fast path may still hand out before an
    /// allocation must take the slow path and run the trigger checks: the
    /// least of the LGC debt left and, when configured, the room under
    /// the heap limit and the tenant budget (see [`TaskCtx::rearm`]).
    pub(crate) allowance: isize,
    /// Whether this task has ever acquired a remote (entangled) pointer.
    /// Every first acquisition flows through `pin_cached`, which sets
    /// this; once set, allocations scan their pointer fields and pin any
    /// remote target (the allocation barrier), because a raw remote
    /// pointer stored into a fresh local object creates a cross-heap
    /// edge no other barrier ever sees. Disentangled tasks never set it
    /// and keep the one-branch allocation fast path.
    pub(crate) saw_remote: bool,
    /// Mutator-private remembered-set write buffer: down-pointer entries
    /// recorded by the write barrier, published in batches by
    /// `flush_remset`. Entries only ever target heaps on this task's own
    /// path, which is why deferring publication to the task's own
    /// boundaries is sound (see `flush_remset`).
    remset_buf: Vec<(u32, RemsetEntry)>,
    /// Per-object dedup for the buffer: (dst heap, src, field) triples
    /// already buffered since the last flush. Cleared at every flush —
    /// a collection may drop a published entry (source died), so a
    /// later re-write of the same field must be able to re-insert it.
    remset_seen: IdSet<(u32, ObjRef, u32)>,
    /// Set for a tenant-session root task: the collection debt is
    /// restored from the session at `enter` and carried back at `finish`.
    session: Option<&'rt TenantSession>,
    /// How the task leaves its slot at `finish`.
    handoff: Handoff,
    /// Cooperative-cancellation token, the forker's (like the tenant
    /// budget) and checked by [`TaskCtx::poll`], so a tripped token
    /// unwinds within one poll interval. Runs always carry a per-run
    /// child of the runtime's root token.
    pub(crate) cancel: &'rt CancelToken,
}

impl<'rt> TaskCtx<'rt> {
    /// **Enter**: builds the state of a task at `heap`'s place in the
    /// tree, running on the `slot` it is handed: resumes the slot (unless
    /// its forker hands it over running) and opens a frame at `base` of
    /// its root stack — the bottom for a root task, which also restores
    /// its session's carried collection debt. `recording` is the DAG
    /// recording, if one is made, and the strand the task starts on.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn enter(
        rt: &'rt Runtime,
        slot: &'rt Arc<MutatorSlot>,
        handoff: Handoff,
        heap: &'rt LazyHeap<'rt>,
        base: usize,
        recording: Option<(&'rt DagBuilder, StrandId)>,
        cancel: &'rt CancelToken,
        session: Option<&'rt TenantSession>,
    ) -> TaskCtx<'rt> {
        let (dag, strand) = recording.unzip();
        let trigger = rt.config().policy.lgc_trigger_bytes;
        let (alloc_since, lgc_budget) = session.map_or((0, trigger), |s| {
            (
                s.alloc_debt.load(Ordering::Relaxed),
                s.lgc_budget.load(Ordering::Relaxed).max(trigger),
            )
        });
        if handoff == Handoff::Paused {
            rt.cgc_state().exit_safe(slot);
        }
        // A trip before this task's slot was open raised no bit on it,
        // and an armed deadline keeps its bit raised: polls read the
        // token only while the bit is up.
        if cancel.has_deadline() || cancel.poll().is_some() {
            slot.request(REQ_CANCEL);
        }
        let mut ctx = TaskCtx {
            rt,
            base,
            heap,
            slot,
            shared_slot: slot,
            alloc_since,
            dag,
            strand: strand.unwrap_or(StrandId(0)),
            work: 0,
            block_cache: [None, None, None, None],
            alloc_cache: std::array::from_fn(|_| None),
            scratch_vals: Vec::new(),
            pending: PendingStats::default(),
            lgc_budget,
            allowance: 0,
            saw_remote: false,
            remset_buf: Vec::new(),
            remset_seen: IdSet::default(),
            session,
            handoff,
            cancel,
        };
        ctx.rearm();
        ctx
    }

    /// The task's root-to-leaf heap path (canonical ids, indexed by
    /// depth), materialising its heap first if it has none.
    pub(crate) fn path(&self) -> &[u32] {
        self.heap.path(self.rt.store().heaps())
    }

    /// The task's heap id, materialising the heap first if need be.
    pub(crate) fn materialise(&self) -> u32 {
        let path = self.path();
        path[path.len() - 1]
    }

    /// **Poll**: one relaxed load of the slot's request word; nothing
    /// more unless a collector, a canceller or an armed deadline raised a
    /// bit there. Then it acknowledges a pending SATB snapshot handshake
    /// and checks the cancel token. If the token (or an ancestor's) has
    /// tripped, begins unwinding with a [`Cancelled`] payload; the unwind
    /// rides the exact path an `AllocError` takes — caught per branch,
    /// re-raised by the parent's join after heap merge and sibling-result
    /// release, caught at the top by `Runtime::try_run*` — and every task
    /// it crosses drops through [`TaskCtx::finish`]. (A pure compute loop
    /// with no allocation and no slow-tier access can still delay a
    /// handshake or a cancel — the same liveness caveat as MPL's
    /// safepoint scheme.)
    #[inline]
    pub(crate) fn poll(&self) {
        if self.slot.requests() != 0 {
            self.serve_requests();
        }
    }

    /// The poll's out-of-line half. A CGC request stays raised: only an
    /// allocation or a join, where the task's values are rooted, may run
    /// the collector. The cancel bit is lowered before the token is read,
    /// so a trip landing meanwhile raises it again — except under an armed
    /// deadline, which keeps it raised so every poll reads the clock, and
    /// after a trip, which keeps it raised for every task on the slot.
    #[cold]
    #[inline(never)]
    fn serve_requests(&self) {
        self.rt.cgc_state().poll_handshake(self.slot);
        if self.slot.requests() & REQ_CANCEL == 0 {
            return;
        }
        if !self.cancel.has_deadline() {
            self.slot.clear_requests(REQ_CANCEL);
        }
        if let Some(reason) = self.cancel.poll() {
            self.slot.request(REQ_CANCEL);
            self.unwind_cancelled(reason);
        }
    }

    /// Asks this task's next allocation or join to check whether the
    /// concurrent collector should run: the pin path calls this, because
    /// pinned-footprint growth happens on *reads*, which are not
    /// safepoints (callers may hold unrooted values across them).
    pub(crate) fn request_cgc_poll(&self) {
        if self.slot.requests() & REQ_CGC == 0 {
            self.slot.request(REQ_CGC);
        }
    }

    /// Recomputes [`TaskCtx::allowance`] from the collection debt and, when
    /// a heap limit or tenant budget is set, the room their gauges leave
    /// now. Called wherever one of those inputs moves — task entry, every
    /// counter flush (which moves the gauges), a local collection, a join
    /// and the end of every slow-path allocation. The fast path only ever
    /// spends it, so an allocation it lets through is one none of the
    /// checks would have stopped: `alloc_since + size` stays under the LGC
    /// budget, and `size` under the room each limit had at the last rearm.
    pub(crate) fn rearm(&mut self) {
        let mut allowance = room(self.lgc_budget, self.alloc_since);
        let store = self.rt.store();
        let limit = store.config().heap_limit;
        if limit != 0 {
            allowance = allowance.min(room(limit, store.stats().live_bytes()));
        }
        if let Some(b) = self.heap.budget().filter(|b| b.limit() != 0) {
            allowance = allowance.min(room(b.limit(), b.live_bytes()));
        }
        self.allowance = allowance;
    }

    /// Settles every allocation region into its block.
    fn settle_regions(&mut self) {
        for region in self.alloc_cache.iter_mut().flatten() {
            region.settle();
        }
    }

    #[cold]
    fn unwind_cancelled(&self, reason: CancelReason) -> ! {
        // One count per task that starts a cancellation unwind (the
        // root and each live branch of the cancelled tree).
        self.rt.store().stats().add(Counter::cancel_requested, 1);
        mpl_fail::hit_hard("cancel/unwind");
        std::panic::panic_any(Cancelled { reason });
    }

    /// **Suspend**: the task is about to fork and will not run (or poll)
    /// again until the join. A poll point first — a tripped tree stops
    /// spawning and unwinds here instead of fanning out doomed work —
    /// then everything buffered is published (allocation regions, DAG
    /// work, counters, and the remembered-set entries an ancestor's
    /// collection may need). On the pool (`pooled`) a safe window opens
    /// so a concurrent collector's snapshot handshake does not wait on a
    /// task that cannot ack; it closes (resume-at-join) when the returned
    /// guard drops. With no pool the forker never blocks and its branches
    /// take the slot over running ([`Handoff::Running`]).
    #[inline]
    pub(crate) fn suspend(&mut self, pooled: bool) -> Option<SafeWindow<'rt>> {
        self.poll();
        self.settle_regions();
        self.flush_work();
        self.flush_remset();
        self.debug_assert_flushed();
        pooled.then(|| self.safe_window())
    }

    /// **CGC safepoint**: gives the concurrent collector a chance to run
    /// — or, with `force`, blocks until a full cycle completes. Counters
    /// are published first so the gauges the trigger reads are current;
    /// `roots` (values the caller holds that nothing else reaches yet,
    /// e.g. join results) are rooted for the duration — CGC never moves
    /// objects, so they need no write-back; and the collection runs
    /// inside a safe window: if this thread wins
    /// the gate and begins a cycle, the snapshot handshake must not wait
    /// on this task's own slot (nor deadlock against another thread's
    /// handshake while this one blocks on the gate).
    pub(crate) fn cgc_safepoint(&mut self, roots: &[Value], force: bool) {
        if !force && self.slot.requests() & REQ_CGC != 0 {
            // The eligibility check below answers the request.
            self.slot.clear_requests(REQ_CGC);
        }
        self.flush_stats();
        let mark = self.slot.roots.len();
        for r in roots.iter().filter_map(|v| v.as_obj()) {
            self.slot.roots.push(r);
        }
        {
            let _safe = self.safe_window();
            if force {
                self.rt.force_cgc();
            } else {
                self.rt.maybe_cgc();
            }
        }
        self.slot.roots.truncate(mark);
    }

    /// **Local collection** of this task's leaf heap. This task's frame
    /// of the root stack plus `extra` (updated in place) are the roots —
    /// frames below it belong to suspended ancestors, whose roots point
    /// into their own heaps, not this leaf; buffered remembered-set
    /// entries targeting this task's own heaps are roots too, so they are
    /// published first, and the allocation regions settle and are dropped
    /// (the collection replaces or frees their blocks). Afterwards the
    /// collection debt restarts and the block cache is dropped.
    pub(crate) fn collect_local(&mut self, extra: &mut [Value]) {
        self.flush_stats();
        self.flush_remset();
        // The collection sums from-space's live bytes and replaces the
        // heap's allocation blocks: let go of the regions first.
        for mut region in self.alloc_cache.iter_mut().filter_map(Option::take) {
            region.settle();
        }
        // The collection can run for an unbounded stretch without
        // reaching a poll point: keep the slot safe throughout. Sound
        // for the same reason concurrent CGC marking is sound against
        // LGC at all — entangled-space objects are never moved or freed
        // locally, and a CGC tracer racing the move of a *local* object
        // resolves through forwarding (a block retired while a cycle is
        // in flight outlives the cycle).
        let _safe = self.safe_window();
        let rt = self.rt;
        // Snapshot this task's frame (owner read: nobody else pushes),
        // collect, then write the updated locations back with
        // atomic slot stores. A concurrent CGC root scan may interleave
        // and read a pre-collection reference; that is sound — the old
        // location forwards to the new one, and a block retired while
        // that cycle is in flight outlives it.
        let mut roots = self.slot.roots.snapshot(self.base);
        let nroots = roots.len();
        roots.extend(extra.iter().filter_map(|v| v.as_obj()));
        let out = mpl_gc::collect_local(rt.store(), self.materialise(), &mut roots);
        for (i, r) in roots[..nroots].iter().enumerate() {
            self.slot.roots.set(self.base + i, *r);
        }
        let mut moved = roots[nroots..].iter();
        for v in extra.iter_mut().filter(|v| v.as_obj().is_some()) {
            *v = Value::Obj(*moved.next().expect("one root per object value"));
        }
        // Retire the emptied blocks only now: a CGC root scan that starts
        // after the retirement reads the written-back roots, never a
        // from-space one. With no other slot running and no cycle in
        // flight, they are freed right here.
        rt.cgc_state().retire(rt.store(), &out.dead_blocks);
        self.alloc_since = 0;
        // Size-proportional budget: next collection once we allocate
        // about as much as survived this one. (Collection work is
        // deliberately NOT charged to the strand: in MPL, local
        // collections are distributed across otherwise idle processors,
        // so they do not serialize the computation the way charging them
        // to the recorded mutator strand would. Wall-clock measurements
        // still include the full collection cost.)
        let survivors = (out.copied_bytes + out.retained_entangled_bytes) as usize;
        self.lgc_budget = rt.config().policy.lgc_trigger_bytes.max(2 * survivors);
        self.rearm();
        self.block_cache = [None, None, None, None];
        self.debug_assert_flushed();
    }

    /// **Finish**: the task is over — normal return or any unwind
    /// (`panic!`, `AllocError`, `Cancelled`); [`Drop`] is the one caller.
    /// Publishes everything buffered (the allocation regions, whose
    /// blocks a join hands to the parent's heap; and the remembered-set
    /// entries, since an ancestor may resume and collect a heap they
    /// point into), hands the
    /// collection debt back to the session, and pauses the slot again
    /// (nobody polls it until the forker resumes or the next request
    /// enters — a running slot would stall the snapshot handshake) unless
    /// it stays running for the next task on it ([`Handoff::Running`]).
    /// The frame was popped before this, by whoever caught the task's
    /// outcome.
    fn finish(&mut self) {
        self.settle_regions();
        self.flush_work();
        self.flush_remset();
        if let Some(s) = self.session {
            // Even after a shed request: the garbage is still there.
            s.alloc_debt.store(self.alloc_since, Ordering::Relaxed);
            s.lgc_budget.store(self.lgc_budget, Ordering::Relaxed);
        }
        if self.handoff == Handoff::Paused {
            self.rt.cgc_state().enter_safe(self.slot);
        }
        self.debug_assert_flushed();
    }

    /// Boundary conformance: nothing buffered survives a boundary.
    fn debug_assert_flushed(&self) {
        debug_assert!(self.remset_buf.is_empty() && self.remset_seen.is_empty());
        debug_assert_eq!(self.pending, PendingStats::default());
    }

    fn safe_window(&self) -> SafeWindow<'rt> {
        let st = self.rt.cgc_state();
        st.enter_safe(self.slot);
        SafeWindow {
            st,
            slot: self.slot,
        }
    }

    fn flush_work(&mut self) {
        if let Some(dag) = self.dag {
            if self.work > 0 {
                dag.add_work(self.strand, self.work);
            }
        }
        self.work = 0;
        self.flush_stats();
    }

    fn flush_stats(&mut self) {
        // The barriers count every access and each slow-tier entry; the
        // fast tiers are the rest, so a fast access pays one increment.
        let p = &mut self.pending;
        p.barrier_read_fast = p.barrier_reads - p.barrier_read_slow;
        p.barrier_write_fast = p.barrier_writes - p.barrier_write_slow;
        // Tenant accounting rides the same batch the global gauge uses.
        if let Some(budget) = self.heap.budget() {
            budget.charge(self.pending.alloc_bytes as usize);
        }
        self.rt.store().stats().add_pending(&mut self.pending);
        self.rearm();
    }

    /// SATB deletion/pin log: records a pointer that must survive the
    /// current snapshot into the slot's buffer (no-op unless marking).
    #[inline]
    pub(crate) fn log_satb(&self, r: ObjRef) {
        self.rt.cgc_state().satb_log(self.slot, r);
    }

    /// Buffers a down-pointer remembered-set entry targeting `dst_heap`
    /// (a heap on this task's own path), deduplicating repeated writes
    /// of the same field. Publication happens at the next boundary, or
    /// here on capacity (which only bounds memory — publishing early is
    /// always sound).
    pub(crate) fn buffer_remset(&mut self, dst_heap: u32, entry: RemsetEntry) {
        if self.remset_seen.insert((dst_heap, entry.src, entry.field)) {
            self.remset_buf.push((dst_heap, entry));
            self.pending.remset_buffered += 1;
            if self.remset_buf.len() >= REMSET_BUFFER_CAP {
                self.flush_remset();
            }
        } else {
            self.pending.remset_dedup_hits += 1;
        }
    }

    /// Publishes the buffered remembered-set entries into their owning
    /// heaps (batched per destination: one heap-table acquisition and
    /// one remset lock per destination heap, instead of one of each per
    /// down-pointer write).
    ///
    /// Why flushing at suspend / collect_local / finish suffices: the
    /// write barrier only buffers an entry when both the source and the
    /// (deeper) target are **local** to this task, so every buffered
    /// entry targets a heap on this task's own root-to-leaf path. The
    /// collector that consumes a heap's remembered set is the LGC of
    /// that heap, which can only be run by the task whose path ends
    /// there — this task itself (`collect_local`), or an ancestor, and
    /// the tasks owning this task's ancestor heaps are suspended at
    /// their forks until this task has finished (`finish`) or is itself
    /// suspended below a published buffer (`suspend`).
    ///
    /// The dedup set is cleared here: a collection rebuilds remembered
    /// sets keeping only still-valid entries, so a field written again
    /// after a flush must be re-insertable.
    fn flush_remset(&mut self) {
        self.remset_seen.clear();
        if self.remset_buf.is_empty() {
            return;
        }
        let _span = mpl_obs::span_guard(mpl_obs::Metric::RemsetFlush);
        let mut buf = std::mem::take(&mut self.remset_buf);
        // Group by destination heap so each heap's lock is taken once.
        buf.sort_unstable_by_key(|(dst, _)| *dst);
        let store = self.rt.store();
        for group in buf.chunk_by(|a, b| a.0 == b.0) {
            let entries: Vec<RemsetEntry> = group.iter().map(|(_, e)| *e).collect();
            store.remember(group[0].0, &entries);
        }
        buf.clear();
        self.remset_buf = buf;
    }
}

impl Drop for TaskCtx<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Mutator<'_> {
    /// Publishes the task-buffered counters to the global
    /// [`mpl_heap::StoreStats`] now, instead of at the next boundary.
    /// Experiment harnesses call this before sampling
    /// [`Runtime::stats`] so per-tier deltas are exact.
    pub fn sync_stats(&mut self) {
        self.ctx.flush_stats();
    }

    /// Forces a local collection now (tests and experiments). `extra`
    /// values are treated as roots and updated.
    pub fn force_lgc(&mut self, extra: &mut [Value]) {
        self.ctx.collect_local(extra);
    }
}
