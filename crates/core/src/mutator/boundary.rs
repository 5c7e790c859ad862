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
//! [`TaskCtx::enter`] is the one constructor. The remembered-set buffer
//! and its dedup set are private to this module, so no other file can
//! flush or drop them. Nothing here registers anything:
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
//! allocation barrier or local collection ([`TaskCtx::relate`],
//! [`TaskCtx::materialise`]), or when a descendant gets one: with it, its
//! fork-path [`mpl_heap::Label`], which the barriers relate heaps to.
//! Until then its leaf is [`mpl_heap::NO_HEAP`], which owns no block, so
//! the write barrier's `owner == leaf` test sends it to the slow tier
//! exactly as a fresh, empty heap would.
//!
//! The collection debt is the heap's, not the task's ([`DebtRecord`]):
//! `enter` continues the record its heap's last task left — an un-stolen
//! right branch its left sibling's, a session request the previous
//! request's — `finish` stores it back, and a join charges the
//! children's (see [`TaskCtx::join_debt`]).

use std::sync::Arc;

use mpl_gc::lgc::IdSet;
use mpl_gc::{MutatorSlot, REQ_CANCEL, REQ_CGC};
use mpl_heap::{
    Block, Counter, DebtRecord, LazyHeap, ObjRef, PendingStats, Region, RemsetEntry, Value,
    NUM_SIZE_CLASSES,
};
use mpl_sched::{DagBuilder, StrandId};

use super::Mutator;
use crate::cancel::{CancelReason, CancelToken, Cancelled};
use crate::runtime::Runtime;

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
    /// The task's place in the heap tree; its heap and label exist once
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
    /// The heap's collection debt record while this task runs in it is
    /// `alloc_since` (its debt), `kept`, and `siblings + survivors`.
    /// Collect once the debt reaches `lgc_budget`, [`DebtRecord::budget`]
    /// of the record: `max(policy trigger, 2 × (siblings + survivors))`,
    /// so every collection is paid for by at least twice what the
    /// collections feeding the heap kept.
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
    remset_buf: Vec<(u32, u16, RemsetEntry)>,
    /// Per-object dedup for the buffer: (dst heap, src, field) triples
    /// already buffered since the last flush. Cleared at every flush —
    /// a collection may drop a published entry (source died), so a
    /// later re-write of the same field must be able to re-insert it.
    remset_seen: IdSet<(u32, ObjRef, u32)>,
    /// What the heap's last collection kept, until a join above charges
    /// it ([`DebtRecord::kept`]). This and the next two are declared after
    /// the fields the allocation fast path touches: declared beside
    /// `lgc_budget`, they moved them and slowed a stream of short-lived
    /// tuples by about 8 %.
    kept: usize,
    /// The budget base the heap's earlier tasks left: a left sibling's,
    /// which this un-stolen right branch adds its own to, as the two
    /// branches of a fork hold their data side by side.
    siblings: usize,
    /// This task's own budget base: what the heap's last collection kept,
    /// or the most that one of this task's joins brought in, whichever is
    /// larger. A maximum, not a sum: what one join brings in may be dead
    /// by the next, so summing a loop's joins would raise the budget
    /// without bound while the garbage piled up.
    survivors: usize,
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
    /// its forker hands it over running), opens a frame at `base` of its
    /// root stack — the bottom for a root task — and continues the heap's
    /// collection debt record (empty in a fresh cell). `recording` is the
    /// DAG recording, if one is made, and the strand the task starts on.
    pub(crate) fn enter(
        rt: &'rt Runtime,
        slot: &'rt Arc<MutatorSlot>,
        handoff: Handoff,
        heap: &'rt LazyHeap<'rt>,
        base: usize,
        recording: Option<(&'rt DagBuilder, StrandId)>,
        cancel: &'rt CancelToken,
    ) -> TaskCtx<'rt> {
        let (dag, strand) = recording.unzip();
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
            alloc_since: 0,
            dag,
            strand: strand.unwrap_or(StrandId(0)),
            work: 0,
            block_cache: [None, None, None, None],
            alloc_cache: std::array::from_fn(|_| None),
            scratch_vals: Vec::new(),
            pending: PendingStats::default(),
            kept: 0,
            siblings: 0,
            survivors: 0,
            lgc_budget: 0,
            allowance: 0,
            saw_remote: false,
            remset_buf: Vec::new(),
            remset_seen: IdSet::default(),
            handoff,
            cancel,
        };
        let record = heap.debt.get();
        ctx.alloc_since = record.debt;
        ctx.kept = record.kept;
        // A root task continues its session's previous request as one
        // task would; a branch adds to what its left sibling left.
        if heap.depth() == 0 {
            ctx.survivors = record.survivors;
        } else {
            ctx.siblings = record.survivors;
        }
        ctx.rebudget();
        ctx
    }

    /// The collection debt record of the task's heap, as the task has
    /// carried it on.
    pub(crate) fn debt(&self) -> DebtRecord {
        DebtRecord {
            debt: self.alloc_since,
            kept: self.kept,
            survivors: self.siblings.saturating_add(self.survivors),
        }
    }

    /// Recomputes the collection budget from the debt record, and the
    /// allowance from both.
    fn rebudget(&mut self) {
        self.lgc_budget = self
            .debt()
            .budget(self.rt.config().policy.lgc_trigger_bytes);
        self.rearm();
    }

    /// A join's fold of the `children`'s debt records into this task's:
    /// each child's debt and what its last collection kept come due here
    /// ([`DebtRecord::due`]), and what they hold between them raises this
    /// task's budget base to at least its sum. So garbage made in the
    /// children, or kept by their collections and dead since, cannot dodge
    /// the collector because their heaps dissolved into this one; and
    /// data they kept is charged once, not again at every level it rises
    /// through.
    pub(crate) fn join_debt(&mut self, children: impl IntoIterator<Item = DebtRecord>) {
        let (mut due, mut held) = (0usize, 0usize);
        for child in children {
            due = due.saturating_add(child.due());
            held = held.saturating_add(child.survivors);
        }
        self.alloc_since = self.alloc_since.saturating_add(due);
        self.survivors = self.survivors.max(held);
        self.rebudget();
    }

    /// Counts `bytes` allocated right after a local collection as kept by
    /// it (see `Mutator::alloc_staged`).
    pub(crate) fn hold(&mut self, bytes: usize) {
        self.kept = self.kept.saturating_add(bytes);
        self.survivors = self.survivors.saturating_add(bytes);
        self.rebudget();
    }

    /// Relates heap `h` to this task ([`mpl_heap::HeapTable::relation`]),
    /// materialising the task's heap first if it has none.
    pub(crate) fn relate(&self, h: u32) -> (u32, u16, Option<u16>) {
        let heaps = self.rt.store().heaps();
        heaps.relation(&self.heap.heap(heaps).1, h)
    }

    /// The task's heap id, materialising the heap first if need be.
    pub(crate) fn materialise(&self) -> u32 {
        self.heap.heap(self.rt.store().heaps()).0
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
    /// heap's debt restarts at zero, what this collection kept is its
    /// `kept` and its budget base, and the block cache is dropped.
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
        // Size-proportional budget: the next collection comes once the
        // heap's debt reaches twice what survived this one. (Collection
        // work is deliberately NOT charged to the strand: in MPL, local
        // collections are distributed across otherwise idle processors,
        // so they do not serialize the computation the way charging them
        // to the recorded mutator strand would. Wall-clock measurements
        // still include the full collection cost.)
        self.alloc_since = 0;
        self.kept = (out.copied_bytes + out.retained_entangled_bytes) as usize;
        self.siblings = 0;
        self.survivors = self.kept;
        self.rebudget();
        self.block_cache = [None, None, None, None];
        self.debug_assert_flushed();
    }

    /// **Finish**: the task is over — normal return or any unwind
    /// (`panic!`, `AllocError`, `Cancelled`); [`Drop`] is the one caller.
    /// Publishes everything buffered (the allocation regions, whose
    /// blocks a join hands to the parent's heap; and the remembered-set
    /// entries, since an ancestor may resume and collect a heap they
    /// point into), stores the collection debt back in the heap cell for
    /// the next task to run in it or the join that merges it, and pauses
    /// the slot again (nobody polls it until the forker resumes or the
    /// next request enters — a running slot would stall the snapshot
    /// handshake) unless it stays running for the next task on it
    /// ([`Handoff::Running`]).
    /// The frame was popped before this, by whoever caught the task's
    /// outcome.
    fn finish(&mut self) {
        self.settle_regions();
        self.flush_work();
        self.flush_remset();
        // Even after an unwind: the garbage is still there.
        self.heap.debt.set(self.debt());
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
    /// (a heap on this task's own path) from a source in the heap at
    /// depth `src_depth`, deduplicating repeated writes of the same field.
    /// Publication happens at the next boundary, or here on capacity
    /// (which only bounds memory — publishing early is always sound).
    pub(crate) fn buffer_remset(&mut self, dst_heap: u32, src_depth: u16, entry: RemsetEntry) {
        if self.remset_seen.insert((dst_heap, entry.src, entry.field)) {
            self.remset_buf.push((dst_heap, src_depth, entry));
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
        // Group by destination heap and source depth so each heap's lock
        // is taken once per bucket. (A source's depth is its heap's, and
        // the buffered sources sit on this task's path: few depths.)
        buf.sort_by_key(|&(dst, depth, _)| (dst, depth));
        let store = self.rt.store();
        for group in buf.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let entries: Vec<RemsetEntry> = group.iter().map(|(_, _, e)| *e).collect();
            store.remember(group[0].0, group[0].1, &entries);
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

    /// The collection debt record of this task's heap as the task has
    /// carried it on so far. For the runtime's own tests.
    #[doc(hidden)]
    pub fn collection_debt(&self) -> DebtRecord {
        self.ctx.debt()
    }
}
