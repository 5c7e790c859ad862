//! CGC — the concurrent, non-moving collector for entangled objects.
//!
//! The local collector shields pinned objects and their closure in place;
//! reclaiming them requires knowing global reachability, which is this
//! collector's job. It is a snapshot-at-the-beginning (SATB) mark–sweep,
//! restructured as **work packets** scheduled on the `mpl-sched` pool:
//!
//! * **Snapshot** — [`cgc_begin`] raises the marking flag, then runs an
//!   **epoch handshake** with every registered mutator shard, and only
//!   then asks the runtime for root packets. The semantic snapshot
//!   instant is the completion of the handshake: every mutator has
//!   either acknowledged the new epoch (so its later overwrites pre-log
//!   into a SATB buffer) or sits inside a *safe window* (fork
//!   suspension, a GC, the allocation pressure ladder) where it performs
//!   no unlogged hides. Because roots are assembled *after* the
//!   handshake, a pointer a mutator moved from a shared slot into its
//!   own root stack just before the snapshot is still visible — this
//!   closes the check-then-act race where a mutator loading
//!   `marking == false` as the collector raised the flag could drop an
//!   overwritten pointer.
//! * **Mark** — per-task root vecs become the first grey packets; worker
//!   tracers run [`Trace` packets](self) with local mark stacks,
//!   spilling half of an overgrown stack back to the shared grey queue
//!   and handing packets off through `mpl_sched::try_join` binary
//!   splits. Mark bits live in per-block **side-metadata bitmaps**
//!   (`mpl-heap`), set with a single atomic `fetch_or` that also marks
//!   the object's **lines**, so racing tracers are benign and the sweep
//!   can consult line granularity. Mutators log overwritten pointers and
//!   fresh pins into per-slot **SATB shards** (modbuf-style buffers,
//!   flushed at capacity and whenever the slot pauses); the
//!   collector drains shards to a fixpoint, re-handshakes, re-drains,
//!   and only then declares mark termination.
//! * **Sweep** — one packet per entangled block, each a **line-mark
//!   sweep**: only unmarked object starts (`obj_start & !mark`, one
//!   bitmap AND per 64 objects) are visited; a block whose line map is
//!   clean and holds no retainers is freed wholesale. Each packet
//!   accumulates a local [`CgcOutcome`] (including per-tenant budget
//!   credits) merged by atomic adds. Disentangled data is never swept
//!   here (and never pays): a program with no entanglement never
//!   triggers this collector.
//! * **Epilogue** — clear mark and line bitmaps block-wise (the blocks
//!   the marked list touched on a clean cycle; every live block when a
//!   packet panicked and the marked list may be incomplete), prune
//!   entangled indexes, publish stats. Clearing is a bitmap wipe, not an
//!   object walk.
//!
//! Packet execution is crash-isolated: a panicking trace packet (real or
//! injected via the `cgc/packet` failpoint) flags the cycle *dirty*, is
//! re-enqueued (marking is idempotent), and before mark termination a
//! **repair pass** re-scans the fields of every marked object so a
//! packet that died between marking an object and pushing its fields
//! cannot leave an under-traced hole.
//!
//! Under the sequential executor the packets degenerate to a loop on the
//! calling thread and the SATB buffers stay empty.
//!
//! # Incremental marking
//!
//! [`collect_entangled`] drives a whole cycle to completion. For bounded
//! pauses, the same cycle can be **sliced**: [`cgc_begin`] snapshots and
//! raises the flag; repeated [`cgc_step`] calls advance the current
//! bucket by a bounded budget (mutators run between slices, logging into
//! their shards). Soundness is the usual SATB argument — everything live
//! at the snapshot is either reached from the snapshot roots or was
//! logged when a mutator hid it — plus one observation specific to this
//! runtime: objects can only *enter* a sweepable state (the entangled
//! space) by being pinned, and the pin path logs them.

use std::collections::HashSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mpl_heap::events::{self, EventKind, DEAD_BY_CGC};
use mpl_heap::{Counter, ObjRef, Store};

/// Refs per grey packet when chunking roots, SATB drains, and repairs.
const PACKET_REFS: usize = 128;
/// A tracer whose local stack outgrows this spills half back to grey.
const SPILL_LIMIT: usize = 512;
/// Mutator shard buffers flush into the global SATB log at this size.
const MODBUF_CAP: usize = 128;
/// Give up re-enqueueing packets after this many panics in one cycle
/// (a failpoint plan set to `Always` must not spin forever).
const MAX_PACKET_PANICS: u64 = 256;

const PHASE_IDLE: u8 = 0;
const PHASE_MARK: u8 = 1;
const PHASE_SWEEP: u8 = 2;
const PHASE_EPILOGUE: u8 = 3;

/// A SATB buffer ("modbuf") plus the handshake cells the collector uses
/// to establish the snapshot boundary.
///
/// One per *thread of execution*, not per task: the runtime registers a
/// shard ([`CgcState::register_shard`]) with each mutator slot — a
/// session, an anonymous run, a stolen branch — and every task that runs
/// on the slot logs through it ([`CgcState::satb_log_shard`]) and
/// acknowledges snapshot epochs on it ([`CgcState::poll_handshake`],
/// from allocation safepoints and the slow-tier write barrier). A shard
/// is registered *paused* (safe depth 1): whoever runs on it brackets the
/// stretch with [`CgcState::exit_safe`] / [`CgcState::enter_safe`], and
/// opens nested windows around blocking regions (fork suspension,
/// collections, gate waits), so a shard nobody is polling never stalls a
/// handshake.
#[derive(Debug, Default)]
pub struct SatbShard {
    buf: Mutex<Vec<ObjRef>>,
    /// Owner-written: something was logged since the owner's last flush,
    /// so a flush must take `buf`. The collector's drain leaves it set,
    /// which costs the owner one lock of an empty buffer.
    dirty: AtomicBool,
    /// Safe-window depth: while > 0 the owner performs no unlogged
    /// overwrites, so the collector may treat the shard as acknowledged.
    safe: AtomicU64,
    /// Last snapshot epoch the owner acknowledged.
    acked: AtomicU64,
}

/// Shared state coordinating mutators with a concurrent mark phase.
#[derive(Debug, Default)]
pub struct CgcState {
    marking: AtomicBool,
    /// Relaxed phase tag (`PHASE_*`); lets `cycle_active` avoid the
    /// cycle mutex entirely (the allocation pressure ladder polls it).
    phase: AtomicU8,
    /// Snapshot epoch, bumped by each handshake.
    epoch: AtomicU64,
    /// Global SATB log: where shards flush to and the collector drains
    /// from. Mutators only ever log through a registered shard.
    satb: Mutex<Vec<ObjRef>>,
    shards: Mutex<Vec<Arc<SatbShard>>>,
    /// In-flight cycle; the lock doubles as the coordinator gate.
    cycle: Mutex<Option<Cycle>>,
    /// A packet panicked since the last repair pass: re-scan marked
    /// objects' fields before declaring mark termination.
    needs_repair: AtomicBool,
    /// A packet panicked anywhere this cycle: the marked list may be
    /// incomplete, so the epilogue clears bitmaps in every live block.
    dirty_cycle: AtomicBool,
    packet_panics: AtomicU64,
    packets: AtomicU64,
    packet_retries: AtomicU64,
}

/// The stage an in-flight cycle is in; buckets run strictly in order
/// roots → trace-to-fixpoint (incl. SATB drain + handshake) → sweep →
/// epilogue.
#[derive(Debug)]
enum Stage {
    Mark,
    Sweep {
        blocks: Vec<u32>,
        cursor: usize,
    },
    /// Clear mark/line bitmaps block-wise. On a clean cycle this holds
    /// exactly the blocks the marked list touched; on a dirty cycle
    /// (a packet panicked, the marked list may be incomplete) it holds
    /// every live block.
    Epilogue {
        blocks: Vec<u32>,
        cursor: usize,
    },
}

/// An in-flight cycle: the shared grey-packet queue, the marked list for
/// the epilogue, and atomically merged outcome cells.
#[derive(Debug)]
struct Cycle {
    stage: Stage,
    grey: Mutex<Vec<Vec<ObjRef>>>,
    marked: Mutex<Vec<ObjRef>>,
    /// Blocks whose sweep packet panicked; re-swept before the epilogue
    /// (kills are idempotent CAS transitions, so re-sweeping is safe).
    resweep: Mutex<Vec<u32>>,
    /// Canonical owner heaps of the blocks this cycle's sweep killed
    /// objects in: the only indexes that can have gained dead entries.
    killed_in: Mutex<Vec<u32>>,
    out: OutcomeCells,
}

impl Cycle {
    fn new(root_packets: Vec<Vec<ObjRef>>) -> Cycle {
        Cycle {
            stage: Stage::Mark,
            grey: Mutex::new(root_packets),
            marked: Mutex::new(Vec::new()),
            resweep: Mutex::new(Vec::new()),
            killed_in: Mutex::new(Vec::new()),
            out: OutcomeCells::default(),
        }
    }
}

/// [`CgcOutcome`] as atomic cells so sweep/trace packets can merge their
/// local tallies without a lock.
#[derive(Debug, Default)]
struct OutcomeCells {
    swept_bytes: AtomicU64,
    swept_objects: AtomicUsize,
    freed_blocks: AtomicUsize,
    marked_objects: AtomicUsize,
}

impl OutcomeCells {
    fn merge(&self, o: &CgcOutcome) {
        self.swept_bytes.fetch_add(o.swept_bytes, Ordering::Relaxed);
        self.swept_objects
            .fetch_add(o.swept_objects, Ordering::Relaxed);
        self.freed_blocks
            .fetch_add(o.freed_blocks, Ordering::Relaxed);
        self.marked_objects
            .fetch_add(o.marked_objects, Ordering::Relaxed);
    }

    fn get(&self) -> CgcOutcome {
        CgcOutcome {
            swept_bytes: self.swept_bytes.load(Ordering::Relaxed),
            swept_objects: self.swept_objects.load(Ordering::Relaxed),
            freed_blocks: self.freed_blocks.load(Ordering::Relaxed),
            marked_objects: self.marked_objects.load(Ordering::Relaxed),
        }
    }
}

impl CgcState {
    /// Creates idle state.
    pub fn new() -> CgcState {
        CgcState::default()
    }

    /// True while a mark phase is active; mutators must log overwritten
    /// pointers via [`CgcState::satb_log_shard`].
    #[inline]
    pub fn is_marking(&self) -> bool {
        self.marking.load(Ordering::Acquire)
    }

    /// Logs a pointer that must survive the current snapshot (an
    /// overwritten field value, or a newly pinned object) into the
    /// caller's shard buffer, flushing to the global log at capacity (the
    /// mutator-side `cgc/modbuf-flush` failpoint site).
    pub fn satb_log_shard(&self, shard: &SatbShard, r: ObjRef) {
        if !self.is_marking() {
            return;
        }
        shard.dirty.store(true, Ordering::Relaxed);
        let flush = {
            let mut buf = shard.buf.lock();
            buf.push(r);
            if buf.len() >= MODBUF_CAP {
                Some(std::mem::take(&mut *buf))
            } else {
                None
            }
        };
        if let Some(drained) = flush {
            mpl_fail::hit_hard("cgc/modbuf-flush");
            self.satb.lock().extend(drained);
        }
    }

    /// Flushes a shard's buffered entries into the global log (every
    /// pause and handshake ack). Owner-only, and lock-free when the owner
    /// logged nothing since its last flush — always, outside a mark phase.
    pub fn flush_shard(&self, shard: &SatbShard) {
        if !shard.dirty.load(Ordering::Relaxed) {
            return;
        }
        shard.dirty.store(false, Ordering::Relaxed);
        let drained = std::mem::take(&mut *shard.buf.lock());
        if !drained.is_empty() {
            mpl_fail::hit_hard("cgc/modbuf-flush");
            self.satb.lock().extend(drained);
        }
    }

    /// Registers a new mutator shard, *paused*: safe depth 1, so no
    /// handshake waits on it until its owner resumes it with
    /// [`CgcState::exit_safe`] (which acks the then-current epoch). The
    /// shards-lock acquisition orders the registration against an
    /// in-flight handshake that misses this shard in its list: the
    /// registrant reads the epoch and flag stores made before that
    /// handshake released the lock.
    pub fn register_shard(&self) -> Arc<SatbShard> {
        let shard = Arc::new(SatbShard {
            safe: AtomicU64::new(1),
            ..SatbShard::default()
        });
        self.shards.lock().push(Arc::clone(&shard));
        shard
    }

    /// Deregisters a (paused) shard, draining any buffered entries into
    /// the global log first.
    pub fn deregister_shard(&self, shard: &Arc<SatbShard>) {
        self.flush_shard(shard);
        self.shards.lock().retain(|s| !Arc::ptr_eq(s, shard));
    }

    /// Cheap handshake poll for mutator safepoints (allocation slices,
    /// the slow-tier write barrier): two relaxed loads when idle;
    /// flush + acknowledge when a new snapshot epoch is pending.
    #[inline]
    pub fn poll_handshake(&self, shard: &SatbShard) {
        let e = self.epoch.load(Ordering::Relaxed);
        if shard.acked.load(Ordering::Relaxed) != e {
            self.ack(shard);
        }
    }

    #[cold]
    fn ack(&self, shard: &SatbShard) {
        // Flush before acknowledging so everything logged before the ack
        // is visible to the collector's post-handshake re-drain.
        self.flush_shard(shard);
        let e = self.epoch.load(Ordering::SeqCst);
        shard.acked.store(e, Ordering::SeqCst);
    }

    /// Enters a safe window: the owner guarantees no unlogged overwrites
    /// until the matching [`CgcState::exit_safe`]. Buffered entries are
    /// flushed first so a parked task holds no SATB entries hostage (the
    /// owner logs nothing between that flush and the ack below, so one
    /// flush covers both). Windows nest (a paused slot, fork suspension
    /// around a collection around the pressure ladder).
    pub fn enter_safe(&self, shard: &SatbShard) {
        self.flush_shard(shard);
        shard.safe.fetch_add(1, Ordering::SeqCst);
        let e = self.epoch.load(Ordering::SeqCst);
        shard.acked.store(e, Ordering::SeqCst);
    }

    /// Leaves a safe window. The ordering here is load-bearing: the
    /// depth decrement (SeqCst) precedes the epoch load (SeqCst)
    /// precedes the ack store. If a concurrent handshake read this
    /// shard as safe, this exit's decrement is SC-after that read, so
    /// the epoch load observes the handshake's epoch and the ack plus
    /// all later `is_marking` loads see the raised flag; if the
    /// handshake read the shard as unsafe it waits for the ack, which
    /// implies the same visibility. Either way no overwrite after the
    /// window can go unlogged against the new snapshot.
    pub fn exit_safe(&self, shard: &SatbShard) {
        shard.safe.fetch_sub(1, Ordering::SeqCst);
        let e = self.epoch.load(Ordering::SeqCst);
        shard.acked.store(e, Ordering::SeqCst);
    }

    /// True if a cycle is in flight (begun, not yet finished). One
    /// relaxed load — callers on the allocation pressure ladder poll
    /// this on every slice and must not contend with in-flight mark
    /// packets.
    #[inline]
    pub fn cycle_active(&self) -> bool {
        self.phase.load(Ordering::Relaxed) != PHASE_IDLE
    }

    /// Drains the global log and every shard buffer.
    fn drain_all_satb(&self) -> Vec<ObjRef> {
        let mut out = std::mem::take(&mut *self.satb.lock());
        let shards: Vec<Arc<SatbShard>> = self.shards.lock().clone();
        for s in shards {
            out.extend(std::mem::take(&mut *s.buf.lock()));
        }
        out
    }

    /// Bumps the snapshot epoch and waits until every registered shard
    /// has acknowledged it or sits in a safe window. The shard list is
    /// re-cloned each spin so deregistration unblocks the wait. Called
    /// at the snapshot boundary and again at mark termination.
    fn handshake(&self) {
        let e = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let _stall = crate::stall::guard(crate::stall::CGC_MARK);
        let mut spins = 0u32;
        loop {
            let shards: Vec<Arc<SatbShard>> = self.shards.lock().clone();
            let pending = shards
                .iter()
                .any(|s| s.safe.load(Ordering::SeqCst) == 0 && s.acked.load(Ordering::SeqCst) < e);
            if !pending {
                return;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::sleep(std::time::Duration::from_micros(50));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Statistics from one concurrent collection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CgcOutcome {
    /// Bytes of entangled-space objects reclaimed.
    pub swept_bytes: u64,
    /// Number of entangled-space objects reclaimed.
    pub swept_objects: usize,
    /// Entangled blocks freed outright (all contents dead).
    pub freed_blocks: usize,
    /// Objects visited by the mark phase.
    pub marked_objects: usize,
}

fn push_packets(grey: &Mutex<Vec<Vec<ObjRef>>>, refs: Vec<ObjRef>) {
    if refs.is_empty() {
        return;
    }
    let mut g = grey.lock();
    for chunk in refs.chunks(PACKET_REFS) {
        g.push(chunk.to_vec());
    }
}

/// Runs `f` over every item, fanning out through recursive
/// `try_join` binary splits when a scheduler worker context is
/// installed; plain loop otherwise (sequential executor, unit tests).
fn par_each<T, F>(items: Vec<T>, f: &F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    if items.len() <= 1 || !mpl_sched::on_worker_thread() {
        for it in items {
            f(it);
        }
        return;
    }
    let mut left = items;
    let right = left.split_off(left.len() / 2);
    match mpl_sched::try_join(|_| par_each(left, f), |_| par_each(right, f)) {
        Ok(_) => {}
        Err((a, b)) => {
            a(false);
            b(false);
        }
    }
}

/// The body of one trace packet: pop refs, mark, push fields, spilling
/// an overgrown local stack (and any budget-exhausted remainder) back to
/// the shared grey queue.
fn run_trace_packet(store: &Store, cycle: &Cycle, mut local: Vec<ObjRef>, remaining: &AtomicUsize) {
    mpl_fail::hit_hard("cgc/packet");
    let mut newly_marked: Vec<ObjRef> = Vec::new();
    while let Some(r0) = local.pop() {
        let charge =
            remaining.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
        if charge.is_err() {
            // Slice budget exhausted: hand everything back as a packet
            // so the cycle stays alive for the next slice.
            local.push(r0);
            break;
        }
        let r = store.resolve(r0);
        let Some(block) = store.blocks().try_get(r.block()) else {
            continue; // racing reclamation of a dead region
        };
        let Some(obj) = block.try_get(r.word()) else {
            continue;
        };
        if obj.header().is_dead() {
            continue;
        }
        if !obj.try_mark() {
            continue; // another tracer won this object
        }
        newly_marked.push(r);
        if obj.kind().is_traced() {
            for w in obj.field_words() {
                if let Some(t) = w.pointer() {
                    local.push(t);
                }
            }
        }
        if local.len() >= SPILL_LIMIT {
            let half = local.split_off(local.len() / 2);
            cycle.grey.lock().push(half);
        }
    }
    if !local.is_empty() {
        cycle.grey.lock().push(local);
    }
    if !newly_marked.is_empty() {
        cycle
            .out
            .marked_objects
            .fetch_add(newly_marked.len(), Ordering::Relaxed);
        cycle.marked.lock().extend(newly_marked);
    }
}

/// Runs one trace packet with crash isolation: a panic (real or via the
/// `cgc/packet` failpoint) flags the cycle dirty, schedules a repair
/// pass, and re-enqueues a clone of the packet (marking is idempotent).
fn trace_packet(
    store: &Store,
    state: &CgcState,
    cycle: &Cycle,
    packet: Vec<ObjRef>,
    remaining: &AtomicUsize,
) {
    state.packets.fetch_add(1, Ordering::Relaxed);
    let _span = mpl_obs::span_guard(mpl_obs::Metric::CgcPacket);
    // Re-arm the stall clock per packet so a long parallel/sliced mark
    // never looks like one stalled phase to the watchdog.
    let _stall = crate::stall::guard(crate::stall::CGC_MARK);
    let retry = packet.clone();
    let res = catch_unwind(AssertUnwindSafe(|| {
        run_trace_packet(store, cycle, packet, remaining)
    }));
    if let Err(payload) = res {
        state.needs_repair.store(true, Ordering::SeqCst);
        state.dirty_cycle.store(true, Ordering::SeqCst);
        state.packet_retries.fetch_add(1, Ordering::Relaxed);
        if state.packet_panics.fetch_add(1, Ordering::Relaxed) >= MAX_PACKET_PANICS {
            resume_unwind(payload);
        }
        cycle.grey.lock().push(retry);
    }
}

/// Field refs of every currently marked object in every live block —
/// the repair seed after a packet panic (a dead tracer may have marked
/// an object without pushing its fields).
fn repair_refs(store: &Store) -> Vec<ObjRef> {
    let mut refs = Vec::new();
    for block in store.blocks().live_blocks() {
        for (off, obj) in block.objects() {
            if obj.header().is_dead() || !block.is_marked(off) {
                continue;
            }
            if obj.kind().is_traced() {
                for w in obj.field_words() {
                    if let Some(t) = w.pointer() {
                        refs.push(t);
                    }
                }
            }
        }
    }
    refs
}

/// Filters a SATB drain down to refs that still need marking. An entry
/// whose object is already marked (or dead, or reclaimed) is no new
/// work — without this filter a mutator that keeps re-logging the same
/// live object (every barriered overwrite of a hot field) would hold
/// the mark fixpoint open forever. Peeks the mark bit without setting
/// it, so the tracer's `try_mark` visited-gate still governs tracing;
/// two overlapping drains passing the same unmarked ref is benign for
/// the same reason two tracers racing on it is.
fn fresh_satb(store: &Store, drained: Vec<ObjRef>) -> Vec<ObjRef> {
    let mut fresh = Vec::new();
    for r0 in drained {
        let r = store.resolve(r0);
        let Some(block) = store.blocks().try_get(r.block()) else {
            continue;
        };
        let Some(obj) = block.try_get(r.word()) else {
            continue;
        };
        if obj.header().is_dead() || obj.is_marked() {
            continue;
        }
        fresh.push(r);
    }
    fresh
}

/// Advances marking by up to `budget` marked objects. Returns true when
/// the mark fixpoint (grey empty, SATB drained, handshake clean, repairs
/// done) is reached within the budget.
fn mark_slice(store: &Store, state: &CgcState, cycle: &Cycle, budget: usize) -> bool {
    mpl_fail::hit_hard("cgc/mark");
    let remaining = AtomicUsize::new(budget);
    loop {
        let packets: Vec<Vec<ObjRef>> = std::mem::take(&mut *cycle.grey.lock());
        if !packets.is_empty() {
            par_each(packets, &|p: Vec<ObjRef>| {
                trace_packet(store, state, cycle, p, &remaining)
            });
            if remaining.load(Ordering::Relaxed) == 0 {
                return false; // budget spent; cycle stays in Mark
            }
            continue;
        }
        // Grey drained: pull whatever mutators logged meanwhile.
        let logged = fresh_satb(store, state.drain_all_satb());
        if !logged.is_empty() {
            push_packets(&cycle.grey, logged);
            continue;
        }
        // Nothing visibly pending. Termination handshake: after every
        // mutator acknowledges (or is safe), re-drain; a late entry
        // either lands in this re-drain or its overwrite postdates all
        // tracing, in which case the old value was already traced.
        state.handshake();
        let logged = fresh_satb(store, state.drain_all_satb());
        if !logged.is_empty() {
            push_packets(&cycle.grey, logged);
            continue;
        }
        if state.needs_repair.swap(false, Ordering::SeqCst) {
            push_packets(&cycle.grey, repair_refs(store));
            continue;
        }
        return true;
    }
}

/// One sweep packet: one entangled block, tallied locally and merged
/// atomically. A panicking packet is queued for a re-sweep (kills are
/// idempotent CAS transitions).
fn sweep_packet(store: &Store, state: &CgcState, cycle: &Cycle, bid: u32) {
    state.packets.fetch_add(1, Ordering::Relaxed);
    let _span = mpl_obs::span_guard(mpl_obs::Metric::CgcPacket);
    let _stall = crate::stall::guard(crate::stall::CGC_SWEEP);
    let res = catch_unwind(AssertUnwindSafe(|| {
        mpl_fail::hit_hard("cgc/packet");
        let mut local = CgcOutcome::default();
        let killed_in = sweep_block(store, bid, &mut local);
        (local, killed_in)
    }));
    match res {
        Ok((local, killed_in)) => {
            cycle.out.merge(&local);
            cycle.killed_in.lock().extend(killed_in);
        }
        Err(_) => {
            state.dirty_cycle.store(true, Ordering::SeqCst);
            state.packet_retries.fetch_add(1, Ordering::Relaxed);
            if state.packet_panics.fetch_add(1, Ordering::Relaxed) < MAX_PACKET_PANICS {
                cycle.resweep.lock().push(bid);
            }
            // Past the cap: leave the block unswept (floating garbage
            // for the next cycle) rather than spinning.
        }
    }
}

/// One epilogue packet: wipe one block's mark and line bitmaps. A bitmap
/// store per 64 objects — no object walk.
fn clear_block_marks(store: &Store, state: &CgcState, bid: u32) {
    state.packets.fetch_add(1, Ordering::Relaxed);
    let _span = mpl_obs::span_guard(mpl_obs::Metric::CgcPacket);
    let _stall = crate::stall::guard(crate::stall::CGC_SWEEP);
    if let Some(block) = store.blocks().try_get(bid) {
        block.clear_all_marks();
    }
}

/// Starts an incremental cycle: raises the marking flag, handshakes
/// every mutator shard (the snapshot instant), then invokes `roots` —
/// the runtime returns one vec per registered root stack — and seeds the
/// grey queue with it in `PACKET_REFS` chunks. No-op if a cycle is
/// already in flight.
///
/// The flag-then-handshake-then-roots order is what makes the snapshot
/// airtight: any mutator overwrite that skipped logging must have
/// happened before its owner acknowledged the epoch, hence before the
/// roots were read — so the overwritten value was either garbage at the
/// snapshot or still reachable from some (post-handshake) root.
pub fn cgc_begin<F>(store: &Store, state: &CgcState, roots: F)
where
    F: FnOnce() -> Vec<Vec<ObjRef>>,
{
    let _ = store;
    let mut cycle = state.cycle.lock();
    if cycle.is_some() {
        return;
    }
    state.marking.store(true, Ordering::SeqCst);
    state.handshake();
    // One vec per root stack comes back; a slot's stack holds the frames
    // of every task nested on it, so chunk it for the tracers to share.
    let packets = roots()
        .iter()
        .flat_map(|stack| stack.chunks(PACKET_REFS).map(<[ObjRef]>::to_vec))
        .collect();
    state.phase.store(PHASE_MARK, Ordering::Relaxed);
    *cycle = Some(Cycle::new(packets));
}

/// Advances the in-flight cycle by roughly `budget` units (marked
/// objects while marking; blocks while sweeping or clearing bitmaps in
/// the epilogue). Returns the outcome when the cycle completes, `None`
/// while work remains (or if no cycle is active).
pub fn cgc_step(store: &Store, state: &CgcState, budget: usize) -> Option<CgcOutcome> {
    let mut guard = state.cycle.lock();
    let cycle = guard.as_mut()?;
    let in_mark = matches!(cycle.stage, Stage::Mark);
    // One telemetry span + stall-clock arm per slice, tagged by the
    // bucket the slice works on (sweep and epilogue share the sweep
    // metric); packets nest their own spans and re-arm the clock.
    let _span = mpl_obs::span_guard(if in_mark {
        mpl_obs::Metric::CgcMark
    } else {
        mpl_obs::Metric::CgcSweep
    });
    let _stall = crate::stall::guard(if in_mark {
        crate::stall::CGC_MARK
    } else {
        crate::stall::CGC_SWEEP
    });
    match &cycle.stage {
        Stage::Mark => {
            if !mark_slice(store, state, cycle, budget) {
                return None;
            }
            // Mark fixpoint reached. Reachability can only shrink from
            // here (SATB covered every hide while the flag was up), so
            // the sweep may proceed in packets with the flag down.
            state.marking.store(false, Ordering::SeqCst);
            let blocks: Vec<u32> = store
                .blocks()
                .live_blocks()
                .into_iter()
                .filter(|b| b.is_entangled())
                .map(|b| b.id())
                .collect();
            cycle.stage = Stage::Sweep { blocks, cursor: 0 };
            state.phase.store(PHASE_SWEEP, Ordering::Relaxed);
            None
        }
        Stage::Sweep { .. } => {
            let (batch, finished) = {
                let Stage::Sweep { blocks, cursor } = &mut cycle.stage else {
                    unreachable!()
                };
                let end = cursor.saturating_add(budget.max(1)).min(blocks.len());
                let batch = blocks[*cursor..end].to_vec();
                *cursor = end;
                (batch, end >= blocks.len())
            };
            let cref: &Cycle = cycle;
            par_each(batch, &|bid: u32| sweep_packet(store, state, cref, bid));
            if !finished {
                return None;
            }
            let retry: Vec<u32> = std::mem::take(&mut *cycle.resweep.lock());
            if !retry.is_empty() {
                cycle.stage = Stage::Sweep {
                    blocks: retry,
                    cursor: 0,
                };
                return None;
            }
            let marked = std::mem::take(&mut *cycle.marked.lock());
            let blocks: Vec<u32> = if state.dirty_cycle.load(Ordering::SeqCst) {
                store
                    .blocks()
                    .live_blocks()
                    .into_iter()
                    .map(|b| b.id())
                    .collect()
            } else {
                // Clean cycle: only the blocks the mark phase touched
                // carry set bits.
                let touched: HashSet<u32> = marked.iter().map(|r| r.block()).collect();
                touched.into_iter().collect()
            };
            cycle.stage = Stage::Epilogue { blocks, cursor: 0 };
            state.phase.store(PHASE_EPILOGUE, Ordering::Relaxed);
            None
        }
        Stage::Epilogue { .. } => {
            let (batch, finished) = {
                let Stage::Epilogue { blocks, cursor } = &mut cycle.stage else {
                    unreachable!()
                };
                let end = cursor.saturating_add(budget.max(1)).min(blocks.len());
                let batch = blocks[*cursor..end].to_vec();
                *cursor = end;
                (batch, end >= blocks.len())
            };
            par_each(batch, &|bid: u32| clear_block_marks(store, state, bid));
            if !finished {
                return None;
            }
            Some(finish(store, state, &mut guard))
        }
    }
}

/// Final slice: tear down the cycle, prune indexes, publish stats.
fn finish(store: &Store, state: &CgcState, guard: &mut Option<Cycle>) -> CgcOutcome {
    let cycle = guard.take().expect("cycle present");
    let out = cycle.out.get();
    // Index pruning walks the whole index of every heap the sweep killed
    // in — proportional to those heaps' pinned populations, whatever the
    // number of heaps — and stays in the final slice.
    prune_entangled_indexes(store, cycle.killed_in.into_inner());
    let stats = store.stats();
    stats.on_cgc(out.swept_bytes);
    let packets = state.packets.swap(0, Ordering::Relaxed);
    stats.add(Counter::cgc_packets, packets);
    let retries = state.packet_retries.swap(0, Ordering::Relaxed);
    stats.add(Counter::cgc_packet_retries, retries);
    // Census piggyback: the sweep packets already walked every entangled
    // block's bitmaps; the cycle-end delta is two gauge reads.
    if mpl_obs::enabled() {
        mpl_obs::note_gc_census(
            mpl_obs::GcCensusKind::Cgc,
            store.stats().live_bytes() as u64,
            store.blocks().live() as u64,
            out.swept_bytes,
        );
    }
    crate::audit::audit_phase(store, "cgc/sweep", 0, None);
    state.needs_repair.store(false, Ordering::SeqCst);
    state.dirty_cycle.store(false, Ordering::SeqCst);
    state.packet_panics.store(0, Ordering::Relaxed);
    state.phase.store(PHASE_IDLE, Ordering::Relaxed);
    out
}

/// Runs a full mark–sweep cycle over the entangled spaces.
///
/// `roots` is invoked *after* the snapshot handshake and must return the
/// contents of every registered root stack (one vec each); the runtime
/// is responsible for assembling them. Packets fan out on the
/// `mpl-sched` pool when the caller holds a worker context (install a
/// driver first); otherwise the cycle runs on the calling thread.
pub fn collect_entangled<F>(store: &Store, state: &CgcState, roots: F) -> CgcOutcome
where
    F: FnOnce() -> Vec<Vec<ObjRef>>,
{
    cgc_begin(store, state, roots);
    loop {
        if let Some(out) = cgc_step(store, state, usize::MAX) {
            return out;
        }
        if !state.cycle_active() {
            return CgcOutcome::default();
        }
    }
}

/// Sweeps one entangled block by its line marks: only **unmarked** object
/// starts (`obj_start & !mark`, one bitmap word per 64 slots) are
/// visited; marked objects are never touched. Reclaims unmarked
/// entangled-space objects and frees the block outright when its line
/// map is clean and nothing retains it. Returns the block's canonical
/// owner heap if anything in it was killed.
fn sweep_block(store: &Store, bid: u32, out: &mut CgcOutcome) -> Option<u32> {
    mpl_fail::hit_hard("cgc/sweep");
    let block = store.blocks().try_get(bid)?; // else: freed between slices
    let mut retainers = 0usize;
    let mut swept_here = 0usize;
    let unmarked: Vec<u32> = block.unmarked_offsets().collect();
    for off in unmarked {
        let Some(obj) = block.try_get(off) else {
            continue;
        };
        let header = obj.header();
        if header.is_dead() {
            continue;
        }
        if header.is_forwarded() {
            // The forwarding word may still be needed by stale
            // references (the moving collector repairs what it can
            // reach, but entangled readers resolve lazily): the block
            // must survive; the owner's next local collection retires
            // it once it proves full evacuation.
            retainers += 1;
            continue;
        }
        // `try_kill_swept` re-verifies entangled-space/unmarked/unmoved on
        // its CAS and returns the *atomic* pre-kill header — the earlier
        // `header` load above may be stale by now (e.g. a pin landed in
        // between), and settling pin accounting from a stale header
        // drifted the pinned-bytes gauge.
        if let Some(killed) = obj.try_kill_swept() {
            let size = obj.size_bytes();
            block.sub_live_bytes(size);
            if killed.is_pinned() {
                block.add_pinned(-1);
                store.stats().sub_pinned_bytes(size);
            }
            events::emit(EventKind::DeadMark, bid, off, DEAD_BY_CGC);
            out.swept_bytes += size as u64;
            out.swept_objects += 1;
            swept_here += size;
        } else {
            retainers += 1;
        }
    }
    // Lines reclaimed by this sweep: everything in use minus what the
    // mark phase proved live.
    let lines = block.lines_in_use().saturating_sub(block.marked_lines());
    store.stats().add(Counter::lines_swept, lines as u64);
    let killed_in = (swept_here != 0).then(|| store.heaps().find(block.owner()));
    if let Some(budget) = killed_in.and_then(|owner| store.heaps().info(owner).budget()) {
        // Mirror the global live-bytes adjustment onto the tenant budget
        // of the block's (canonical) owning heap.
        budget.credit(swept_here);
    }
    if retainers == 0 && block.line_map_clean() && block.is_full() {
        // Clean line map, nothing moved or retained, and no bump space
        // left: no reference can need this block again — freed wholesale.
        store.blocks().free(block.id());
        out.freed_blocks += 1;
    }
    killed_in
}

/// Drops dead entries from the entangled-object indexes of `heaps` (as
/// canonical at sweep time; a heap joined since carried its entries to
/// the heap it is canonicalized to here).
fn prune_entangled_indexes(store: &Store, mut heaps: Vec<u32>) {
    for id in heaps.iter_mut() {
        *id = store.heaps().find(*id);
    }
    heaps.sort_unstable();
    heaps.dedup();
    let alive = |r: ObjRef| {
        store
            .blocks()
            .try_get(r.block())
            .and_then(|b| b.try_get(r.word()).map(|o| !o.header().is_dead()))
            .unwrap_or(false)
    };
    for id in heaps {
        // `None`: joined after the `find` above; the next cycle that
        // kills in the surviving heap prunes what it inherited.
        store
            .heaps()
            .info(id)
            .try_with(|s| s.retain_entangled(alive));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graveyard::Graveyard;
    use crate::lgc::collect_local;
    use mpl_heap::{ObjKind, StoreConfig, Value};

    fn store() -> Store {
        Store::new(StoreConfig {
            block_words: 12,
            ..Default::default()
        })
    }

    /// Builds the canonical entanglement scenario: a sibling task pins an
    /// object in `l`, then LGC of `l` shields it in place.
    fn entangle_one(s: &Store) -> (u32, ObjRef) {
        let root = s.new_root_heap();
        let (l, _r) = s.fork_heaps(root);
        let x = s.alloc_values(l, ObjKind::Ref, &[Value::Int(11)]);
        s.pin(x, 0);
        let g = Graveyard::new();
        let mut roots: [ObjRef; 0] = [];
        collect_local(s, l, &mut roots, &g, true);
        assert!(s.handle(x).header().in_entangled_space());
        (l, x)
    }

    #[test]
    fn reachable_entangled_object_survives() {
        let s = store();
        let (_l, x) = entangle_one(&s);
        let state = CgcState::new();
        let out = collect_entangled(&s, &state, || vec![vec![x]]);
        assert_eq!(out.swept_objects, 0);
        assert!(!s.handle(x).header().is_dead());
        assert!(!s.handle(x).obj().is_marked(), "marks cleared after");
        assert!(
            s.handle(x).block().line_map_clean(),
            "line marks cleared after"
        );
    }

    #[test]
    fn unreachable_entangled_object_is_swept() {
        let s = store();
        let (_l, x) = entangle_one(&s);
        let pinned_before = s.stats().snapshot().pinned_bytes;
        assert!(pinned_before > 0);
        let state = CgcState::new();
        let out = collect_entangled(&s, &state, Vec::new);
        assert_eq!(out.swept_objects, 1);
        assert!(s
            .blocks()
            .try_get(x.block())
            .map(|b| b.try_get(x.word()).unwrap().header().is_dead())
            .unwrap_or(true));
        assert_eq!(s.stats().snapshot().pinned_bytes, 0);
        assert_eq!(s.stats().snapshot().cgc_runs, 1);
    }

    #[test]
    fn clean_block_is_freed_wholesale_pinned_block_survives_by_line() {
        // Two entangled blocks: one fully garbage (clean line map after
        // mark), one with a single still-referenced object. The first is
        // freed wholesale without a per-object walk; the second survives
        // and is swept by line, keeping only the marked object.
        let s = store();
        let root = s.new_root_heap();
        let (l, _r) = s.fork_heaps(root);
        // Four 3-word objects fill one 12-word class-0 block exactly.
        let garbage: Vec<ObjRef> = (0..4)
            .map(|i| s.alloc_values(l, ObjKind::Ref, &[Value::Int(i)]))
            .collect();
        for &g in &garbage {
            s.pin(g, 0);
        }
        let (l2, _r2) = s.fork_heaps(root);
        let keepers: Vec<ObjRef> = (0..4)
            .map(|i| s.alloc_values(l2, ObjKind::Ref, &[Value::Int(100 + i)]))
            .collect();
        for &k in &keepers {
            s.pin(k, 0);
        }
        let g = Graveyard::new();
        let mut no_roots: [ObjRef; 0] = [];
        collect_local(&s, l, &mut no_roots, &g, true);
        collect_local(&s, l2, &mut no_roots, &g, true);
        let garbage_block = garbage[0].block();
        let keeper_block = keepers[0].block();
        assert_ne!(garbage_block, keeper_block);
        assert!(s.blocks().get(garbage_block).is_full());

        // Only keepers[0] is reachable.
        let state = CgcState::new();
        let live_root = keepers[0];
        let out = collect_entangled(&s, &state, || vec![vec![live_root]]);

        // The all-garbage block: freed wholesale.
        assert!(
            s.blocks().try_get(garbage_block).is_none(),
            "clean block must be freed wholesale"
        );
        assert!(out.freed_blocks >= 1);
        // The keeper block: survives, with only the marked object alive.
        let kb = s.blocks().get(keeper_block);
        assert!(!kb.try_get(keepers[0].word()).unwrap().header().is_dead());
        for &k in &keepers[1..] {
            assert!(kb.try_get(k.word()).unwrap().header().is_dead());
        }
        assert_eq!(out.swept_objects, 4 + 3);
        assert!(
            s.stats().snapshot().lines_swept > 0,
            "line sweep telemetry recorded"
        );
        assert!(kb.line_map_clean(), "epilogue wiped the line marks");
    }

    #[test]
    fn satb_log_preserves_hidden_pointer() {
        let s = store();
        let (_l, x) = entangle_one(&s);
        let state = CgcState::new();
        // Simulate a mutator hiding `x` during marking: no root mentions
        // it, but the overwritten value is logged.
        let shard = state.register_shard();
        state.marking.store(true, Ordering::SeqCst);
        state.satb_log_shard(&shard, x);
        state.marking.store(false, Ordering::SeqCst);
        // The entry is still in the (paused) shard's buffer: the next
        // cycle's drain must honor it there.
        let out = collect_entangled(&s, &state, Vec::new);
        assert_eq!(out.swept_objects, 0, "SATB-logged object survives");
        assert!(!s.handle(x).header().is_dead());
    }

    #[test]
    fn shard_log_flushes_at_capacity_and_on_demand() {
        let s = store();
        let (_l, x) = entangle_one(&s);
        let state = CgcState::new();
        let shard = state.register_shard();
        state.marking.store(true, Ordering::SeqCst);
        state.satb_log_shard(&shard, x);
        assert_eq!(shard.buf.lock().len(), 1, "buffered, not yet flushed");
        assert!(state.satb.lock().is_empty());
        for _ in 0..MODBUF_CAP {
            state.satb_log_shard(&shard, x);
        }
        assert!(
            state.satb.lock().len() >= MODBUF_CAP,
            "capacity flush published the buffer"
        );
        state.flush_shard(&shard);
        assert!(shard.buf.lock().is_empty());
        assert!(!shard.dirty.load(Ordering::Relaxed), "flushed clean");
        state.marking.store(false, Ordering::SeqCst);
        state.deregister_shard(&shard);
        assert!(state.shards.lock().is_empty());
        // The logged entries must be honored by the next cycle.
        let out = collect_entangled(&s, &state, Vec::new);
        assert_eq!(out.swept_objects, 0);
    }

    #[test]
    fn safe_window_lets_handshake_complete() {
        let state = CgcState::new();
        // A shard is registered paused: nobody polls it yet, and the
        // handshake must not wait for it.
        let shard = state.register_shard();
        state.handshake();
        state.exit_safe(&shard);
        assert_eq!(shard.safe.load(Ordering::SeqCst), 0, "resumed");
        assert_eq!(
            shard.acked.load(Ordering::SeqCst),
            state.epoch.load(Ordering::SeqCst),
            "resuming acks the epoch the handshake set"
        );
        // A running, never-polling shard would hang the handshake; a
        // safe window must unblock it.
        state.enter_safe(&shard);
        state.handshake();
        state.exit_safe(&shard);
        assert_eq!(shard.safe.load(Ordering::SeqCst), 0);
        // A polling shard acknowledges the next epoch.
        let e0 = state.epoch.load(Ordering::SeqCst);
        state.epoch.fetch_add(1, Ordering::SeqCst);
        state.poll_handshake(&shard);
        assert_eq!(shard.acked.load(Ordering::SeqCst), e0 + 1);
        state.deregister_shard(&shard);
    }

    #[test]
    fn disentangled_heap_sweeps_nothing() {
        let s = store();
        let h = s.new_root_heap();
        let a = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(1)]);
        let state = CgcState::new();
        let out = collect_entangled(&s, &state, || vec![vec![a]]);
        assert_eq!(out.swept_objects, 0);
        assert_eq!(out.swept_bytes, 0);
        assert_eq!(out.freed_blocks, 0);
    }

    #[test]
    fn entangled_index_pruned_after_sweep() {
        let s = store();
        let (l, _x) = entangle_one(&s);
        let state = CgcState::new();
        collect_entangled(&s, &state, Vec::new);
        let canon = s.heaps().find(l);
        assert_eq!(s.heaps().info(canon).with(|h| h.entangled_len()), 0);
    }

    #[test]
    fn incremental_cycle_matches_monolithic() {
        let s = store();
        let (_l, live) = entangle_one(&s);
        let (_l2, dead) = entangle_one(&s);
        let state = CgcState::new();
        cgc_begin(&s, &state, || vec![vec![live]]);
        assert!(state.cycle_active());
        assert!(state.is_marking());
        let mut out = None;
        let mut slices = 0;
        while out.is_none() {
            out = cgc_step(&s, &state, 1);
            slices += 1;
            assert!(slices < 100, "cycle must terminate");
        }
        let out = out.unwrap();
        assert!(!state.cycle_active());
        assert!(!state.is_marking());
        assert_eq!(out.swept_objects, 1, "exactly the unreferenced pin");
        assert!(!s.handle(live).header().is_dead());
        assert!(s
            .blocks()
            .try_get(dead.block())
            .map(|b| b.try_get(dead.word()).unwrap().header().is_dead())
            .unwrap_or(true));
    }

    #[test]
    fn satb_between_slices_preserves_hidden_objects() {
        let s = store();
        let (_l, x) = entangle_one(&s);
        // A second population so the trace takes more than one slice.
        let root2 = s.new_root_heap();
        let mut prev = s.alloc_values(root2, ObjKind::Ref, &[Value::Int(0)]);
        for i in 0..16 {
            prev = s.alloc_values(root2, ObjKind::Ref, &[Value::Obj(prev)]);
            let _ = i;
        }
        let state = CgcState::new();
        let shard = state.register_shard();
        cgc_begin(&s, &state, || vec![vec![prev]]);
        // First slice runs...
        assert!(cgc_step(&s, &state, 2).is_none(), "chain needs more slices");
        // ...then a mutator "hides" x behind an overwrite, logging it.
        state.satb_log_shard(&shard, x);
        let mut out = None;
        while out.is_none() {
            out = cgc_step(&s, &state, 4);
        }
        assert_eq!(out.unwrap().swept_objects, 0, "the logged pin survives");
        assert!(!s.handle(x).header().is_dead());
    }

    #[test]
    fn step_without_begin_is_a_noop() {
        let s = store();
        let state = CgcState::new();
        assert!(cgc_step(&s, &state, 8).is_none());
        assert!(!state.cycle_active());
    }

    #[test]
    fn begin_is_idempotent_while_active() {
        let s = store();
        let (_l, x) = entangle_one(&s);
        let state = CgcState::new();
        cgc_begin(&s, &state, || vec![vec![x]]);
        // A second begin with *no* roots must not clobber the snapshot.
        cgc_begin(&s, &state, Vec::new);
        let mut out = None;
        while out.is_none() {
            out = cgc_step(&s, &state, 8);
        }
        assert_eq!(out.unwrap().swept_objects, 0, "original roots retained");
    }

    #[test]
    fn marking_traverses_through_normal_objects() {
        let s = store();
        let root = s.new_root_heap();
        let (l, _r) = s.fork_heaps(root);
        let x = s.alloc_values(l, ObjKind::Ref, &[Value::Int(5)]);
        s.pin(x, 0);
        let g = Graveyard::new();
        let mut roots: [ObjRef; 0] = [];
        collect_local(&s, l, &mut roots, &g, true);
        // Root -> holder -> x: the path crosses a disentangled object.
        let holder = s.alloc_values(root, ObjKind::Tuple, &[Value::Obj(x)]);
        let state = CgcState::new();
        let out = collect_entangled(&s, &state, || vec![vec![holder]]);
        assert_eq!(out.swept_objects, 0);
        assert!(out.marked_objects >= 2);
    }

    #[test]
    fn parallel_cycle_on_executor_matches_sequential() {
        // Two identical stores: one collected under a worker context
        // (packets fan out on the pool), one on the bare thread. The
        // survivor sets must agree.
        let build = |s: &Store| {
            let (_l, live) = entangle_one(s);
            let (_l2, dead) = entangle_one(s);
            let root = s.new_root_heap();
            let mut holder = s.alloc_values(root, ObjKind::Tuple, &[Value::Obj(live)]);
            for _ in 0..64 {
                holder = s.alloc_values(root, ObjKind::Tuple, &[Value::Obj(holder)]);
            }
            (live, dead, holder)
        };
        let s1 = store();
        let (live1, dead1, holder1) = build(&s1);
        let s2 = store();
        let (live2, dead2, holder2) = build(&s2);

        let state1 = CgcState::new();
        let out1 = collect_entangled(&s1, &state1, || vec![vec![holder1]]);

        let ex = mpl_sched::Executor::new(4);
        let _driver = ex.install_driver();
        let state2 = CgcState::new();
        let out2 = collect_entangled(&s2, &state2, || vec![vec![holder2]]);

        assert_eq!(out1.swept_objects, out2.swept_objects);
        assert_eq!(out1.marked_objects, out2.marked_objects);
        assert!(!s1.handle(live1).header().is_dead());
        assert!(!s2.handle(live2).header().is_dead());
        for (s, dead) in [(&s1, dead1), (&s2, dead2)] {
            assert!(s
                .blocks()
                .try_get(dead.block())
                .map(|b| b.try_get(dead.word()).unwrap().header().is_dead())
                .unwrap_or(true));
        }
        assert!(
            s2.stats().snapshot().cgc_packets > 0,
            "packet counter recorded"
        );
    }

    #[test]
    fn packet_panic_is_repaired_and_retried() {
        // Inject one panic into the first trace packet; the cycle must
        // still mark everything reachable and sweep only garbage.
        let s = store();
        let (_l, live) = entangle_one(&s);
        let (_l2, dead) = entangle_one(&s);
        let root = s.new_root_heap();
        let holder = s.alloc_values(root, ObjKind::Tuple, &[Value::Obj(live)]);
        let plan = mpl_fail::FailPlan::new(7).with(
            "cgc/packet",
            mpl_fail::FailAction::Panic,
            mpl_fail::FailWhen::Nth(1),
        );
        let token = mpl_fail::install(&plan);
        let state = CgcState::new();
        let out = collect_entangled(&s, &state, || vec![vec![holder]]);
        mpl_fail::uninstall(token);
        assert_eq!(out.swept_objects, 1, "only the unreferenced pin");
        assert!(!s.handle(live).header().is_dead());
        assert!(s
            .blocks()
            .try_get(dead.block())
            .map(|b| b.try_get(dead.word()).unwrap().header().is_dead())
            .unwrap_or(true));
        // Dirty cycle: marks still fully cleared (block-scan epilogue).
        assert!(!s.handle(live).obj().is_marked());
        assert!(s.stats().snapshot().cgc_packet_retries >= 1);
    }
}
