//! CGC — the concurrent, non-moving collector for entangled objects.
//!
//! The local collector shields pinned objects and their closure in place;
//! reclaiming them requires knowing global reachability, which is this
//! collector's job. It keeps the one registry of **mutator slots**
//! ([`MutatorSlot`]): one per thread of execution, opened and closed by
//! the runtime through [`CgcState::open_slot`] / [`CgcState::close_slot`],
//! each carrying the two things marking needs from it — its root stack
//! and its SATB buffer with the handshake cells. The collector is a
//! snapshot-at-the-beginning (SATB) mark–sweep, restructured as **work
//! packets** scheduled on the `mpl-sched` pool:
//!
//! * **Snapshot** — [`cgc_begin`] raises the marking flag, then runs an
//!   **epoch handshake** with every open slot, and only then snapshots
//!   the slots' root stacks. The semantic snapshot
//!   instant is the completion of the handshake: every mutator has
//!   either acknowledged the new epoch (so its later overwrites pre-log
//!   into a SATB buffer) or sits inside a *safe window* (fork
//!   suspension, a GC, the allocation pressure ladder) where it performs
//!   no unlogged hides. Because roots are read *after* the
//!   handshake, a pointer a mutator moved from a shared slot into its
//!   own root stack just before the snapshot is still visible — this
//!   closes the check-then-act race where a mutator loading
//!   `marking == false` as the collector raised the flag could drop an
//!   overwritten pointer.
//! * **Mark** — each slot's root snapshot becomes the first grey
//!   packets; worker tracers run [`Trace` packets](self) with local mark stacks,
//!   spilling half of an overgrown stack back to the shared grey queue
//!   and handing packets off through `mpl_sched::try_join` binary
//!   splits. Mark bits live in per-block **side-metadata bitmaps**
//!   (`mpl-heap`), set with a single atomic `fetch_or` that also marks
//!   the object's **lines**, so racing tracers are benign and the sweep
//!   can consult line granularity. Mutators log overwritten pointers and
//!   fresh pins into their slot's **SATB buffer** (one push under the
//!   slot's lock); the collector empties every open slot's buffer where
//!   it is, to a fixpoint, re-handshakes, re-drains, and only then
//!   declares mark termination.
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
//! # One cycle, one call
//!
//! A cycle is straight-line code. [`cgc_begin`] admits it through the
//! state's one gate — no second cycle begins while it is in flight —
//! raises the flag, runs the handshake and snapshots the roots;
//! [`cgc_finish`] marks to the fixpoint, sweeps, re-sweeps, clears the
//! marks and ends it. [`collect_entangled`] is the two in a row. The
//! cycle runs concurrently with the mutators on the other workers, which
//! keep running and logging into their slots while one worker collects.
//! Soundness is the usual SATB argument — everything live at the
//! snapshot is either reached from the snapshot roots or was logged when
//! a mutator hid it — plus a rule for what the sweep may kill.
//!
//! # What the sweep may kill
//!
//! [`cgc_begin`] lists the entangled blocks before its handshake, and the
//! sweep visits only those. An object enters the entangled space — the
//! sweep's prey — three ways, none of which waits for a cycle:
//!
//! 1. a pin (`Object::try_pin` tags the object), which the pin path
//!    SATB-logs while marking;
//! 2. a local collection's shield (`Lgc::shield_push`, in Phase A and in
//!    the re-take), which tags the closure of its heap's pins and logs
//!    nothing;
//! 3. a local collection's reclaim, which flags the from-space blocks it
//!    retains entangled, bringing their objects into the sweep's reach.
//!
//! A block is retained only as from-space, and nothing is allocated or
//! copied into a retained block again, so every object in a listed block
//! existed at the snapshot. Such an object, if reachable at the sweep, was
//! reachable at the snapshot, so the tracer marked it where it then lived;
//! if a local collection moved it since, the listed address holds a
//! forwarding word, which the sweep keeps. So whichever way, and whenever,
//! an object entered the entangled space, the sweep kills it only if it is
//! unreachable. What the listing leaves out is what the marks cannot vouch
//! for — objects allocated after the snapshot, and to-space copies of
//! objects the tracer marked at their old address (the mark stays with
//! the forwarding word) — and those wait in blocks entangled after the
//! snapshot for the next cycle.
//!
//! A cycle that unwinds — the `cgc/mark` failpoint, or packet panics past
//! the cap — ends the way a finished one does ([`Cycle`]'s drop): flag
//! down, marks wiped in every live block, cycle counter even, gate
//! released. Nothing is left parked for a later trigger to resume.

use std::collections::HashSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use mpl_heap::events::{self, EventKind, DEAD_BY_CGC};
use mpl_heap::{Counter, ObjRef, Store};
use mpl_obs::{gc_phase, Metric};

use crate::graveyard::{Graveyard, Retired};
use crate::roots::RootStack;

/// Refs per grey packet when chunking roots, SATB drains, and repairs.
const PACKET_REFS: usize = 128;
/// A tracer whose local stack outgrows this spills half back to grey.
const SPILL_LIMIT: usize = 512;
/// Give up re-enqueueing packets after this many panics in one cycle
/// (a failpoint plan set to `Always` must not spin forever).
const MAX_PACKET_PANICS: u64 = 256;

/// What the collectors see of one *thread of execution* — a persistent
/// tenant session, an anonymous run, or a fork branch the scheduler
/// migrated: the root stack the snapshot scans, and the SATB buffer plus
/// handshake cells the snapshot protocol runs on.
///
/// Every task that runs on the slot logs through it
/// ([`CgcState::satb_log`]) and acknowledges snapshot epochs on it
/// ([`CgcState::poll_handshake`], from allocation safepoints and the
/// slow-tier write barrier). A slot is opened *paused* (safe depth 1):
/// whoever runs on it brackets the stretch with [`CgcState::exit_safe`] /
/// [`CgcState::enter_safe`], and opens nested windows around blocking
/// regions (fork suspension, collections, gate waits), so a slot nobody
/// is polling never stalls a handshake.
#[derive(Debug)]
pub struct MutatorSlot {
    /// The roots of every task currently running on the slot (see
    /// [`crate::roots`] for the ownership rule).
    pub roots: RootStack,
    /// The SATB log: taken only by the owner's barrier (one push while
    /// marking) and by the collector's drain.
    buf: Mutex<Vec<ObjRef>>,
    /// Safe-window depth: while > 0 the owner performs no unlogged
    /// overwrites, so the collector may treat the slot as acknowledged.
    safe: AtomicU64,
    /// Last snapshot epoch the owner acknowledged.
    acked: AtomicU64,
    closed: AtomicBool,
    /// The request word: `REQ_*` bits that collectors, cancellers and
    /// pins *set* and the owner's poll points serve. An allocation loads
    /// it once; zero means nothing is asked of the owner.
    requests: AtomicU32,
}

/// Request bit: a snapshot handshake bumped the epoch; ack it.
pub const REQ_HANDSHAKE: u32 = 1;
/// Request bit: the owner pinned an object; check, at its next
/// allocation or join, whether the concurrent collector should run.
pub const REQ_CGC: u32 = 2;
/// Request bit: poll the cancel token — a trip, or an armed deadline
/// (which keeps the bit set for the whole run, so the token's clock is
/// read at every poll).
pub const REQ_CANCEL: u32 = 4;

impl MutatorSlot {
    /// True once [`CgcState::close_slot`] withdrew the slot: nothing
    /// rooted on it is scanned any more, so nothing may run on it.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// The request word (one relaxed load).
    #[inline]
    pub fn requests(&self) -> u32 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Raises `bits` in the request word.
    pub fn request(&self, bits: u32) {
        self.requests.fetch_or(bits, Ordering::SeqCst);
    }

    /// Lowers `bits` before the owner serves them, so a request raised
    /// while it does stays raised for its next poll.
    pub fn clear_requests(&self, bits: u32) {
        self.requests.fetch_and(!bits, Ordering::SeqCst);
    }
}

/// Shared state coordinating mutators with a concurrent mark phase: what
/// outlives a cycle.
#[derive(Debug, Default)]
pub struct CgcState {
    marking: AtomicBool,
    /// Snapshot epoch, bumped by each handshake and each block
    /// retirement; a slot's ack of it serves both.
    epoch: AtomicU64,
    /// Cycles begun plus cycles finished: odd while one is in flight.
    cycles: AtomicU64,
    /// Evacuated blocks waiting for every holder to move past them.
    graveyard: Graveyard,
    /// The SATB entries of slots closed with entries still buffered;
    /// the drain empties it after the open slots' buffers.
    satb: Mutex<Vec<ObjRef>>,
    /// The open slots. The mutex guards only the small vector — taken
    /// when a run starts or ends, a branch is stolen or joined, a session
    /// is created or retired, and by the collector's handshake, root
    /// snapshot and drain; never at an un-migrated task's enter or finish.
    slots: Mutex<Vec<Arc<MutatorSlot>>>,
    /// Admits one cycle at a time: a [`Cycle`] holds it from its begin to
    /// its end.
    gate: Mutex<()>,
}

/// A cycle in flight, from [`cgc_begin`] to [`cgc_finish`]: the gate it
/// holds, the shared grey-packet queue, the marked list for the
/// epilogue, and the cells its packets merge into. Dropping it unfinished
/// — an unwind — ends it the way a finished one ends.
pub struct Cycle<'a> {
    store: &'a Store,
    state: &'a CgcState,
    _gate: MutexGuard<'a, ()>,
    /// Which cycle of the state this is, counting from 1 (the `aux` of
    /// its boundary events).
    number: u32,
    grey: Mutex<Vec<Vec<ObjRef>>>,
    marked: Mutex<Vec<ObjRef>>,
    /// Blocks whose sweep packet panicked; re-swept before the epilogue
    /// (kills are idempotent CAS transitions, so re-sweeping is safe).
    resweep: Mutex<Vec<u32>>,
    /// Canonical owner heaps of the blocks this cycle's sweep killed
    /// objects in: the only indexes that can have gained dead entries.
    killed_in: Mutex<Vec<u32>>,
    out: OutcomeCells,
    /// A packet panicked since the last repair pass: re-scan marked
    /// objects' fields before declaring mark termination.
    needs_repair: AtomicBool,
    /// A packet panicked anywhere this cycle: the marked list may be
    /// incomplete, so the epilogue clears bitmaps in every live block.
    dirty: AtomicBool,
    /// The blocks the sweep visits: those entangled before the snapshot.
    sweepable: Vec<u32>,
    packet_panics: AtomicU64,
    packets: AtomicU64,
    packet_retries: AtomicU64,
    /// The epilogue cleared the marks; the drop wipes every live block
    /// otherwise.
    cleared: bool,
}

impl Drop for Cycle<'_> {
    /// Ends the cycle, finished or unwound: flag down, marks cleared,
    /// packet counts published, cycle counter even, and — no tracer holds
    /// a reference any more — blocks retired during the cycle wait only
    /// for the slots. The gate is released after.
    ///
    /// An unwinding cycle leaves its reclaim to the next one (the next
    /// retirement, slot close or cycle end): a reclaim's reap audits, and
    /// an audit failure is a panic, which while unwinding would abort.
    fn drop(&mut self) {
        let (store, state) = (self.store, self.state);
        state.marking.store(false, Ordering::SeqCst);
        if !self.cleared {
            for block in store.blocks().live_blocks() {
                block.clear_all_marks();
            }
        }
        let stats = store.stats();
        stats.add(Counter::cgc_packets, *self.packets.get_mut());
        stats.add(Counter::cgc_packet_retries, *self.packet_retries.get_mut());
        state.cycles.fetch_add(1, Ordering::SeqCst);
        if !std::thread::panicking() {
            state.reclaim(store);
        }
    }
}

impl Cycle<'_> {
    /// Emits a cycle-boundary event of `kind`.
    fn note(&self, kind: EventKind) {
        events::emit(self.store.serial(), kind, 0, 0, self.number);
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
    /// pointers via [`CgcState::satb_log`].
    #[inline]
    pub fn is_marking(&self) -> bool {
        self.marking.load(Ordering::Acquire)
    }

    /// Opens a mutator slot, *paused*: safe depth 1, so no handshake
    /// waits on it until its owner resumes it with
    /// [`CgcState::exit_safe`] (which acks the then-current epoch). The
    /// slots-lock acquisition orders the opening against an in-flight
    /// handshake that misses this slot in its list: the opener reads the
    /// epoch and flag stores made before that handshake released the
    /// lock.
    pub fn open_slot(&self) -> Arc<MutatorSlot> {
        let slot = Arc::new(MutatorSlot {
            roots: RootStack::new(),
            buf: Mutex::new(Vec::new()),
            safe: AtomicU64::new(1),
            acked: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            requests: AtomicU32::new(0),
        });
        self.slots.lock().push(Arc::clone(&slot));
        slot
    }

    /// Raises `bits` on every open slot (a cancel trip reaching every
    /// task in flight). A slot opened after the walk polls its token when
    /// its first task enters.
    pub fn request_all(&self, bits: u32) {
        for slot in self.slots.lock().iter() {
            slot.request(bits);
        }
    }

    /// Closes a paused slot: its roots leave the root set and it leaves
    /// the handshake. Whatever it still roots — a migrated branch's
    /// result — is the caller's to keep alive from here. Entries still
    /// buffered move to the closed-slot log under the slot's lock, so a
    /// drain that finds the buffer empty finds them in the log it
    /// empties last. A closed slot no longer holds retired blocks back,
    /// so the close ends with a [`CgcState::reclaim`]. Closing twice is
    /// harmless.
    pub fn close_slot(&self, store: &Store, slot: &Arc<MutatorSlot>) {
        slot.closed.store(true, Ordering::Release);
        {
            let mut buf = slot.buf.lock();
            if !buf.is_empty() {
                mpl_fail::hit_hard("cgc/modbuf-flush");
                self.satb.lock().append(&mut buf);
            }
        }
        self.slots.lock().retain(|s| !Arc::ptr_eq(s, slot));
        self.reclaim(store);
    }

    /// Retires evacuated from-space `blocks` — call only once nothing the
    /// collecting task roots points into them any more (its root stack is
    /// written back) — then tries a [`CgcState::reclaim`].
    ///
    /// The retirement bumps the snapshot epoch: a slot that acknowledges
    /// the new epoch has reached a poll point since, holding no pointer
    /// loaded before. The cycle counter is read after the bump, both
    /// SeqCst, so a cycle whose counter increment this read misses
    /// bumps the epoch after this retirement and so snapshots its roots
    /// after the write-back (see [`cgc_begin`]).
    pub fn retire(&self, store: &Store, blocks: &[u32]) {
        if blocks.is_empty() {
            return;
        }
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let cycle = self.cycles.load(Ordering::SeqCst);
        let pending = self.graveyard.retire(store, blocks, epoch, cycle);
        store.stats().note_retired(pending);
        self.reclaim(store);
    }

    /// Frees every retired block no holder can still reach, and returns
    /// how many: a block is freed once its retirement epoch is at or
    /// below the *horizon* — the epoch read before scanning the slots,
    /// lowered to the ack of every slot found running (safe depth 0) —
    /// and the cycle in flight at its retirement, if any, has finished.
    /// Reading the epoch first confines the verdict to blocks retired
    /// before the scan. A running slot whose ack is behind the horizon
    /// is asked for one (`REQ_HANDSHAKE`), so its next poll lets the
    /// blocks go at the next reclaim.
    pub fn reclaim(&self, store: &Store) -> usize {
        if self.graveyard.pending() == 0 {
            return 0;
        }
        let epoch = self.epoch.load(Ordering::SeqCst);
        let mut horizon = epoch;
        for s in self.slots.lock().iter() {
            if s.safe.load(Ordering::SeqCst) == 0 {
                let acked = s.acked.load(Ordering::SeqCst);
                if acked < epoch {
                    s.request(REQ_HANDSHAKE);
                    horizon = horizon.min(acked);
                }
            }
        }
        let cycles = self.cycles.load(Ordering::SeqCst);
        self.graveyard.reap(store, |r: &Retired| {
            r.epoch <= horizon && (r.cycle.is_multiple_of(2) || cycles > r.cycle)
        })
    }

    /// Number of retired blocks not yet freed.
    pub fn retired_blocks(&self) -> usize {
        self.graveyard.pending()
    }

    /// Number of open slots.
    pub fn live_slots(&self) -> usize {
        self.slots.lock().len()
    }

    /// Logs a pointer that must survive the current snapshot (an
    /// overwritten field value, or a newly pinned object) into the
    /// caller's slot buffer, where the collector's drain finds it.
    pub fn satb_log(&self, slot: &MutatorSlot, r: ObjRef) {
        if self.is_marking() {
            slot.buf.lock().push(r);
        }
    }

    /// Handshake poll for mutator safepoints (allocations and the
    /// barrier slow tiers, once their slot's request word is nonzero):
    /// serves [`REQ_HANDSHAKE`] — lowered first, so an epoch bumped
    /// meanwhile raises it again — and acknowledges when a new snapshot
    /// epoch is pending. Everything the owner logged before the ack is in
    /// its buffer, which the post-handshake re-drain reads.
    #[inline]
    pub fn poll_handshake(&self, slot: &MutatorSlot) {
        if slot.requests() & REQ_HANDSHAKE != 0 {
            slot.clear_requests(REQ_HANDSHAKE);
        }
        let e = self.epoch.load(Ordering::Relaxed);
        if slot.acked.load(Ordering::Relaxed) != e {
            self.ack(slot);
        }
    }

    #[cold]
    fn ack(&self, slot: &MutatorSlot) {
        let e = self.epoch.load(Ordering::SeqCst);
        slot.acked.store(e, Ordering::SeqCst);
    }

    /// Enters a safe window: the owner guarantees no unlogged overwrites
    /// until the matching [`CgcState::exit_safe`]. Windows nest (a paused
    /// slot, fork suspension around a collection around the pressure
    /// ladder).
    pub fn enter_safe(&self, slot: &MutatorSlot) {
        slot.safe.fetch_add(1, Ordering::SeqCst);
        let e = self.epoch.load(Ordering::SeqCst);
        slot.acked.store(e, Ordering::SeqCst);
    }

    /// Leaves a safe window. The ordering here is load-bearing: the
    /// depth decrement (SeqCst) precedes the epoch load (SeqCst)
    /// precedes the ack store. If a concurrent handshake read this
    /// slot as safe, this exit's decrement is SC-after that read, so
    /// the epoch load observes the handshake's epoch and the ack plus
    /// all later `is_marking` loads see the raised flag; if the
    /// handshake read the slot as unsafe it waits for the ack, which
    /// implies the same visibility. Either way no overwrite after the
    /// window can go unlogged against the new snapshot.
    pub fn exit_safe(&self, slot: &MutatorSlot) {
        slot.safe.fetch_sub(1, Ordering::SeqCst);
        let e = self.epoch.load(Ordering::SeqCst);
        slot.acked.store(e, Ordering::SeqCst);
    }

    /// Empties every open slot's buffer, then the closed-slot log (last:
    /// see [`CgcState::close_slot`]).
    fn drain_all_satb(&self) -> Vec<ObjRef> {
        let mut out = Vec::new();
        for slot in self.slots.lock().iter() {
            let logged = std::mem::take(&mut *slot.buf.lock());
            if !logged.is_empty() {
                mpl_fail::hit_hard("cgc/modbuf-flush");
                out.extend(logged);
            }
        }
        out.append(&mut self.satb.lock());
        out
    }

    /// The root set: every open slot's root stack, snapshot in place and
    /// chunked into grey packets (a slot's stack holds the frames of
    /// every task nested on it, so the tracers share it). Lock-free with
    /// respect to the mutators — only the small slots mutex is held. A
    /// stale beyond-`len` slot resolves safely because a block retired
    /// while this cycle is in flight outlives the cycle. Read *after* the snapshot
    /// handshake, which is what makes the per-stack snapshots sound
    /// against a mutator moving a value between a shared slot and its own
    /// stack at the snapshot boundary: post-handshake, every mutator's
    /// SATB logging is observably on, so any value that leaves a scanned
    /// location is logged.
    pub(crate) fn root_packets(&self) -> Vec<Vec<ObjRef>> {
        let mut packets = Vec::new();
        for slot in self.slots.lock().iter() {
            let roots = slot.roots.snapshot(0);
            packets.extend(roots.chunks(PACKET_REFS).map(<[ObjRef]>::to_vec));
        }
        packets
    }

    /// Bumps the snapshot epoch, raises [`REQ_HANDSHAKE`] on every open
    /// slot, and waits until each has acknowledged the epoch or sits in a
    /// safe window. The slot list is re-read each spin so closing a slot
    /// unblocks the wait. Called at the snapshot boundary and again at
    /// mark termination.
    ///
    /// An owner lowers the bit before it reads the epoch, and the bump
    /// precedes the raise: if the owner's lowering comes after the raise,
    /// its epoch load comes after the bump and acks it; if before, the
    /// bit stays raised for its next poll. (A slot opened after the raise
    /// acks the epoch when its first task resumes it.)
    fn handshake(&self) {
        let e = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.request_all(REQ_HANDSHAKE);
        let _phase = gc_phase(Metric::CgcHandshake);
        let mut spins = 0u32;
        loop {
            let pending =
                self.slots.lock().iter().any(|s| {
                    s.safe.load(Ordering::SeqCst) == 0 && s.acked.load(Ordering::SeqCst) < e
                });
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
/// half of an overgrown local stack back to the shared grey queue.
fn run_trace_packet(cycle: &Cycle<'_>, mut local: Vec<ObjRef>) {
    mpl_fail::hit_hard("cgc/packet");
    let store = cycle.store;
    let mut newly_marked: Vec<ObjRef> = Vec::new();
    while let Some(r0) = local.pop() {
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
fn trace_packet(cycle: &Cycle<'_>, packet: Vec<ObjRef>) {
    cycle.packets.fetch_add(1, Ordering::Relaxed);
    // Each packet is a phase of its own, so a long parallel mark never
    // looks like one stalled phase to the watchdog.
    let _phase = gc_phase(Metric::CgcPacket);
    let retry = packet.clone();
    let res = catch_unwind(AssertUnwindSafe(|| run_trace_packet(cycle, packet)));
    if let Err(payload) = res {
        cycle.needs_repair.store(true, Ordering::SeqCst);
        cycle.dirty.store(true, Ordering::SeqCst);
        cycle.packet_retries.fetch_add(1, Ordering::Relaxed);
        if cycle.packet_panics.fetch_add(1, Ordering::Relaxed) >= MAX_PACKET_PANICS {
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
/// the same reason two tracers racing on it is. An entry can outlive the
/// cycle that logged it (logged after that cycle's last drain), and by
/// the next cycle its block may be gone: such an object is no longer
/// anyone's to keep, so the entry resolves to nothing.
fn fresh_satb(store: &Store, drained: Vec<ObjRef>) -> Vec<ObjRef> {
    let mut fresh = Vec::new();
    for r0 in drained {
        let Some(r) = store.try_resolve(r0) else {
            continue;
        };
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

/// Marks to the fixpoint: grey empty, SATB drained, handshake clean,
/// repairs done.
fn mark(cycle: &Cycle<'_>) {
    mpl_fail::hit_hard("cgc/mark");
    let (store, state) = (cycle.store, cycle.state);
    loop {
        let packets: Vec<Vec<ObjRef>> = std::mem::take(&mut *cycle.grey.lock());
        if !packets.is_empty() {
            par_each(packets, &|p: Vec<ObjRef>| trace_packet(cycle, p));
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
        if cycle.needs_repair.swap(false, Ordering::SeqCst) {
            push_packets(&cycle.grey, repair_refs(store));
            continue;
        }
        return;
    }
}

/// One sweep packet: one entangled block, tallied locally and merged
/// atomically. A panicking packet is queued for a re-sweep (kills are
/// idempotent CAS transitions).
fn sweep_packet(cycle: &Cycle<'_>, bid: u32) {
    cycle.packets.fetch_add(1, Ordering::Relaxed);
    let _phase = gc_phase(Metric::CgcPacket);
    let res = catch_unwind(AssertUnwindSafe(|| {
        mpl_fail::hit_hard("cgc/packet");
        let mut local = CgcOutcome::default();
        let killed_in = sweep_block(cycle.store, bid, &mut local);
        (local, killed_in)
    }));
    match res {
        Ok((local, killed_in)) => {
            cycle.out.merge(&local);
            cycle.killed_in.lock().extend(killed_in);
        }
        Err(_) => {
            cycle.dirty.store(true, Ordering::SeqCst);
            cycle.packet_retries.fetch_add(1, Ordering::Relaxed);
            if cycle.packet_panics.fetch_add(1, Ordering::Relaxed) < MAX_PACKET_PANICS {
                cycle.resweep.lock().push(bid);
            }
            // Past the cap: leave the block unswept (floating garbage
            // for the next cycle) rather than spinning.
        }
    }
}

/// One epilogue packet: wipe one block's mark and line bitmaps. A bitmap
/// store per 64 objects — no object walk.
fn clear_block_marks(cycle: &Cycle<'_>, bid: u32) {
    cycle.packets.fetch_add(1, Ordering::Relaxed);
    let _phase = gc_phase(Metric::CgcPacket);
    if let Some(block) = cycle.store.blocks().try_get(bid) {
        block.clear_all_marks();
    }
}

/// Begins a cycle unless one is in flight (`None`): raises the marking
/// flag, lists the entangled blocks the sweep will visit ("What the sweep
/// may kill" in the module docs), handshakes every open slot (the
/// snapshot instant), then snapshots the slots' root stacks into the grey
/// queue in `PACKET_REFS` chunks. The cycle holds the state's gate until
/// it ends; finish it with [`cgc_finish`].
///
/// The flag-then-handshake-then-roots order is what makes the snapshot
/// airtight: any mutator overwrite that skipped logging must have
/// happened before its owner acknowledged the epoch, hence before the
/// roots were read — so the overwritten value was either garbage at the
/// snapshot or still reachable from some (post-handshake) root.
///
/// The cycle counter turns odd before the handshake's epoch bump: a block
/// retired before that bump (in epoch order) was retired after its
/// owner's root write-back, which the root snapshot therefore sees; one
/// retired after it reads the odd counter and outlives the cycle
/// ([`CgcState::retire`]).
pub fn cgc_begin<'a>(store: &'a Store, state: &'a CgcState) -> Option<Cycle<'a>> {
    Some(begin(store, state, state.gate.try_lock()?))
}

fn begin<'a>(store: &'a Store, state: &'a CgcState, gate: MutexGuard<'a, ()>) -> Cycle<'a> {
    let count = state.cycles.fetch_add(1, Ordering::SeqCst);
    state.marking.store(true, Ordering::SeqCst);
    // Listed before the handshake, so every object in a listed block
    // existed at the snapshot (module docs, "What the sweep may kill").
    let sweepable = store
        .blocks()
        .live_blocks()
        .into_iter()
        .filter(|b| b.is_entangled())
        .map(|b| b.id())
        .collect();
    let cycle = Cycle {
        store,
        state,
        _gate: gate,
        number: (count / 2 + 1) as u32,
        grey: Mutex::default(),
        marked: Mutex::default(),
        resweep: Mutex::default(),
        killed_in: Mutex::default(),
        out: OutcomeCells::default(),
        needs_repair: AtomicBool::default(),
        dirty: AtomicBool::default(),
        sweepable,
        packet_panics: AtomicU64::default(),
        packets: AtomicU64::default(),
        packet_retries: AtomicU64::default(),
        cleared: false,
    };
    state.handshake();
    *cycle.grey.lock() = state.root_packets();
    cycle.note(EventKind::CycleBegin);
    cycle
}

/// Finishes a cycle [`cgc_begin`] began: marks to the fixpoint, lowers
/// the flag, sweeps the blocks entangled at its begin (and re-sweeps the
/// blocks whose packet panicked), clears the marks, prunes the entangled
/// indexes and publishes the stats. Packets fan out on the `mpl-sched`
/// pool when the caller holds a worker context (install a driver first);
/// otherwise they run on the calling thread.
pub fn cgc_finish(mut cycle: Cycle<'_>) -> CgcOutcome {
    let store = cycle.store;
    {
        let _phase = gc_phase(Metric::CgcMark);
        mark(&cycle);
    }
    // Mark fixpoint reached. Reachability can only shrink from here (SATB
    // covered every hide while the flag was up), so the sweep proceeds
    // with the flag down.
    cycle.state.marking.store(false, Ordering::SeqCst);
    cycle.note(EventKind::CycleMarked);
    mpl_fail::hit_hard("cgc/marked");
    let _phase = gc_phase(Metric::CgcSweep);
    let mut blocks = std::mem::take(&mut cycle.sweepable);
    while !blocks.is_empty() {
        par_each(blocks, &|bid: u32| sweep_packet(&cycle, bid));
        blocks = std::mem::take(&mut *cycle.resweep.lock());
    }
    cycle.note(EventKind::CycleSwept);
    // Clear mark and line bitmaps block-wise: on a clean cycle only the
    // blocks the marked list touched carry set bits; on a dirty one (a
    // packet panicked, the marked list may be incomplete) every live
    // block may.
    let blocks: Vec<u32> = if *cycle.dirty.get_mut() {
        store
            .blocks()
            .live_blocks()
            .into_iter()
            .map(|b| b.id())
            .collect()
    } else {
        let touched: HashSet<u32> = cycle.marked.get_mut().iter().map(|r| r.block()).collect();
        touched.into_iter().collect()
    };
    par_each(blocks, &|bid: u32| clear_block_marks(&cycle, bid));
    cycle.cleared = true;
    let out = cycle.out.get();
    // Index pruning walks the whole index of every heap the sweep killed
    // in — proportional to those heaps' pinned populations, whatever the
    // number of heaps.
    prune_entangled_indexes(store, std::mem::take(cycle.killed_in.get_mut()));
    store.stats().on_cgc(out.swept_bytes);
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
    crate::audit::audit(store, crate::check::Phase::CgcSweep);
    out
}

/// Runs a full mark–sweep cycle over the entangled spaces, rooted at the
/// open slots' root stacks (read after the snapshot handshake): waits for
/// the cycle in flight, if any, then [`cgc_begin`] and [`cgc_finish`] in
/// a row.
pub fn collect_entangled(store: &Store, state: &CgcState) -> CgcOutcome {
    cgc_finish(begin(store, state, state.gate.lock()))
}

/// Sweeps one entangled block by its line marks: only **unmarked** object
/// starts (`obj_start & !mark`, one bitmap word per 64 slots) are
/// visited; marked objects are never touched. Reclaims unmarked
/// entangled-space objects and frees the block outright when its line
/// map is clean and nothing retains it. Returns the block's canonical
/// owner heap if anything in it was killed.
fn sweep_block(store: &Store, bid: u32, out: &mut CgcOutcome) -> Option<u32> {
    mpl_fail::hit_hard("cgc/sweep");
    let block = store.blocks().try_get(bid)?; // else: freed since the listing
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
            events::emit(store.serial(), EventKind::DeadMark, bid, off, DEAD_BY_CGC);
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
    if let Some(budget) = killed_in.and_then(|owner| store.heaps().budget(owner)) {
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
    use mpl_heap::{ObjKind, StoreConfig, Value};

    /// Cycles hit process-wide failpoint sites: a test that arms one must
    /// not fire it in another test's cycle, so the tests that run cycles
    /// take turns.
    static TURN: Mutex<()> = Mutex::new(());

    /// A test store; holding it holds the turn.
    struct Fixture {
        store: Store,
        _turn: MutexGuard<'static, ()>,
    }

    impl std::ops::Deref for Fixture {
        type Target = Store;
        fn deref(&self) -> &Store {
            &self.store
        }
    }

    fn bare_store() -> Store {
        Store::new(StoreConfig {
            block_words: 12,
            ..Default::default()
        })
    }

    fn store() -> Fixture {
        let _turn = TURN.lock();
        Fixture {
            store: bare_store(),
            _turn,
        }
    }

    /// A local collection of `heap` that frees the blocks it emptied, as
    /// the runtime does when nothing else runs.
    fn collect_local(s: &Store, heap: u32, roots: &mut [ObjRef]) {
        for id in crate::lgc::collect_local(s, heap, roots).dead_blocks {
            s.blocks().free(id);
        }
    }

    /// Builds the canonical entanglement scenario: a sibling task pins an
    /// object in `l`, then LGC of `l` shields it in place.
    fn entangle_one(s: &Store) -> (u32, ObjRef) {
        let root = s.new_root_heap();
        let (l, _r) = s.fork_heaps(root);
        let x = s.alloc_values(l, ObjKind::Ref, &[Value::Int(11)]);
        s.pin(x, 0);
        collect_local(s, l, &mut []);
        assert!(s.handle(x).header().in_entangled_space());
        (l, x)
    }

    /// Opens a slot rooting `roots`, the way a running task roots them.
    fn rooted(state: &CgcState, roots: &[ObjRef]) -> Arc<MutatorSlot> {
        let slot = state.open_slot();
        for &r in roots {
            slot.roots.push(r);
        }
        slot
    }

    #[test]
    fn reachable_entangled_object_survives() {
        let s = store();
        let (_l, x) = entangle_one(&s);
        let state = CgcState::new();
        let _slot = rooted(&state, &[x]);
        let out = collect_entangled(&s, &state);
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
        let out = collect_entangled(&s, &state);
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
        collect_local(&s, l, &mut []);
        collect_local(&s, l2, &mut []);
        let garbage_block = garbage[0].block();
        let keeper_block = keepers[0].block();
        assert_ne!(garbage_block, keeper_block);
        assert!(s.blocks().get(garbage_block).is_full());

        // Only keepers[0] is reachable.
        let state = CgcState::new();
        let _slot = rooted(&state, &[keepers[0]]);
        let out = collect_entangled(&s, &state);

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
        let slot = state.open_slot();
        state.marking.store(true, Ordering::SeqCst);
        state.satb_log(&slot, x);
        state.marking.store(false, Ordering::SeqCst);
        // The entry is still in the (paused, open) slot's buffer: the
        // next cycle's drain must honor it there.
        let out = collect_entangled(&s, &state);
        assert_eq!(out.swept_objects, 0, "SATB-logged object survives");
        assert!(!s.handle(x).header().is_dead());
    }

    #[test]
    fn an_entry_outliving_its_block_is_skipped() {
        let s = store();
        let h = s.new_root_heap();
        let y = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(1)]);
        let state = CgcState::new();
        let slot = state.open_slot();
        state.marking.store(true, Ordering::SeqCst);
        state.satb_log(&slot, y);
        state.marking.store(false, Ordering::SeqCst);
        // Nothing roots `y`: the local collection frees its block at once.
        collect_local(&s, h, &mut []);
        assert!(s.blocks().try_get(y.block()).is_none());
        let out = collect_entangled(&s, &state);
        assert_eq!(out.marked_objects, 0);
    }

    #[test]
    fn a_slot_closed_mid_mark_hands_its_log_to_the_cycle() {
        let s = store();
        let (_l, x) = entangle_one(&s);
        let state = CgcState::new();
        let slot = state.open_slot();
        let cycle = cgc_begin(&s, &state).expect("no cycle in flight");
        assert!(state.is_marking());
        // The slot's task runs, hides `x` behind a logged overwrite, and
        // its run ends with the entry still buffered.
        state.exit_safe(&slot);
        state.satb_log(&slot, x);
        state.enter_safe(&slot);
        state.close_slot(&s, &slot);
        assert_eq!(state.live_slots(), 0);
        assert_eq!(*state.satb.lock(), [x], "handed off, not dropped");
        let out = cgc_finish(cycle);
        assert_eq!(out.swept_objects, 0, "the logged object survives");
        assert!(!s.handle(x).header().is_dead());
        assert!(state.satb.lock().is_empty(), "the drain took the log");
    }

    #[test]
    fn safe_window_lets_handshake_complete() {
        let s = store();
        let state = CgcState::new();
        // A slot is opened paused: nobody polls it yet, and the
        // handshake must not wait for it.
        let slot = state.open_slot();
        state.handshake();
        assert_eq!(
            slot.requests(),
            REQ_HANDSHAKE,
            "the bump is raised on the slot"
        );
        state.exit_safe(&slot);
        assert_eq!(slot.safe.load(Ordering::SeqCst), 0, "resumed");
        assert_eq!(
            slot.acked.load(Ordering::SeqCst),
            state.epoch.load(Ordering::SeqCst),
            "resuming acks the epoch the handshake set"
        );
        // A running, never-polling slot would hang the handshake; a
        // safe window must unblock it.
        state.enter_safe(&slot);
        state.handshake();
        state.exit_safe(&slot);
        assert_eq!(slot.safe.load(Ordering::SeqCst), 0);
        // A polling slot acknowledges the next epoch.
        let e0 = state.epoch.load(Ordering::SeqCst);
        state.epoch.fetch_add(1, Ordering::SeqCst);
        state.poll_handshake(&slot);
        assert_eq!(slot.acked.load(Ordering::SeqCst), e0 + 1);
        assert_eq!(slot.requests(), 0, "the poll served the request");
        // A closed slot leaves the handshake, even one left running and
        // never polling: this would spin forever if it were still waited on.
        state.close_slot(&s, &slot);
        assert!(slot.is_closed());
        state.handshake();

        // The root scan visits exactly the open slots: a closed slot's
        // roots are not scanned, so what only it rooted is swept.
        let (_l, kept) = entangle_one(&s);
        let (_l2, dropped) = entangle_one(&s);
        let open = rooted(&state, &[kept]);
        let closed = rooted(&state, &[dropped]);
        state.close_slot(&s, &closed);
        assert_eq!(state.live_slots(), 1);
        assert_eq!(state.root_packets(), [vec![kept]]);
        let out = collect_entangled(&s, &state);
        assert_eq!(out.swept_objects, 1, "only the closed slot's root");
        assert!(!s.handle(kept).header().is_dead());
        assert!(s
            .blocks()
            .try_get(dropped.block())
            .map(|b| b.try_get(dropped.word()).unwrap().header().is_dead())
            .unwrap_or(true));
        state.close_slot(&s, &open);
    }

    /// A heap whose one block a local collection empties: the block id,
    /// retired by the caller.
    fn one_dead_block(s: &Store) -> Vec<u32> {
        let h = s.new_root_heap();
        s.alloc_values(h, ObjKind::Tuple, &[Value::Int(1)]);
        let dead = crate::lgc::collect_local(s, h, &mut []).dead_blocks;
        assert_eq!(dead.len(), 1);
        dead
    }

    #[test]
    fn a_retired_block_waits_for_every_running_slot_to_ack() {
        let s = store();
        let state = CgcState::new();
        let paused = state.open_slot();
        let running = state.open_slot();
        state.exit_safe(&running);
        let dead = one_dead_block(&s);
        state.retire(&s, &dead);
        // The paused slot holds nothing back; the running one has not
        // polled since the retirement.
        assert_eq!(state.retired_blocks(), 1);
        assert!(s.blocks().try_get(dead[0]).is_some());
        assert_eq!(running.requests(), REQ_HANDSHAKE, "asked to ack");
        assert_eq!(paused.requests(), 0, "a paused slot is not asked");
        assert_eq!(state.reclaim(&s), 0, "no poll yet");
        state.poll_handshake(&running);
        assert_eq!(state.reclaim(&s), 1, "freed at the first reclaim after");
        assert!(s.blocks().try_get(dead[0]).is_none());
        assert_eq!(s.stats().snapshot().graveyard_high_water, 1);
        // A slot in a safe window holds nothing back either, and closing
        // the last holder reclaims.
        let dead = one_dead_block(&s);
        state.enter_safe(&running);
        state.exit_safe(&running);
        state.retire(&s, &dead);
        assert_eq!(state.retired_blocks(), 1);
        state.enter_safe(&running);
        state.close_slot(&s, &running);
        assert_eq!(state.retired_blocks(), 0);
        state.close_slot(&s, &paused);
    }

    #[test]
    fn a_block_retired_mid_cycle_outlives_the_cycle() {
        let s = store();
        let state = CgcState::new();
        // A cycle's tracers may hold references into the block from a
        // root snapshot taken before the owner's write-back.
        let cycle = cgc_begin(&s, &state).expect("no cycle in flight");
        let dead = one_dead_block(&s);
        state.retire(&s, &dead);
        assert_eq!(state.retired_blocks(), 1, "no slot, but a cycle");
        assert_eq!(state.reclaim(&s), 0);
        cgc_finish(cycle);
        assert_eq!(state.retired_blocks(), 0, "the cycle's end reclaims");
        assert!(s.blocks().try_get(dead[0]).is_none());
        // A cycle that begins after the retirement does not hold it: its
        // root snapshot postdates the owner's write-back.
        let dead = one_dead_block(&s);
        let slot = state.open_slot();
        state.exit_safe(&slot);
        state.retire(&s, &dead);
        assert_eq!(state.retired_blocks(), 1, "held by the running slot");
        state.enter_safe(&slot);
        let cycle = cgc_begin(&s, &state).expect("no cycle in flight");
        assert!(state.is_marking());
        assert_eq!(state.reclaim(&s), 1);
        cgc_finish(cycle);
        state.close_slot(&s, &slot);
    }

    #[test]
    fn disentangled_heap_sweeps_nothing() {
        let s = store();
        let h = s.new_root_heap();
        let a = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(1)]);
        let state = CgcState::new();
        let _slot = rooted(&state, &[a]);
        let out = collect_entangled(&s, &state);
        assert_eq!(out.swept_objects, 0);
        assert_eq!(out.swept_bytes, 0);
        assert_eq!(out.freed_blocks, 0);
    }

    #[test]
    fn entangled_index_pruned_after_sweep() {
        let s = store();
        let (l, _x) = entangle_one(&s);
        let state = CgcState::new();
        collect_entangled(&s, &state);
        let canon = s.heaps().find(l);
        assert_eq!(s.heaps().info(canon).with(|h| h.entangled_len()), 0);
    }

    #[test]
    fn a_pointer_hidden_between_begin_and_finish_survives() {
        let s = store();
        let (_l, x) = entangle_one(&s);
        let state = CgcState::new();
        // The slot's task runs between the snapshot and the mark: it
        // hides `x` — which no snapshot root reaches — behind a logged
        // overwrite.
        let slot = state.open_slot();
        let cycle = cgc_begin(&s, &state).expect("no cycle in flight");
        state.exit_safe(&slot);
        state.satb_log(&slot, x);
        state.enter_safe(&slot);
        let out = cgc_finish(cycle);
        assert_eq!(out.swept_objects, 0, "the logged pin survives");
        assert!(!s.handle(x).header().is_dead());
        state.close_slot(&s, &slot);
    }

    #[test]
    fn a_second_collector_cannot_begin_while_a_cycle_is_in_flight() {
        let s = store();
        let (_l, x) = entangle_one(&s);
        let state = CgcState::new();
        let slot = rooted(&state, &[x]);
        let cycle = cgc_begin(&s, &state).expect("no cycle in flight");
        // A second begin with *no* roots must not clobber the snapshot:
        // the gate turns it away.
        state.close_slot(&s, &slot);
        assert!(cgc_begin(&s, &state).is_none(), "one cycle at a time");
        assert_eq!(cgc_finish(cycle).swept_objects, 0, "the snapshot kept x");
        // The gate is free again: the next cycle sees x unrooted.
        let cycle = cgc_begin(&s, &state).expect("the gate was released");
        assert_eq!(cgc_finish(cycle).swept_objects, 1);
    }

    #[test]
    fn an_unwound_cycle_ends_like_a_finished_one() {
        let s = store();
        let (_l, live) = entangle_one(&s);
        let (_l2, dead) = entangle_one(&s);
        let state = CgcState::new();
        let slot = rooted(&state, &[live]);
        let plan = mpl_fail::FailPlan::new(7).with(
            "cgc/mark",
            mpl_fail::FailAction::Panic,
            mpl_fail::FailWhen::Nth(1),
        );
        let token = mpl_fail::install(&plan);
        let cycle = cgc_begin(&s, &state).expect("no cycle in flight");
        // A mark the cycle set before it died, and a block retired while
        // it is in flight.
        assert!(s.handle(live).obj().try_mark());
        state.retire(&s, &one_dead_block(&s));
        assert_eq!(state.retired_blocks(), 1, "held by the cycle");
        let res = catch_unwind(AssertUnwindSafe(|| cgc_finish(cycle)));
        mpl_fail::uninstall(token);
        assert!(res.is_err(), "the injected panic escapes the cycle");
        assert!(!state.is_marking(), "flag down");
        // The next retirement's reclaim frees both blocks: no slot runs,
        // and no cycle is in flight any more.
        state.retire(&s, &one_dead_block(&s));
        assert_eq!(state.retired_blocks(), 0, "freed by epoch alone");
        for block in s.blocks().live_blocks() {
            assert!(block.objects().all(|(off, _)| !block.is_marked(off)));
            assert_eq!(block.marked_lines(), 0);
        }
        let out = collect_entangled(&s, &state);
        assert_eq!(out.swept_objects, 1, "exactly the unreferenced pin");
        assert!(!s.handle(live).header().is_dead());
        assert!(s
            .blocks()
            .try_get(dead.block())
            .map(|b| b.try_get(dead.word()).unwrap().header().is_dead())
            .unwrap_or(true));
        state.close_slot(&s, &slot);
    }

    #[test]
    fn marking_traverses_through_normal_objects() {
        let s = store();
        let root = s.new_root_heap();
        let (l, _r) = s.fork_heaps(root);
        let x = s.alloc_values(l, ObjKind::Ref, &[Value::Int(5)]);
        s.pin(x, 0);
        collect_local(&s, l, &mut []);
        // Root -> holder -> x: the path crosses a disentangled object.
        let holder = s.alloc_values(root, ObjKind::Tuple, &[Value::Obj(x)]);
        let state = CgcState::new();
        let _slot = rooted(&state, &[holder]);
        let out = collect_entangled(&s, &state);
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
        let s2 = bare_store();
        let (live2, dead2, holder2) = build(&s2);

        let state1 = CgcState::new();
        let _slot1 = rooted(&state1, &[holder1]);
        let out1 = collect_entangled(&s1, &state1);

        let ex = mpl_sched::Executor::new(4);
        let _driver = ex.install_driver();
        let state2 = CgcState::new();
        let _slot2 = rooted(&state2, &[holder2]);
        let out2 = collect_entangled(&s2, &state2);

        assert_eq!(out1.swept_objects, out2.swept_objects);
        assert_eq!(out1.marked_objects, out2.marked_objects);
        assert!(!s1.handle(live1).header().is_dead());
        assert!(!s2.handle(live2).header().is_dead());
        for (s, dead) in [(&*s1, dead1), (&s2, dead2)] {
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
        let _slot = rooted(&state, &[holder]);
        let out = collect_entangled(&s, &state);
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
