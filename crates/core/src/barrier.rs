//! The entanglement barrier layer: read/write/CAS barriers with an
//! explicit fast-path/slow-path tier split, the pin protocol, and
//! down-pointer remembered-set maintenance.
//!
//! # Tier split
//!
//! Every barriered access is classified into exactly one of two tiers,
//! counted separately in [`mpl_heap::StatsSnapshot`]:
//!
//! * **Fast tier** (`barrier_read_fast` / `barrier_write_fast`): the
//!   access completed using only per-block side metadata and the
//!   task-local block cache — **zero lock acquisitions, zero `Arc`
//!   clones, zero heap-table or registry queries**. The read fast path
//!   is the paper's entanglement-candidates check: one load of the
//!   block's `slow` bitmap (down ∪ cross ∪ pinned, maintained by
//!   `mark_down`/`mark_cross`/`try_pin` and ended by the join and the
//!   unpin) for an object already resident in the block cache. The write fast paths are (1) storing an immediate
//!   under managed semantics, and (2) a pointer store where source and
//!   target both provably live in this task's own leaf heap — the
//!   target classified by the registry's lock-free block-owner index
//!   ([`mpl_heap::BlockRegistry::owner_of`], two dependent loads), the
//!   source by cached block owner; heap ids are globally unique and a leaf stays
//!   canonical while its task runs, so locality can neither create
//!   entanglement nor a down-pointer.
//!
//! * **Slow tier** (`barrier_read_slow` / `barrier_write_slow`): the
//!   full machinery — resolve the target, relate its heap to the task by
//!   their fork-path labels (`mpl_heap::HeapTable::relation`: on the
//!   task's path, or entangled at the LCA depth), pin, buffer
//!   remembered-set entries. The slow tier is semantically complete on
//!   its own; the fast tier is purely an elision.
//!   [`crate::RuntimeConfig::force_slow_path`] disables every fast-tier
//!   exit so a property test can check the two tiers agree.
//!
//! # How long an object stays slow
//!
//! A down-pointer write marks its source `down`, and buffers an entry
//! tagged with the source heap's depth. The pointer is internal once the
//! target's heap is merged into the source's, at the join into the heap
//! at that depth; that join drops the entry and ends the mark
//! (`mpl_heap::Store::join`), so a cache an ancestor keeps reads on the
//! fast tier again between the forks that write it. A store of a pointer
//! into a heap off the source's path marks it `cross`, for life. A pin
//! keeps an object slow until the pin ends (`mpl_heap::block` argues why
//! the join's clear can never leave a pinned object fast).
//!
//! Remembered-set entries are not published directly: the write barrier
//! hands them to `TaskCtx::buffer_remset` (task-private, deduplicated),
//! and batches flush at the task's boundaries — see
//! `crate::mutator::boundary` for the protocol and soundness argument.
//! Both slow tiers are poll points (`TaskCtx::poll`): a read- or
//! write-heavy entangled loop may not allocate for a long stretch.
//!
//! A poll may acknowledge an epoch, and an acknowledgement lets the blocks
//! other heaps' collections retired before it be freed. So no poll point
//! sits between loading a pointer out of the heap and pinning it: at a
//! poll, a task holds only its own, its ancestors' and pinned objects.
//! The read slow tier re-loads the field after a poll that may have
//! acked; the write slow tier polls holding only values the task already
//! held (the source and the written value); an allocation polls after
//! its fields, held values too, were pinned.

use mpl_heap::events::{self, EventKind};
use mpl_heap::{ObjRef, RemsetEntry, Value};

use crate::config::{Mode, READ_WORK, WRITE_WORK};
use crate::mutator::{Mutator, Resolved, ENTANGLEMENT_PANIC};

/// 1-in-k sampling rate for entanglement-provenance recording: at the
/// slow tier's cost (heap-table queries, possible pin CAS) a 1/64 sample
/// adds under one ring write per 64 entangled accesses while still
/// filling the 2048-slot ring within milliseconds on entanglement-heavy
/// workloads.
const PROVENANCE_ONE_IN: u64 = 64;

/// Seed feeding the pure `mpl_fail::decides` hash for the provenance
/// sampling decision — fixed (not plan-derived) so the sample stream is
/// reproducible for a given access ordinal sequence whether or not a
/// chaos plan is armed.
const PROVENANCE_SEED: u64 = 0x70726f76;

impl Mutator<'_> {
    /// Entanglement provenance (sampled): records a
    /// `(reader depth, owner depth, size class, newly pinned?)` tuple
    /// into the `mpl-obs` provenance ring for roughly 1 in
    /// [`PROVENANCE_ONE_IN`] slow-tier entangled accesses. The decision
    /// reuses `mpl-fail`'s seeded `decides` hash over a process-global
    /// access ordinal, so which accesses get sampled is deterministic in
    /// the ordinal sequence; with telemetry disabled the whole thing is
    /// one relaxed load.
    fn provenance_sample(&mut self, target: ObjRef, owner_depth: u16, newly_pinned: bool) {
        if !mpl_obs::enabled() {
            return;
        }
        use std::sync::atomic::{AtomicU64, Ordering};
        static ORDINAL: AtomicU64 = AtomicU64::new(0);
        let n = ORDINAL.fetch_add(1, Ordering::Relaxed);
        if !mpl_fail::decides(
            PROVENANCE_SEED,
            "barrier/provenance",
            mpl_fail::FailWhen::OneIn(PROVENANCE_ONE_IN),
            n,
        ) {
            return;
        }
        let size_class = self
            .resolve(Value::Obj(target), "provenance sample")
            .block()
            .size_class() as u8;
        mpl_obs::provenance_record(mpl_obs::ProvenanceSample {
            reader_depth: self.ctx.heap.depth() + 1,
            owner_depth,
            size_class,
            pinned: newly_pinned,
        });
    }
    /// Re-resolves a possibly stale (forwarded) object value.
    #[inline]
    pub(crate) fn fix_stale(&mut self, v: Value) -> Value {
        match v {
            Value::Obj(_) => Value::Obj(self.resolve_at(v, "stale fix").r),
            imm => imm,
        }
    }

    /// Pins the object resolved at `at` at `level`, registering it on
    /// first pin. Avoids a registry round-trip on the (common)
    /// already-pinned steady state. Returns the pinned location
    /// (forwarding chased), or `None` if the target was already
    /// dead-marked — the owner overwrote the field this pointer was loaded
    /// from and its collection reclaimed the object before the pin landed;
    /// nothing was pinned and the caller must re-load the field.
    pub(crate) fn pin_cached(&mut self, mut at: Resolved, level: u16) -> Option<ObjRef> {
        use mpl_heap::PinOutcome;
        // Every remote acquisition funnels through here (read barrier,
        // write barrier, observe, allocation barrier): from now on this
        // task may hold raw remote pointers, so its allocations must be
        // scanned (see `alloc_pin_remote`).
        self.ctx.saw_remote = true;
        loop {
            let (r, obj) = (at.r, self.view(at));
            // Steady state: already pinned at (or below) this level — a
            // single header load, no CAS.
            let hdr = obj.header();
            if hdr.is_pinned() && hdr.pin_level() <= level && !hdr.is_forwarded() {
                return Some(r);
            }
            match self.rt.store().try_pin(obj, r, level) {
                PinOutcome::AlreadyPinned { .. } => return Some(r),
                PinOutcome::NewlyPinned => {
                    self.ctx.log_satb(r);
                    self.ctx.request_cgc_poll();
                    return Some(r);
                }
                PinOutcome::Forwarded(next) => {
                    at = self.resolve_at(Value::Obj(next), "pin target");
                }
                PinOutcome::Dead => return None,
            }
        }
    }

    /// The allocation barrier (entangled tasks only): a task holding raw
    /// remote pointers may store one into an object it is allocating,
    /// creating a cross-heap edge that neither the read/write barriers
    /// nor the remembered set ever see — the target's heap could then
    /// dead-mark it while this edge still reaches it (the historical
    /// "traced a dead object" race). Pinning each remote pointee at the
    /// heaps' LCA records the edge exactly as the write barrier records
    /// a remote store; the pin resolves at that join like any other.
    pub(crate) fn alloc_pin_remote(&mut self, fields: &mut [Value]) {
        for slot in fields.iter_mut() {
            let raw = *slot;
            let Value::Obj(_) = raw else { continue };
            let t = self.resolve_at(raw, "allocation barrier");
            if let (_, _, Some(level)) = self.ctx.relate(self.view(t).block().owner()) {
                self.ctx.pending.entangled_writes += 1;
                let pinned = self.pin_held(t, level);
                let serial = self.rt.store().serial();
                events::emit_obj(serial, EventKind::AllocPin, pinned, u32::from(level));
                *slot = Value::Obj(pinned);
            } else if Value::Obj(t.r) != raw {
                *slot = Value::Obj(t.r); // chased forwarding: keep the fresh location
            }
        }
    }

    /// The read barrier. The fast tier counts nothing of its own: it is
    /// `barrier_reads − barrier_read_slow`, derived when the task's
    /// counters flush.
    pub(crate) fn mut_read(&mut self, objv: Value, idx: usize) -> Value {
        self.ctx.work += READ_WORK;
        let at = self.resolve_at(objv, "mutable read");
        let obj = self.view(at);
        debug_assert!(
            obj.kind().is_mutable_boxed(),
            "mutable read on {:?}",
            obj.kind()
        );
        let cfg = self.rt.config();
        let raw = obj.field(idx);
        if cfg.mode == Mode::NoEntanglementBarrier {
            return self.fix_stale(raw);
        }
        let slow = obj.is_slow();
        self.ctx.pending.barrier_reads += 1;
        // FAST TIER, entanglement-candidates check (ICFP 2022): an object
        // that holds no down-pointer its join has not yet made internal,
        // never received a cross-pointer and is not pinned can only hold
        // pointers up its own path — no remote check needed. Every remote
        // acquisition necessarily flows through a slow object, so nothing
        // is missed. One shifted load of the block's `slow` side-metadata
        // bitmap (down ∪ cross ∪ pinned); no table, no lock, no Arc
        // clone, no header traffic.
        if !cfg.force_slow_path && !slow {
            return raw;
        }
        // An immediate loaded from a slow object still never
        // touches the heap table: fast tier by construction. (Under
        // `force_slow_path` it counts as slow so the diagnostic mode
        // reports zero fast-tier entries.)
        let Value::Obj(loaded) = raw else {
            if cfg.force_slow_path {
                self.ctx.pending.barrier_read_slow += 1;
            }
            return raw;
        };
        // SLOW TIER: resolve the target and query the heap table. (Counted
        // before the poll, so an access a cancellation unwinds out of is
        // classified like every other.) No acknowledgement while holding
        // `loaded`: it may point into a block another heap's collection
        // just emptied, which an ack would let be freed before the pin
        // below chases its forwarding word. So a poll that may ack loads
        // the field again afterwards.
        self.ctx.pending.barrier_read_slow += 1;
        mpl_fail::hit_hard("barrier/read_loaded");
        let loaded = if self.ctx.slot.requests() == 0 {
            loaded
        } else {
            self.ctx.poll();
            match self.view(at).field(idx) {
                Value::Obj(r) => r,
                imm => return imm,
            }
        };
        mpl_fail::hit_hard("barrier/read_slow");
        let _t = mpl_obs::timer(mpl_obs::Metric::BarrierSlow);
        self.acquire_loaded(at.r, idx, loaded)
    }

    /// The read side's entanglement handling for a pointer just `loaded`
    /// from field `idx` of the mutable object at `src` (by a read,
    /// or observed by a failed CAS): classify the target against this
    /// task's path, pin a remote target at the LCA, and repair the field
    /// if forwarding was chased.
    ///
    /// Load-then-pin is not atomic: the owner can overwrite the field and
    /// its local collection can reclaim the old target in between. The
    /// pin CAS and the collector's kill serialize on the target's header,
    /// so a lost race surfaces as a refused pin — re-load the field and
    /// go again; the read linearizes at the final load.
    fn acquire_loaded(&mut self, src: ObjRef, idx: usize, mut loaded: ObjRef) -> Value {
        loop {
            let raw = Value::Obj(loaded);
            let t = self.resolve_at(raw, "read target");
            let (_, t_depth, lca) = self.ctx.relate(self.view(t).block().owner());
            let acquired = match lca {
                None => Some(t.r), // local target
                Some(level) => {
                    // Entangled read: the paper's central event.
                    if self.rt.config().mode == Mode::DetectOnly {
                        panic!("{ENTANGLEMENT_PANIC}");
                    }
                    self.ctx.pending.entangled_reads += 1;
                    let newly = mpl_obs::enabled() && !self.view(t).header().is_pinned();
                    let pinned = self.pin_cached(t, level);
                    if let Some(p) = pinned {
                        self.provenance_sample(p, t_depth, newly);
                    }
                    pinned
                }
            };
            if acquired == Some(loaded) {
                return raw;
            }
            // Both continuations are rare, so resolving the source again is
            // fine: repair a stale field after chasing forwarding, or
            // re-load it after a lost race.
            let obj = self.resolve(Value::Obj(src), "mutable read");
            match acquired {
                Some(t) => {
                    let _ = obj.cas_field(idx, raw, Value::Obj(t));
                    return Value::Obj(t);
                }
                None => match obj.field(idx) {
                    Value::Obj(r) => loaded = r,
                    imm => return imm,
                },
            }
        }
    }

    pub(crate) fn mut_write(&mut self, objv: Value, idx: usize, v: Value) {
        let at = self.write_barrier(objv, idx, v);
        let obj = self.view(at);
        // Deletion barrier: log the overwritten pointer *before* the
        // store. `is_marking` is an Acquire load of the flag the
        // collector raises before its snapshot handshake; a mutator that
        // misses the flag here has not yet acked the handshake epoch, so
        // the snapshot has not been taken and the old value is still
        // reachable from the roots scan. See the epoch protocol in
        // `mpl_gc::cgc`.
        if self.rt.cgc_state().is_marking() {
            if let Some(old) = obj.field_word(idx).pointer() {
                self.ctx.log_satb(old);
            }
        }
        obj.set_field(idx, v);
    }

    pub(crate) fn mut_cas(
        &mut self,
        objv: Value,
        idx: usize,
        expected: Value,
        new: Value,
    ) -> Result<(), Value> {
        let at = self.write_barrier(objv, idx, new);
        let obj = self.view(at);
        if self.rt.cgc_state().is_marking() {
            if let Value::Obj(old) = expected {
                self.ctx.log_satb(old);
            }
        }
        // A CAS is also a read: the observed value may expose a remote
        // pointer on failure.
        match obj.cas_field(idx, expected, new) {
            Ok(()) => Ok(()),
            Err(actual) => Err(self.observe_read(at.r, idx, actual)),
        }
    }

    /// The write barrier: detects entangled writes, pins pointees that
    /// become cross-visible, and maintains the down-pointer remembered
    /// set. Returns the resolved target, for the caller's store to
    /// [`Mutator::view`]. Like the read barrier's, the fast tier is
    /// `barrier_writes − barrier_write_slow`, derived at the counter flush.
    fn write_barrier(&mut self, objv: Value, idx: usize, v: Value) -> Resolved {
        self.ctx.work += WRITE_WORK;
        let src = self.resolve_at(objv, "mutable write");
        debug_assert!(
            self.view(src).kind().is_mutable_boxed(),
            "mutable write on immutable object"
        );
        let cfg = self.rt.config();
        let mode = cfg.mode;
        let store = self.rt.store();
        self.ctx.pending.barrier_writes += 1;
        // FAST TIER exit 1: under managed semantics, storing an immediate
        // cannot create entanglement (no pointer crosses), so the
        // locality checks are skipped entirely. DetectOnly must still
        // check (any remote write is a detected entanglement in prior
        // MPL).
        if !cfg.force_slow_path && mode == Mode::Managed && !matches!(v, Value::Obj(_)) {
            return src;
        }
        // FAST TIER exit 2: a pointer store where source and target both
        // live in this task's own leaf heap. Block owner ids are written
        // once at block allocation and heap ids are never reused, so
        // `owner == leaf` proves leaf-heap residency without touching the
        // heap table; equal depths mean no down-pointer and locality
        // means no entanglement, in every mode. (Forwarding never leaves
        // a heap, so the check holds even for a stale target ref — and
        // the slow tier stores the caller's `v` unresolved in the local
        // case too.) The target is classified by the registry's owner
        // index — a segment load and an entry load, no registry lock, and
        // no cache traffic that could evict the source's slot (which the
        // caller's store views).
        if !cfg.force_slow_path && matches!(v, Value::Obj(_)) {
            let leaf = self.ctx.heap.leaf();
            if let Value::Obj(t) = v {
                if self.view(src).block().owner() == leaf
                    && store.blocks().owner_of(t.block()) == Some(leaf)
                {
                    return src;
                }
            }
        }
        // SLOW TIER: full resolve + label-relation machinery. (Counted
        // before the poll, as on the read side.)
        self.ctx.pending.barrier_write_slow += 1;
        self.ctx.poll();
        mpl_fail::hit_hard("barrier/write_slow");
        let _t = mpl_obs::timer(mpl_obs::Metric::BarrierSlow);
        let (o_heap, o_depth, o_lca) = self.ctx.relate(self.view(src).block().owner());
        if o_lca.is_some() {
            match mode {
                Mode::DetectOnly => panic!("{ENTANGLEMENT_PANIC}"),
                Mode::NoEntanglementBarrier => {}
                Mode::Managed => {
                    self.ctx.pending.entangled_writes += 1;
                    if let Value::Obj(_) = v {
                        let t = self.resolve_at(v, "written value");
                        // The written pointer becomes visible to the
                        // remote object's owner: pin at the heaps' LCA.
                        let level = store.entanglement_level(&store.heaps().label(o_heap), t.r);
                        let _ = self.pin_held(t, level);
                    }
                }
            }
            return self.resolve_at(Value::Obj(src.r), "mutable write");
        }
        if let Value::Obj(_) = v {
            let t = self.resolve_at(v, "written value");
            let (t_heap, t_depth, t_lca) = self.ctx.relate(self.view(t).block().owner());
            if t_lca.is_none() {
                if t_depth > o_depth {
                    // Down-pointer: root for the deeper heap's collections,
                    // and the written-to object becomes an entanglement
                    // candidate until the join into its heap — its reads
                    // must check. (Resolve again: the target lookup above
                    // may have evicted the source's cache slot.) The entry
                    // goes to the task-private buffer, published at the
                    // next safepoint flush, under the source's depth.
                    let src = self.resolve_at(Value::Obj(src.r), "mutable write");
                    self.view(src).mark_down();
                    self.ctx.buffer_remset(
                        t_heap,
                        o_depth,
                        RemsetEntry {
                            src: src.r,
                            field: idx as u32,
                        },
                    );
                }
            } else if mode == Mode::Managed {
                // Storing an (already remote, hence pinned-at-acquisition)
                // pointer: ensure its level covers this object's readers,
                // and mark the holder a candidate.
                self.ctx.pending.entangled_writes += 1;
                let level = store.entanglement_level(&store.heaps().label(o_heap), t.r);
                let newly = mpl_obs::enabled() && !self.view(t).header().is_pinned();
                let pinned = self.pin_held(t, level);
                self.provenance_sample(pinned, t_depth, newly);
                let src = self.resolve_at(Value::Obj(src.r), "mutable write");
                self.view(src).mark_cross();
                return src;
            } else if mode == Mode::DetectOnly {
                panic!("{ENTANGLEMENT_PANIC}");
            }
            return self.resolve_at(Value::Obj(src.r), "mutable write");
        }
        src
    }

    /// Applies the read-barrier's entanglement handling to a value
    /// observed from a failed CAS on field `idx` of the object at `src`.
    fn observe_read(&mut self, src: ObjRef, idx: usize, actual: Value) -> Value {
        match actual {
            Value::Obj(r) if self.rt.config().mode != Mode::NoEntanglementBarrier => {
                self.acquire_loaded(src, idx, r)
            }
            other => self.fix_stale(other),
        }
    }

    /// Pins a pointer this task already *holds* (a value being written or
    /// allocated into an object). Held remote pointers were pinned at
    /// acquisition and stay pinned past this task's lifetime, so a dead
    /// target is not a race to retry — there is no field to re-load — and
    /// the reference is passed through unpinned.
    fn pin_held(&mut self, t: Resolved, level: u16) -> ObjRef {
        self.pin_cached(t, level).unwrap_or(t.r)
    }
}
