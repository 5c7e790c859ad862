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
//!   block's `slow` bitmap (suspect ∪ pinned, maintained by
//!   `mark_suspect`/`try_pin`) for an object already resident in the
//!   block cache. The write fast paths are (1) storing an immediate
//!   under managed semantics, and (2) a pointer store where source and
//!   target both provably live in this task's own leaf heap — the
//!   target classified by the SFT-style block table
//!   ([`mpl_heap::SftTable::owner_of`], one shifted load), the source by
//!   cached block owner; heap ids are globally unique and a leaf stays
//!   canonical while its task runs, so locality can neither create
//!   entanglement nor a down-pointer.
//!
//! * **Slow tier** (`barrier_read_slow` / `barrier_write_slow`): the
//!   full machinery — locate the target, query the heap table for the
//!   path relation / LCA, pin, buffer remembered-set entries. The slow
//!   tier is semantically complete on its own; the fast tier is purely
//!   an elision. [`crate::RuntimeConfig::force_slow_path`] disables
//!   every fast-tier exit so a property test can check the two tiers
//!   agree.
//!
//! Remembered-set entries are not published directly: the write barrier
//! hands them to `TaskCtx::buffer_remset` (task-private, deduplicated),
//! and batches flush at the task's boundaries — see
//! `crate::mutator::boundary` for the protocol and soundness argument.
//! Both slow tiers are poll points (`TaskCtx::poll`): a read- or
//! write-heavy entangled loop may not allocate for a long stretch.

use mpl_heap::events::{self, EventKind};
use mpl_heap::{ObjRef, RemsetEntry, Value};

use crate::config::Mode;
use crate::mutator::{Mutator, ENTANGLEMENT_PANIC};

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
        mpl_obs::provenance_record(mpl_obs::ProvenanceSample {
            reader_depth: self.ctx.path.len() as u16,
            owner_depth,
            size_class: self.cached_block(target).size_class() as u8,
            pinned: newly_pinned,
        });
    }
    /// Re-resolves a possibly stale (forwarded) object value.
    pub(crate) fn fix_stale(&mut self, v: Value) -> Value {
        match v {
            Value::Obj(_) => Value::Obj(self.locate_ref(v, "stale fix")),
            imm => imm,
        }
    }

    /// Pins the object at `r` (which must be cache-resident from a
    /// preceding `locate_ref`) at `level`, registering it on first pin.
    /// Avoids a registry round-trip on the (common) already-pinned
    /// steady state. Returns the pinned location (forwarding chased), or
    /// `None` if the target was already dead-marked — the owner overwrote
    /// the field this pointer was loaded from and its collection reclaimed
    /// the object before the pin landed; nothing was pinned and the
    /// caller must re-load the field.
    pub(crate) fn pin_cached(&mut self, mut r: ObjRef, level: u16) -> Option<ObjRef> {
        use mpl_heap::PinOutcome;
        // Every remote acquisition funnels through here (read barrier,
        // write barrier, observe, allocation barrier): from now on this
        // task may hold raw remote pointers, so its allocations must be
        // scanned (see `alloc_pin_remote`).
        self.ctx.saw_remote = true;
        loop {
            let block = self.cached_block(r);
            let obj = block.get(r.word());
            // Steady state: already pinned at (or below) this level — a
            // single header load, no CAS.
            let hdr = obj.header();
            if hdr.is_pinned() && hdr.pin_level() <= level && !hdr.is_forwarded() {
                return Some(r);
            }
            match obj.try_pin(level) {
                PinOutcome::AlreadyPinned { .. } => return Some(r),
                PinOutcome::NewlyPinned => {
                    self.rt.store().on_newly_pinned(block, r, level);
                    self.ctx.log_satb(r);
                    self.rt.request_cgc_poll();
                    return Some(r);
                }
                PinOutcome::Forwarded(next) => r = self.locate_ref(Value::Obj(next), "pin target"),
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
            let t = self.locate_ref(raw, "allocation barrier");
            let owner = self.cached_block(t).owner();
            let (_, _, lca) = self.rt.store().heaps().path_relation(&self.ctx.path, owner);
            if let Some(level) = lca {
                self.ctx.pending.entangled_writes += 1;
                let pinned = self.pin_held(t, level);
                events::emit_obj(EventKind::AllocPin, pinned, u32::from(level));
                *slot = Value::Obj(pinned);
            } else if Value::Obj(t) != raw {
                *slot = Value::Obj(t); // chased forwarding: keep the fresh location
            }
        }
    }

    pub(crate) fn mut_read(&mut self, objv: Value, idx: usize) -> Value {
        self.ctx.work += self.rt.config().work.read;
        let src = self.locate_ref(objv, "mutable read");
        let obj = self.cached_block(src).get(src.word());
        debug_assert!(
            obj.kind().is_mutable_boxed(),
            "mutable read on {:?}",
            obj.kind()
        );
        let cfg = self.rt.config();
        if cfg.mode == Mode::NoEntanglementBarrier {
            let raw = obj.field(idx);
            return self.fix_stale(raw);
        }
        let raw = obj.field(idx);
        let slow = obj.is_slow();
        self.ctx.pending.barrier_reads += 1;
        // FAST TIER, entanglement-candidates check (ICFP 2022): an object
        // that never received a down-pointer write and is not pinned can
        // only hold pointers up its own path — no remote check needed.
        // Every remote acquisition necessarily flows through a suspect or
        // pinned object, so nothing is missed. One shifted load of the
        // block's `slow` side-metadata bitmap (suspect ∪ pinned); no
        // table, no lock, no Arc clone, no header traffic.
        if !cfg.force_slow_path && cfg.suspects && !slow {
            self.ctx.pending.barrier_read_fast += 1;
            return raw;
        }
        // An immediate loaded from a suspect/pinned object still never
        // touches the heap table: fast tier by construction. (Under
        // `force_slow_path` it counts as slow so the diagnostic mode
        // reports zero fast-tier entries.)
        let Value::Obj(loaded) = raw else {
            if cfg.force_slow_path {
                self.ctx.pending.barrier_read_slow += 1;
            } else {
                self.ctx.pending.barrier_read_fast += 1;
            }
            return raw;
        };
        // SLOW TIER: locate the target and query the heap table.
        self.ctx.poll();
        self.ctx.pending.barrier_read_slow += 1;
        mpl_fail::hit_hard("barrier/read_slow");
        let _t = mpl_obs::timer(mpl_obs::Metric::BarrierSlow);
        self.acquire_loaded(objv, idx, loaded)
    }

    /// The read side's entanglement handling for a pointer just `loaded`
    /// from field `idx` of the mutable object `objv` (by a read,
    /// or observed by a failed CAS): classify the target against this
    /// task's path, pin a remote target at the LCA, and repair the field
    /// if forwarding was chased.
    ///
    /// Load-then-pin is not atomic: the owner can overwrite the field and
    /// its local collection can reclaim the old target in between. The
    /// pin CAS and the collector's kill serialize on the target's header,
    /// so a lost race surfaces as a refused pin — re-load the field and
    /// go again; the read linearizes at the final load.
    fn acquire_loaded(&mut self, objv: Value, idx: usize, mut loaded: ObjRef) -> Value {
        loop {
            let raw = Value::Obj(loaded);
            let t = self.locate_ref(raw, "read target");
            let (_, t_depth, lca) = self
                .rt
                .store()
                .heaps()
                .path_relation(&self.ctx.path, self.cached_block(t).owner());
            let acquired = match lca {
                None => Some(t), // local target
                Some(level) => {
                    // Entangled read: the paper's central event.
                    if self.rt.config().mode == Mode::DetectOnly {
                        panic!("{ENTANGLEMENT_PANIC}");
                    }
                    self.ctx.pending.entangled_reads += 1;
                    let newly = mpl_obs::enabled()
                        && !self.cached_block(t).get(t.word()).header().is_pinned();
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
            // Both continuations are rare, so re-locating the source is
            // fine: repair a stale field after chasing forwarding, or
            // re-load it after a lost race.
            let src = self.locate_ref(objv, "mutable read");
            let obj = self.cached_block(src).get(src.word());
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
        let r = self.write_barrier(objv, idx, v);
        let obj = self.cached_block(r).get(r.word());
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
        let r = self.write_barrier(objv, idx, new);
        let obj = self.cached_block(r).get(r.word());
        if self.rt.cgc_state().is_marking() {
            if let Value::Obj(old) = expected {
                self.ctx.log_satb(old);
            }
        }
        // A CAS is also a read: the observed value may expose a remote
        // pointer on failure.
        match obj.cas_field(idx, expected, new) {
            Ok(()) => Ok(()),
            Err(actual) => Err(self.observe_read(objv, idx, actual)),
        }
    }

    /// The write barrier: detects entangled writes, pins pointees that
    /// become cross-visible, and maintains the down-pointer remembered
    /// set. Returns the resolved target, guaranteed cache-resident.
    fn write_barrier(&mut self, objv: Value, idx: usize, v: Value) -> ObjRef {
        self.ctx.work += self.rt.config().work.write;
        let src = self.locate_ref(objv, "mutable write");
        debug_assert!(
            self.cached_block(src)
                .get(src.word())
                .kind()
                .is_mutable_boxed(),
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
            self.ctx.pending.barrier_write_fast += 1;
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
        // case too.) The target is classified by the SFT block table —
        // one shifted load into the side-metadata segment array, no
        // registry lock, and no cache traffic that could evict the
        // source's slot (which callers need resident).
        if !cfg.force_slow_path && matches!(v, Value::Obj(_)) {
            let leaf = self.ctx.leaf_heap();
            if let Value::Obj(t) = v {
                if self.cached_block(src).owner() == leaf
                    && store.sft().owner_of(t.block()) == Some(leaf)
                {
                    self.ctx.pending.barrier_write_fast += 1;
                    return src;
                }
            }
        }
        // SLOW TIER: full locate + path-relation machinery. (Re-locate
        // the source: fast-exit-2 probing may have evicted it.)
        self.ctx.poll();
        self.ctx.pending.barrier_write_slow += 1;
        mpl_fail::hit_hard("barrier/write_slow");
        let _t = mpl_obs::timer(mpl_obs::Metric::BarrierSlow);
        let src = self.locate_ref(objv, "mutable write");
        let (o_heap, o_depth, o_lca) = store
            .heaps()
            .path_relation(&self.ctx.path, self.cached_block(src).owner());
        let o_local = o_lca.is_none();
        if !o_local {
            match mode {
                Mode::DetectOnly => panic!("{ENTANGLEMENT_PANIC}"),
                Mode::NoEntanglementBarrier => {}
                Mode::Managed => {
                    self.ctx.pending.entangled_writes += 1;
                    if let Value::Obj(_) = v {
                        let t = self.locate_ref(v, "written value");
                        // The written pointer becomes visible to the
                        // remote object's owner: pin at the heaps' LCA.
                        let t_heap = store.heaps().find(self.cached_block(t).owner());
                        let level = store.heaps().lca_of(o_heap, t_heap);
                        let _ = self.pin_held(t, level);
                    }
                }
            }
            return self.locate_ref(objv, "mutable write");
        }
        if let Value::Obj(_) = v {
            let t = self.locate_ref(v, "written value");
            let (t_heap, t_depth, t_lca) = store
                .heaps()
                .path_relation(&self.ctx.path, self.cached_block(t).owner());
            let t_local = t_lca.is_none();
            if t_local {
                if t_depth > o_depth {
                    // Down-pointer: root for the deeper heap's collections,
                    // and the written-to object becomes an entanglement
                    // candidate — its reads must check. (Re-locate: the
                    // target lookup above may have evicted the source's
                    // cache slot.) The entry goes to the task-private
                    // buffer, published at the next safepoint flush.
                    let src = self.locate_ref(objv, "mutable write");
                    self.cached_block(src).get(src.word()).mark_suspect();
                    self.ctx.buffer_remset(
                        t_heap,
                        RemsetEntry {
                            src,
                            field: idx as u32,
                        },
                    );
                }
            } else if mode == Mode::Managed {
                // Storing an (already remote, hence pinned-at-acquisition)
                // pointer: ensure its level covers this object's readers,
                // and mark the holder a candidate.
                self.ctx.pending.entangled_writes += 1;
                let level = store.heaps().lca_of(o_heap, t_heap);
                let newly =
                    mpl_obs::enabled() && !self.cached_block(t).get(t.word()).header().is_pinned();
                let pinned = self.pin_held(t, level);
                self.provenance_sample(pinned, t_depth, newly);
                let src = self.locate_ref(objv, "mutable write");
                self.cached_block(src).get(src.word()).mark_suspect();
                return src;
            } else if mode == Mode::DetectOnly {
                panic!("{ENTANGLEMENT_PANIC}");
            }
            return self.locate_ref(objv, "mutable write");
        }
        src
    }

    /// Applies the read-barrier's entanglement handling to a value
    /// observed from a failed CAS on field `idx` of `objv`.
    fn observe_read(&mut self, objv: Value, idx: usize, actual: Value) -> Value {
        match actual {
            Value::Obj(r) if self.rt.config().mode != Mode::NoEntanglementBarrier => {
                self.acquire_loaded(objv, idx, r)
            }
            other => self.fix_stale(other),
        }
    }

    /// Pins a pointer this task already *holds* (a value being written or
    /// allocated into an object). Held remote pointers were pinned at
    /// acquisition and stay pinned past this task's lifetime, so a dead
    /// target is not a race to retry — there is no field to re-load — and
    /// the reference is passed through unpinned.
    fn pin_held(&mut self, t: ObjRef, level: u16) -> ObjRef {
        self.pin_cached(t, level).unwrap_or(t)
    }
}
