//! Allocation into the task's leaf heap: the bump fast path, the slow
//! path that runs the collection triggers and refills a size class, and
//! the memory-pressure ladder. Every allocation is a poll point; the
//! collections an allocation may trigger go through the `collect_local` /
//! `cgc_safepoint` boundaries.
//!
//! The fast path touches only state the task owns: one load of its slot's
//! request word, one subtract-and-branch on its allocation allowance, one
//! room compare in its region for the size class, the `saw_remote`
//! branch, then the field stores and the header publication — no locked
//! instruction and no copy. Anything else — a request on the slot, an
//! allowance crossing zero, a full region, a task holding remote pointers
//! — takes the slow path, which runs every check in a fixed order on
//! fields staged where a collection can move them, so each collection
//! fires at the same allocation whichever path came before it.

use mpl_heap::{
    size_class, Counter, ObjKind, ObjRef, Region, Value, Word, OBJECT_HEADER_WORDS,
    OBJECT_OVERHEAD_BYTES,
};

use super::{AllocError, Mutator};
use crate::config::{Mode, ALLOC_WORK};

/// What an allocation writes into the object's fields.
#[derive(Clone, Copy)]
enum Payload<'a> {
    /// These values, in order.
    Values(&'a [Value]),
    /// `len` copies of one value.
    Fill(usize, Value),
    /// `len` zero raw words: a fresh reservation already holds them.
    Raw(usize),
}

impl Payload<'_> {
    #[inline(always)]
    fn len(self) -> usize {
        match self {
            Payload::Values(vals) => vals.len(),
            Payload::Fill(len, _) | Payload::Raw(len) => len,
        }
    }
}

/// Writes `vals` — or nothing, for a raw array — into the reservation at
/// `off` and publishes it.
fn publish_staged(
    region: &mut Region,
    off: u32,
    kind: ObjKind,
    len: usize,
    vals: &[Value],
) -> ObjRef {
    for (i, &v) in vals.iter().enumerate() {
        region.write(off, i, Word::encode(v));
    }
    region.publish(off, kind, len)
}

impl Mutator<'_> {
    #[inline(always)]
    fn alloc(&mut self, kind: ObjKind, payload: Payload<'_>) -> Value {
        match self.try_bump(kind, payload) {
            Some(r) => Value::Obj(r),
            None => self.alloc_slow(kind, payload),
        }
    }

    /// The fast path: a reservation in the task's region for the
    /// object's size class, encoded straight into the block. `None` sends
    /// the allocation down the slow path with nothing charged.
    #[inline(always)]
    fn try_bump(&mut self, kind: ObjKind, payload: Payload<'_>) -> Option<ObjRef> {
        let len = payload.len();
        let nwords = OBJECT_HEADER_WORDS + len;
        let size = OBJECT_OVERHEAD_BYTES + 8 * len;
        let pointers = !matches!(payload, Payload::Raw(_));
        let ctx = &mut self.ctx;
        if ctx.slot.requests() != 0 || size as isize >= ctx.allowance {
            return None;
        }
        // Allocation barrier: only tasks that have already acquired a
        // remote pointer (`saw_remote`) can be holding one to store, so
        // disentangled tasks pay exactly this one predictable branch.
        if pointers && ctx.saw_remote && self.rt.config().mode == Mode::Managed {
            return None;
        }
        let region = ctx.alloc_cache[size_class(nwords)].as_mut()?;
        let off = region.reserve(nwords)?;
        let r = match payload {
            Payload::Values(vals) => publish_staged(region, off, kind, len, vals),
            Payload::Fill(_, v) => {
                let w = Word::encode(v);
                for i in 0..len {
                    region.write(off, i, w);
                }
                region.publish(off, kind, len)
            }
            Payload::Raw(_) => region.publish(off, kind, len),
        };
        ctx.allowance -= size as isize;
        ctx.alloc_since += size;
        ctx.work += ALLOC_WORK + len as u64 / 4;
        ctx.pending.allocs += 1;
        ctx.pending.alloc_bytes += size as u64;
        Some(r)
    }

    /// The slow path: stages the fields in the task's scratch buffer —
    /// from here on they are roots of any collection the allocation runs,
    /// updated in place — and allocates from there.
    #[cold]
    #[inline(never)]
    fn alloc_slow(&mut self, kind: ObjKind, payload: Payload<'_>) -> Value {
        let mut vals = std::mem::take(&mut self.ctx.scratch_vals);
        vals.clear();
        match payload {
            Payload::Values(fields) => vals.extend_from_slice(fields),
            Payload::Fill(len, v) => vals.resize(len, v),
            Payload::Raw(_) => {}
        }
        let r = self.alloc_staged(kind, payload.len(), &mut vals);
        self.ctx.scratch_vals = vals;
        Value::Obj(r)
    }

    /// Runs the allocation's checks in order — charge, allocation barrier,
    /// pressure ladder, LGC trigger, poll — then reserves (refilling the
    /// size class if need be), answers a pending CGC request, and rearms
    /// the allowance. `fields` is empty for a raw array.
    fn alloc_staged(&mut self, kind: ObjKind, len: usize, fields: &mut [Value]) -> ObjRef {
        let size = OBJECT_OVERHEAD_BYTES + 8 * len;
        self.ctx.work += ALLOC_WORK + len as u64 / 4;
        self.ctx.alloc_since += size;
        if self.ctx.saw_remote && self.rt.config().mode == Mode::Managed {
            self.alloc_pin_remote(fields);
        }
        self.ensure_heap_budget(size, fields);
        if self.ctx.alloc_since >= self.ctx.lgc_budget {
            self.ctx.collect_local(fields);
        }
        if self.ctx.alloc_since == 0 {
            // A collection above ran before the object exists and
            // restarted the debt that counted it: the heap holds it as if
            // that collection had kept it, so a join above still charges
            // it and the budget grows with it.
            self.ctx.hold(size);
        }
        self.ctx.poll();
        let nwords = OBJECT_HEADER_WORDS + len;
        let cached = self.ctx.alloc_cache[size_class(nwords)]
            .as_mut()
            .and_then(|region| Some((region.reserve(nwords)?, region)));
        let r = match cached {
            Some((off, region)) => {
                let r = publish_staged(region, off, kind, len, fields);
                self.ctx.pending.allocs += 1;
                self.ctx.pending.alloc_bytes += size as u64;
                if self.ctx.slot.requests() & mpl_gc::REQ_CGC != 0 {
                    self.ctx.cgc_safepoint(&[], false);
                }
                r
            }
            None => self.refill(kind, len, fields),
        };
        self.ctx.rearm();
        r
    }

    /// The store path: retires the size class's exhausted region, takes
    /// the heap's next one from [`mpl_heap::Store::region`] — adopting
    /// only the refilled class — and allocates there; an object larger
    /// than a block gets a dedicated block and leaves the class alone.
    /// Then a CGC safepoint, which publishes the task's counters.
    fn refill(&mut self, kind: ObjKind, len: usize, fields: &[Value]) -> ObjRef {
        let size = OBJECT_OVERHEAD_BYTES + 8 * len;
        if mpl_fail::hit("alloc/words").is_err() {
            self.rt.store().stats().add(Counter::alloc_failures, 1);
            self.raise_alloc_error(AllocError {
                requested: size,
                limit: 0,
                live_bytes: self.rt.store().stats().snapshot().live_bytes,
            });
        }
        // The refill timer covers exactly the fallback work (retiring the
        // old region, the store's block hand-out, the reservation) and not
        // the collection the safepoint may run after it — a CGC pause has
        // its own histogram and would drown the refill signal.
        let r = {
            let _t = mpl_obs::timer(mpl_obs::Metric::AllocRefill);
            let nwords = OBJECT_HEADER_WORDS + len;
            let class = size_class(nwords);
            let sized = nwords <= self.rt.store().config().block_words;
            if sized {
                if let Some(exhausted) = self.ctx.alloc_cache[class].take() {
                    exhausted.retire();
                }
            }
            let mut region = self.rt.store().region(self.ctx.materialise(), nwords);
            let off = region
                .reserve(nwords)
                .expect("a fresh region fits its object");
            let r = publish_staged(&mut region, off, kind, len, fields);
            if sized {
                self.ctx.alloc_cache[class] = Some(region);
            } else {
                region.settle();
            }
            r
        };
        self.ctx.pending.allocs += 1;
        self.ctx.pending.alloc_bytes += size as u64;
        self.ctx.cgc_safepoint(&[], false);
        r
    }

    /// Allocates an immutable tuple (also used for immutable arrays).
    pub fn alloc_tuple(&mut self, fields: &[Value]) -> Value {
        self.alloc(ObjKind::Tuple, Payload::Values(fields))
    }

    /// Allocates a mutable cell (`ref v` in ML).
    pub fn alloc_ref(&mut self, v: Value) -> Value {
        self.alloc(ObjKind::Ref, Payload::Values(&[v]))
    }

    /// Allocates a mutable array of `len` copies of `init`.
    pub fn alloc_array(&mut self, len: usize, init: Value) -> Value {
        self.alloc(ObjKind::MutArr, Payload::Fill(len, init))
    }

    /// Allocates a mutable array from the given values.
    pub fn alloc_array_from(&mut self, vals: &[Value]) -> Value {
        self.alloc(ObjKind::MutArr, Payload::Values(vals))
    }

    /// Allocates a raw (unboxed, barrier-free) 64-bit word array,
    /// zero-initialized.
    ///
    /// The payload is true zero **raw words** — not encoded `Value`s — so
    /// `raw_get` reads back `0` regardless of the tagged word encoding.
    /// Nothing writes it: a fresh reservation's words are already zero
    /// (`mpl_heap::block`, "Zero payload"). Raw arrays hold no pointers,
    /// so the allocation barrier and collection-root staging that
    /// `alloc_tuple`/`alloc_array` perform are skipped entirely.
    pub fn alloc_raw(&mut self, len: usize) -> Value {
        self.alloc(ObjKind::RawArr, Payload::Raw(len))
    }

    /// Allocates a string as a raw array (`word0 = byte length`, bytes
    /// packed into subsequent words).
    pub fn alloc_str(&mut self, s: &str) -> Value {
        let bytes = s.as_bytes();
        let nwords = bytes.len().div_ceil(8);
        let v = self.alloc_raw(1 + nwords);
        let obj = self.resolve(v, "string");
        obj.store_raw(0, bytes.len() as u64);
        for (w, piece) in bytes.chunks(8).enumerate() {
            let mut buf = [0u8; 8];
            buf[..piece.len()].copy_from_slice(piece);
            obj.store_raw(1 + w, u64::from_le_bytes(buf));
        }
        v
    }

    /// True when the global heap limit or this task's tenant budget
    /// would be exceeded by an allocation of `size` bytes.
    fn over_budget(&self, size: usize) -> bool {
        self.rt.store().over_limit(size)
            || self.ctx.heap.budget().is_some_and(|b| b.would_exceed(size))
    }

    /// The memory-pressure escalation ladder, run on the slow path of
    /// each allocation the allowance sends there (see
    /// `TaskCtx::rearm`): flush the gauge and re-check, then force a local
    /// collection (with `extra` as updated roots), then a full concurrent
    /// cycle, retrying the budget check after each. If the live footprint
    /// still exceeds the budget, the allocation fails with a recoverable
    /// [`AllocError`] raised as a panic payload. Raising here is sound:
    /// both collectors have fully completed and released their locks
    /// before the raise, the pending object has not been written
    /// anywhere, and the unwinding task's [`Mutator`] drop flushes its
    /// buffers and pauses its slot.
    ///
    /// Called before the reservation, where the not-yet-allocated pointer
    /// fields can still ride through the moving collection as roots —
    /// once written into the object they would go stale.
    fn ensure_heap_budget(&mut self, size: usize, extra: &mut [Value]) {
        let rt = self.rt;
        if !self.over_budget(size) {
            return;
        }
        // The gauges lag task-buffered stats; make them current before
        // paying for a collection.
        self.sync_stats();
        if !self.over_budget(size) {
            return;
        }
        let stats = rt.store().stats();
        if let Some(b) = self.ctx.heap.budget() {
            if b.would_exceed(size) {
                b.on_forced_gc();
            }
        }
        stats.add(Counter::gc_forced_by_pressure, 1);
        self.ctx.collect_local(extra);
        stats.add(Counter::alloc_retries, 1);
        if !self.over_budget(size) {
            return;
        }
        stats.add(Counter::gc_forced_by_pressure, 1);
        self.ctx.cgc_safepoint(&[], true);
        stats.add(Counter::alloc_retries, 1);
        if !self.over_budget(size) {
            return;
        }
        stats.add(Counter::alloc_failures, 1);
        // Attribute the failure to the constraint still violated: the
        // tenant budget (the serving layer's shed signal) if it is the
        // binding one, else the global limit.
        if let Some(b) = self.ctx.heap.budget() {
            if b.would_exceed(size) {
                b.on_shed();
                self.raise_alloc_error(AllocError {
                    requested: size,
                    limit: b.limit(),
                    live_bytes: b.live_bytes(),
                });
            }
        }
        let live = rt.store().stats().snapshot().live_bytes;
        self.raise_alloc_error(AllocError {
            requested: size,
            limit: rt.store().config().heap_limit,
            live_bytes: live,
        });
    }

    /// Raises a recoverable allocation failure, first escalating it to
    /// this run's cancellation token so sibling branches stop at their
    /// next poll point instead of computing work the doomed join will
    /// discard. `Runtime::try_run*` maps both the original payload and
    /// any sibling's `Cancelled`-with-alloc-reason back to
    /// [`crate::RunError::Alloc`], so callers see one deterministic
    /// outcome regardless of which branch's payload wins the join race.
    fn raise_alloc_error(&self, e: AllocError) -> ! {
        self.ctx.cancel.trip_alloc(e.clone());
        std::panic::panic_any(e)
    }
}
