//! Allocation into the task's leaf heap: the bump fast path, the store
//! refill path, and the memory-pressure ladder. Every allocation is a
//! poll point; the collections an allocation may trigger go through the
//! `collect_local` / `cgc_safepoint` boundaries.

use mpl_heap::{size_class, Counter, ObjKind, ObjRef, Value, Word, OBJECT_HEADER_WORDS};

use super::boundary::PENDING_FLUSH_BYTES;
use super::{AllocError, Mutator};
use crate::config::Mode;

impl Mutator<'_> {
    fn alloc_object(&mut self, kind: ObjKind, fields: &[Value]) -> Value {
        let mut vals = std::mem::take(&mut self.ctx.scratch_vals);
        vals.clear();
        vals.extend_from_slice(fields);
        let v = self.alloc_staged(kind, &mut vals);
        self.ctx.scratch_vals = vals;
        v
    }

    /// The allocation midsection, operating on the staged (scratch) field
    /// buffer so collections can treat the pending fields as movable
    /// roots.
    fn alloc_staged(&mut self, kind: ObjKind, fields: &mut [Value]) -> Value {
        self.charge_alloc(fields.len());
        // Allocation barrier: only tasks that have already acquired a
        // remote pointer (`saw_remote`) can be holding one to store, so
        // disentangled tasks pay exactly this one predictable branch.
        if self.ctx.saw_remote && self.rt.config().mode == Mode::Managed {
            self.alloc_pin_remote(fields);
        }
        let size = mpl_heap::OBJECT_OVERHEAD_BYTES + 8 * fields.len();
        self.ensure_heap_budget(size, fields);
        if self.ctx.alloc_since >= self.ctx.lgc_budget {
            self.ctx.collect_local(fields);
        }
        let mut words = std::mem::take(&mut self.ctx.scratch_words);
        words.clear();
        words.extend(fields.iter().map(|&v| Word::encode(v)));
        let r = self.alloc_words(kind, &words);
        self.ctx.scratch_words = words;
        Value::Obj(r)
    }

    fn charge_alloc(&mut self, fields: usize) {
        let wm = self.rt.config().work;
        self.ctx.work += wm.alloc + fields as u64 / 4;
        self.ctx.alloc_since += mpl_heap::OBJECT_OVERHEAD_BYTES + 8 * fields;
    }

    /// The shared tail of every allocation: a bump-pointer reservation of
    /// the pre-encoded words in the cached block for the object's size
    /// class, falling back to the store when the block is full (or the
    /// object is oversized). Counters are task-buffered and flushed at
    /// boundaries.
    fn alloc_words(&mut self, kind: ObjKind, words: &[Word]) -> ObjRef {
        // Every allocation is a poll point.
        self.ctx.poll();
        let size = mpl_heap::OBJECT_OVERHEAD_BYTES + 8 * words.len();
        // FAST PATH: one bump in the task's cached size-class block — no
        // lock, no registry, no `Arc` clone, no per-object `Vec`.
        let nwords = OBJECT_HEADER_WORDS + words.len();
        if nwords <= self.rt.store().config().block_words {
            let class = size_class(nwords);
            if let Some(block) = &self.ctx.alloc_cache[class] {
                if let Some(r) = block.try_alloc(kind, words) {
                    self.ctx.pending.allocs += 1;
                    self.ctx.pending.alloc_bytes += size as u64;
                    if self.ctx.pending.alloc_bytes >= PENDING_FLUSH_BYTES
                        || self.rt.cgc_poll_requested()
                    {
                        self.ctx.cgc_safepoint(&[], false);
                    }
                    return r;
                }
            }
        }
        if mpl_fail::hit("alloc/words").is_err() {
            self.rt.store().stats().add(Counter::alloc_failures, 1);
            self.raise_alloc_error(AllocError {
                requested: size,
                limit: 0,
                live_bytes: self.rt.store().stats().snapshot().live_bytes,
            });
        }
        // The store path bumps the global gauge immediately (bypassing the
        // pending batch), so tenant accounting must follow suit here or
        // block-overflowing (large) allocations escape their budget.
        // The refill timer covers exactly the fallback work (budget
        // charge, store allocation, cache re-adoption) and not the
        // collection a safepoint may run after it — a CGC pause has its
        // own histogram and would drown the refill signal.
        let r = {
            let _t = mpl_obs::timer(mpl_obs::Metric::AllocRefill);
            if let Some(budget) = &self.ctx.budget {
                budget.charge(size);
            }
            let r = self.rt.store().alloc(self.ctx.leaf_heap(), kind, words);
            self.refresh_alloc_cache();
            r
        };
        self.ctx.cgc_safepoint(&[], false);
        r
    }

    /// Re-adopts the leaf heap's current per-class allocation blocks as
    /// this task's bump targets (after a store-path allocation installed
    /// fresh ones).
    fn refresh_alloc_cache(&mut self) {
        let store = self.rt.store();
        let info = store.heaps().info(store.heaps().find(self.ctx.leaf_heap()));
        self.ctx.alloc_cache = info.with(|s| s.alloc_blocks.clone());
    }

    /// Allocates an immutable tuple (also used for immutable arrays).
    pub fn alloc_tuple(&mut self, fields: &[Value]) -> Value {
        self.alloc_object(ObjKind::Tuple, fields)
    }

    /// Allocates a mutable cell (`ref v` in ML).
    pub fn alloc_ref(&mut self, v: Value) -> Value {
        self.alloc_object(ObjKind::Ref, &[v])
    }

    /// Allocates a mutable array of `len` copies of `init`.
    pub fn alloc_array(&mut self, len: usize, init: Value) -> Value {
        let mut vals = std::mem::take(&mut self.ctx.scratch_vals);
        vals.clear();
        vals.resize(len, init);
        let v = self.alloc_staged(ObjKind::MutArr, &mut vals);
        self.ctx.scratch_vals = vals;
        v
    }

    /// Allocates a mutable array from the given values.
    pub fn alloc_array_from(&mut self, vals: &[Value]) -> Value {
        self.alloc_object(ObjKind::MutArr, vals)
    }

    /// Allocates a raw (unboxed, barrier-free) 64-bit word array,
    /// zero-initialized.
    ///
    /// The payload is written as true zero **raw words** — not encoded
    /// `Value`s — so `raw_get` reads back `0` regardless of the tagged
    /// word encoding, and no per-element encode runs. Raw arrays hold no
    /// pointers, so the allocation barrier and collection-root scan that
    /// `alloc_tuple`/`alloc_array` perform are skipped entirely.
    pub fn alloc_raw(&mut self, len: usize) -> Value {
        self.charge_alloc(len);
        self.ensure_heap_budget(mpl_heap::OBJECT_OVERHEAD_BYTES + 8 * len, &mut []);
        if self.ctx.alloc_since >= self.ctx.lgc_budget {
            self.ctx.collect_local(&mut []);
        }
        let mut words = std::mem::take(&mut self.ctx.scratch_words);
        words.clear();
        words.resize(len, Word::from_bits(0));
        let r = self.alloc_words(ObjKind::RawArr, &words);
        self.ctx.scratch_words = words;
        Value::Obj(r)
    }

    /// Allocates a string as a raw array (`word0 = byte length`, bytes
    /// packed into subsequent words).
    pub fn alloc_str(&mut self, s: &str) -> Value {
        let bytes = s.as_bytes();
        let nwords = bytes.len().div_ceil(8);
        let v = self.alloc_raw(1 + nwords);
        let loc = self.locate(v, "string");
        let obj = loc.block.get(loc.r.word());
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
            || self
                .ctx
                .budget
                .as_ref()
                .is_some_and(|b| b.would_exceed(size))
    }

    /// The memory-pressure escalation ladder, run before each allocation
    /// when a heap budget is configured: flush the gauge and re-check,
    /// then force a local collection (with `extra` as updated roots),
    /// then a full concurrent cycle, retrying the budget check after
    /// each. If the live footprint still exceeds the budget, the
    /// allocation fails with a recoverable [`AllocError`] raised as a
    /// panic payload. Raising here is sound: both collectors have fully
    /// completed and released their locks before the raise, the pending
    /// object has not been written anywhere, and the unwinding task's
    /// [`Mutator`] drop flushes its buffers and pauses its slot.
    ///
    /// Called before field encoding, where the not-yet-allocated pointer
    /// fields can still ride through the moving collection as roots —
    /// after encoding they would go stale.
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
        if let Some(b) = &self.ctx.budget {
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
        if let Some(b) = self.ctx.budget.clone() {
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
