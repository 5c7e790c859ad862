//! Object access: resolving values through the task-local block cache,
//! immutable reads, the barriered mutable accessors (thin wrappers over
//! `crate::barrier`), and raw word arrays.
//!
//! Every access resolves its object exactly once: [`Mutator::resolve`]
//! is one cache-slot compare plus [`mpl_heap::Block::resolve`] (one
//! publication check, one header load giving both the forwarded bit and
//! the field count) on the hit path, which inlines into each accessor; a
//! cache miss and the forwarding chase share one out-of-line function.

use mpl_heap::{ObjKind, ObjRef, Object, Value};

use super::Mutator;
use crate::config::{READ_WORK, WRITE_WORK};

/// An object resolved into the block cache: its current (forwarding
/// chased) reference, whose block sits in cache slot `r.block() & 3`,
/// and its field count. Valid until the next resolution, which may evict
/// the slot; [`Mutator::view`] turns it back into an [`Object`] under a
/// shared borrow, so a caller can hold the view and still reach the rest
/// of the task state.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Resolved {
    pub(crate) r: ObjRef,
    len: usize,
}

impl Mutator<'_> {
    // ---- hot-path plumbing ----------------------------------------------

    /// Resolves a value to a view of its current object, chasing
    /// forwarding. Panics with `what` context on non-objects and dangling
    /// references.
    #[inline(always)]
    pub(crate) fn resolve(&mut self, v: Value, what: &str) -> Object<'_> {
        let at = self.resolve_at(v, what);
        self.view(at)
    }

    /// [`Mutator::resolve`] without building the view.
    #[inline(always)]
    pub(crate) fn resolve_at(&mut self, v: Value, what: &str) -> Resolved {
        let mut r = match v {
            Value::Obj(r) => r,
            other => not_an_object(what, other),
        };
        loop {
            if let Some((id, block)) = &self.ctx.block_cache[(r.block() & 3) as usize] {
                if *id == r.block() {
                    if let Ok(obj) = block.resolve(r.word()) {
                        return Resolved { r, len: obj.len() };
                    }
                }
            }
            // Taken at most once per miss or evacuation: the cold half
            // leaves the current copy's block cached, so the retry hits.
            r = self.resolve_cold(r);
        }
    }

    /// The cache-miss and forwarding half of [`Mutator::resolve_at`]:
    /// fills slots from the block registry and follows forwarding words
    /// to the current copy, whose block it leaves cached. Returns only
    /// that copy's reference — one register, so the inlined hit path
    /// keeps its values out of memory.
    #[cold]
    #[inline(never)]
    fn resolve_cold(&mut self, mut r: ObjRef) -> ObjRef {
        loop {
            let slot = &mut self.ctx.block_cache[(r.block() & 3) as usize];
            if !matches!(slot, Some((id, _)) if *id == r.block()) {
                *slot = Some((r.block(), self.rt.store().blocks().get(r.block())));
            }
            let Some((_, block)) = slot else {
                unreachable!("the slot was just filled")
            };
            match block.resolve(r.word()) {
                Ok(_) => return r,
                Err(next) => r = next,
            }
        }
    }

    /// The view of an object resolved by the last [`Mutator::resolve_at`].
    #[inline(always)]
    pub(crate) fn view(&self, at: Resolved) -> Object<'_> {
        match &self.ctx.block_cache[(at.r.block() & 3) as usize] {
            Some((id, block)) => {
                debug_assert_eq!(*id, at.r.block(), "a view of an evicted resolution");
                block.view_resolved(at.r.word(), at.len)
            }
            None => unreachable!("a view of an evicted resolution"),
        }
    }

    /// Decodes a string previously allocated with [`Mutator::alloc_str`].
    ///
    /// # Panics
    ///
    /// Panics if the payload is not valid UTF-8 (corrupted string object).
    pub fn read_str(&mut self, v: Value) -> String {
        self.ctx.work += READ_WORK;
        let obj = self.resolve(v, "string");
        let len = obj.load_raw(0) as usize;
        let mut bytes = Vec::with_capacity(len);
        for w in 0..len.div_ceil(8) {
            let word = obj.load_raw(1 + w).to_le_bytes();
            let take = (len - bytes.len()).min(8);
            bytes.extend_from_slice(&word[..take]);
        }
        self.ctx.work += (len as u64) / 8;
        String::from_utf8(bytes).expect("corrupted string object")
    }

    /// Number of fields of the object (tuple arity, array length).
    pub fn len(&mut self, v: Value) -> usize {
        self.ctx.work += READ_WORK;
        self.resolve(v, "length query").len()
    }

    // ---- immutable reads (no barrier) ------------------------------------

    /// Reads field `i` of an immutable tuple. No entanglement barrier: a
    /// tuple's fields are fixed at allocation and can only reference older
    /// objects, so they can never *create* entanglement.
    pub fn tuple_get(&mut self, t: Value, i: usize) -> Value {
        self.ctx.work += READ_WORK;
        let obj = self.resolve(t, "tuple read");
        debug_assert_eq!(obj.kind(), ObjKind::Tuple, "tuple_get on {:?}", obj.kind());
        let v = obj.field(i);
        self.fix_stale(v)
    }

    // ---- barriered mutable accesses ---------------------------------------
    //
    // The barrier implementations (fast/slow tier split, pin protocol,
    // remembered-set maintenance) live in `crate::barrier`.

    /// Dereferences a mutable cell (`!r`).
    pub fn read_ref(&mut self, r: Value) -> Value {
        self.mut_read(r, 0)
    }

    /// Assigns a mutable cell (`r := v`).
    pub fn write_ref(&mut self, r: Value, v: Value) {
        self.mut_write(r, 0, v)
    }

    /// Compare-and-swap on a mutable cell. Returns `Err(actual)` on
    /// failure.
    pub fn ref_cas(&mut self, r: Value, expected: Value, new: Value) -> Result<(), Value> {
        self.mut_cas(r, 0, expected, new)
    }

    /// Reads element `i` of a mutable array.
    pub fn arr_get(&mut self, a: Value, i: usize) -> Value {
        self.mut_read(a, i)
    }

    /// Writes element `i` of a mutable array.
    pub fn arr_set(&mut self, a: Value, i: usize, v: Value) {
        self.mut_write(a, i, v)
    }

    /// Compare-and-swap on a mutable array element.
    pub fn arr_cas(
        &mut self,
        a: Value,
        i: usize,
        expected: Value,
        new: Value,
    ) -> Result<(), Value> {
        self.mut_cas(a, i, expected, new)
    }

    // ---- raw (unboxed) arrays: mutable but pointer-free, no barrier -------
    //
    // Raw words are opaque bits to the collectors only inside a `RawArr`:
    // the same bits stored into a boxed object would be decoded as a
    // `Word`, possibly a pointer — hence the kind check in debug builds.

    /// Reads a raw 64-bit word.
    pub fn raw_get(&mut self, a: Value, i: usize) -> u64 {
        self.ctx.work += READ_WORK;
        let obj = self.resolve(a, "raw read");
        debug_assert_raw(obj);
        obj.load_raw(i)
    }

    /// Writes a raw 64-bit word.
    pub fn raw_set(&mut self, a: Value, i: usize, bits: u64) {
        self.ctx.work += WRITE_WORK;
        let obj = self.resolve(a, "raw write");
        debug_assert_raw(obj);
        obj.store_raw(i, bits);
    }

    /// Compare-and-swap on a raw word; true on success.
    pub fn raw_cas(&mut self, a: Value, i: usize, expected: u64, new: u64) -> bool {
        self.ctx.work += WRITE_WORK;
        let obj = self.resolve(a, "raw cas");
        debug_assert_raw(obj);
        obj.cas_raw(i, expected, new).is_ok()
    }

    /// Atomic fetch-add on a raw word; returns the previous bits.
    pub fn raw_fetch_add(&mut self, a: Value, i: usize, delta: u64) -> u64 {
        self.ctx.work += WRITE_WORK;
        let obj = self.resolve(a, "raw fetch_add");
        debug_assert_raw(obj);
        obj.fetch_add_raw(i, delta)
    }
}

#[inline]
fn debug_assert_raw(obj: Object<'_>) {
    debug_assert_eq!(
        obj.kind(),
        ObjKind::RawArr,
        "raw access on {:?}",
        obj.kind()
    );
}

#[cold]
#[inline(never)]
fn not_an_object(what: &str, v: Value) -> ! {
    panic!("{what} expects an object, found {v:?}")
}
