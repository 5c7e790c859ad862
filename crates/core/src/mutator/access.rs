//! Object access: resolving values through the task-local block cache,
//! immutable reads, the barriered mutable accessors (thin wrappers over
//! `crate::barrier`), and raw word arrays — one word at a time, or
//! through views that resolve once for many accesses.
//!
//! Every access resolves its object exactly once: [`Mutator::resolve`]
//! is one cache-slot compare plus [`mpl_heap::Block::resolve`] (one
//! publication check, one header load giving both the forwarded bit and
//! the field count) on the hit path, which inlines into each accessor; a
//! cache miss and the forwarding chase share one out-of-line function.
//!
//! # Raw views
//!
//! [`Mutator::with_raw`] resolves a few raw arrays once and lends a
//! closure a [`RawView`] of each, whose accesses are a bounds check and
//! one atomic load or store. A view holds the array's current location
//! for the whole closure, which is sound for two reasons:
//!
//! * **The borrow checker.** The views borrow the mutator mutably, so the
//!   closure cannot allocate, fork, poll or collect through this task:
//!   nothing this task does can move the arrays while a view lives.
//! * **The heap invariant.** An object moves only by its own heap's local
//!   collection, and a local collection moves only its task's leaf heap.
//!   The arrays this task reaches lie in its own leaf, in its suspended
//!   ancestors' heaps (their tasks wait at a join and collect nothing) or
//!   in a concurrent task's heap through a pinned object, which does not
//!   move; the concurrent collector never moves anything. This is the
//!   same invariant [`Mutator::raw_get`] relies on between its resolve
//!   and its load — a view only stretches that window over the closure.
//!
//! A view keeps its array's block alive with an `Arc`, so a block that a
//! concurrent collection retires stays readable until the closure
//! returns, as the cached block does for a single access. Work is
//! charged as if each access were a [`Mutator::raw_get`] or
//! [`Mutator::raw_set`]: the views count into one task-local cell that is
//! added to the task's work when the closure returns.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpl_heap::{Block, ObjKind, ObjRef, Object, Value};

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
        self.cached_block(at).view_resolved(at.r.word(), at.len)
    }

    /// The cached block of an object resolved by the last
    /// [`Mutator::resolve_at`].
    #[inline(always)]
    fn cached_block(&self, at: Resolved) -> &Arc<Block> {
        match &self.ctx.block_cache[(at.r.block() & 3) as usize] {
            Some((id, block)) => {
                debug_assert_eq!(*id, at.r.block(), "a view of an evicted resolution");
                block
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

    /// Resolves the raw arrays `arrs` once and runs `f` on a view of
    /// each: a loop over raw arrays pays one resolution per array instead
    /// of one per access (see the `access` module docs for why the views
    /// stay valid). The same array may appear more than once.
    ///
    /// A view's [`RawView::get`] and [`RawView::set`] charge the work of
    /// a [`Mutator::raw_get`] or [`Mutator::raw_set`], so a loop does the
    /// same work either way. Views are for loops over raw arrays; single
    /// accesses keep `raw_get`/`raw_set`, and boxed arrays keep the
    /// barriered [`Mutator::arr_get`]/[`Mutator::arr_set`] — a view has
    /// no barrier, so it is only for pointer-free words.
    ///
    /// # Panics
    ///
    /// Panics if a value is not a raw array (in every build), and, like
    /// `raw_get`, on a dangling reference.
    ///
    /// # Example
    ///
    /// ```
    /// use mpl_runtime::{Runtime, RuntimeConfig, Value};
    ///
    /// let rt = Runtime::new(RuntimeConfig::managed());
    /// let sum = rt.run(|m| {
    ///     let a = m.alloc_raw(100);
    ///     let ha = m.root(a);
    ///     let b = m.alloc_raw(100); // may collect, moving `a`
    ///     let a = m.get(&ha);
    ///     let sum = m.with_raw([a, b], |[a, b]| {
    ///         for i in 0..a.len() {
    ///             a.set(i, i as u64);
    ///             b.set(i, 2 * a.get(i));
    ///         }
    ///         (0..b.len()).map(|i| b.get(i)).sum::<u64>()
    ///     });
    ///     Value::Int(sum as i64)
    /// });
    /// assert_eq!(sum, Value::Int(9900));
    /// ```
    ///
    /// The closure cannot reach the mutator, so nothing in it can move
    /// the arrays:
    ///
    /// ```compile_fail,E0500
    /// use mpl_runtime::{Runtime, RuntimeConfig, Value};
    ///
    /// let rt = Runtime::new(RuntimeConfig::managed());
    /// rt.run(|m| {
    ///     let a = m.alloc_raw(4);
    ///     m.with_raw([a], |[v]| {
    ///         let _b = m.alloc_raw(4); // may collect, moving `a`
    ///         v.set(0, 1);
    ///     });
    ///     Value::Unit
    /// });
    /// ```
    pub fn with_raw<const N: usize, R>(
        &mut self,
        arrs: [Value; N],
        f: impl FnOnce([RawView<'_>; N]) -> R,
    ) -> R {
        let held = arrs.map(|a| {
            let at = self.resolve_at(a, "raw view");
            let kind = self.view(at).kind();
            if kind != ObjKind::RawArr {
                not_a_raw_array(kind);
            }
            (Arc::clone(self.cached_block(at)), at)
        });
        let work = Cell::new(0);
        let out = f(held.each_ref().map(|(block, at)| RawView {
            words: block.view_resolved(at.r.word(), at.len).field_slice(),
            work: &work,
        }));
        self.ctx.work += work.get();
        out
    }
}

/// A raw array lent by [`Mutator::with_raw`]: the array's words, resolved
/// once. [`RawView::get`] and [`RawView::set`] are a bounds check and one
/// atomic load or store, with the orderings of `raw_get` and `raw_set`.
#[derive(Clone, Copy)]
pub struct RawView<'v> {
    words: &'v [AtomicU64],
    work: &'v Cell<u64>,
}

impl RawView<'_> {
    /// Number of words.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the array has no words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.work.set(self.work.get() + READ_WORK);
        self.words[i].load(Ordering::Acquire)
    }

    /// Writes word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&self, i: usize, bits: u64) {
        self.work.set(self.work.get() + WRITE_WORK);
        self.words[i].store(bits, Ordering::Release);
    }
}

impl std::fmt::Debug for RawView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawView").field("len", &self.len()).finish()
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
fn not_a_raw_array(kind: ObjKind) -> ! {
    panic!("raw view of a {kind:?}, not a raw array")
}

#[cold]
#[inline(never)]
fn not_an_object(what: &str, v: Value) -> ! {
    panic!("{what} expects an object, found {v:?}")
}
