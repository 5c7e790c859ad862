//! Object access: locating objects through the task-local block cache,
//! immutable reads, the barriered mutable accessors (thin wrappers over
//! `crate::barrier`), and raw word arrays.

use std::sync::Arc;

use mpl_heap::{Block, ObjKind, ObjRef, Value};

use super::Mutator;

/// A resolved object location: current address plus its (cached) block.
pub(super) struct Located {
    pub(super) r: ObjRef,
    pub(super) block: Arc<Block>,
}

impl Mutator<'_> {
    // ---- hot-path plumbing ----------------------------------------------

    fn block(&mut self, id: u32) -> Arc<Block> {
        let slot = (id & 3) as usize;
        if let Some((bid, b)) = &self.ctx.block_cache[slot] {
            if *bid == id {
                return Arc::clone(b);
            }
        }
        let b = self.rt.store().blocks().get(id);
        self.ctx.block_cache[slot] = Some((id, Arc::clone(&b)));
        b
    }

    /// Like [`Mutator::locate`], but returns only the reference and leaves
    /// the block in the cache — callers borrow it with
    /// [`Mutator::cached_block`], avoiding an `Arc` clone per operation.
    pub(crate) fn locate_ref(&mut self, v: Value, what: &str) -> ObjRef {
        let mut r = match v {
            Value::Obj(r) => r,
            other => panic!("{what} expects an object, found {other:?}"),
        };
        loop {
            let slot = (r.block() & 3) as usize;
            let hit = matches!(&self.ctx.block_cache[slot], Some((bid, _)) if *bid == r.block());
            if !hit {
                let b = self.rt.store().blocks().get(r.block());
                self.ctx.block_cache[slot] = Some((r.block(), b));
            }
            let (_, block) = self.ctx.block_cache[slot].as_ref().unwrap();
            match block.get(r.word()).forward_ref() {
                Some(next) => r = next,
                None => return r,
            }
        }
    }

    /// Borrows the cached block for `r` (must have been located by
    /// [`Mutator::locate_ref`] in the same operation, with no intervening
    /// cache traffic).
    pub(crate) fn cached_block(&self, r: ObjRef) -> &Block {
        match &self.ctx.block_cache[(r.block() & 3) as usize] {
            Some((bid, b)) if *bid == r.block() => b,
            _ => unreachable!("cached_block without a preceding locate_ref"),
        }
    }

    /// Resolves a value to its current object location, chasing
    /// forwarding. Panics with `what` context on non-objects and dangling
    /// references.
    pub(super) fn locate(&mut self, v: Value, what: &str) -> Located {
        let mut r = match v {
            Value::Obj(r) => r,
            other => panic!("{what} expects an object, found {other:?}"),
        };
        loop {
            let block = self.block(r.block());
            match block.get(r.word()).forward_ref() {
                Some(next) => r = next,
                None => return Located { r, block },
            }
        }
    }

    /// Decodes a string previously allocated with [`Mutator::alloc_str`].
    ///
    /// # Panics
    ///
    /// Panics if the payload is not valid UTF-8 (corrupted string object).
    pub fn read_str(&mut self, v: Value) -> String {
        self.ctx.work += self.rt.config().work.read;
        let loc = self.locate(v, "string");
        let obj = loc.block.get(loc.r.word());
        let len = obj.load_raw(0) as usize;
        self.ctx.work += (len as u64) / 8;
        let mut bytes = Vec::with_capacity(len);
        for w in 0..len.div_ceil(8) {
            let word = obj.load_raw(1 + w).to_le_bytes();
            let take = (len - bytes.len()).min(8);
            bytes.extend_from_slice(&word[..take]);
        }
        String::from_utf8(bytes).expect("corrupted string object")
    }

    /// Number of fields of the object (tuple arity, array length).
    pub fn len(&mut self, v: Value) -> usize {
        self.ctx.work += self.rt.config().work.read;
        let r = self.locate_ref(v, "length query");
        self.cached_block(r).get(r.word()).len()
    }

    // ---- immutable reads (no barrier) ------------------------------------

    /// Reads field `i` of an immutable tuple. No entanglement barrier: a
    /// tuple's fields are fixed at allocation and can only reference older
    /// objects, so they can never *create* entanglement.
    pub fn tuple_get(&mut self, t: Value, i: usize) -> Value {
        self.ctx.work += self.rt.config().work.read;
        let r = self.locate_ref(t, "tuple read");
        let obj = self.cached_block(r).get(r.word());
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

    /// Reads a raw 64-bit word.
    pub fn raw_get(&mut self, a: Value, i: usize) -> u64 {
        self.ctx.work += self.rt.config().work.read;
        let r = self.locate_ref(a, "raw read");
        self.cached_block(r).get(r.word()).load_raw(i)
    }

    /// Writes a raw 64-bit word.
    pub fn raw_set(&mut self, a: Value, i: usize, bits: u64) {
        self.ctx.work += self.rt.config().work.write;
        let r = self.locate_ref(a, "raw write");
        self.cached_block(r).get(r.word()).store_raw(i, bits);
    }

    /// Compare-and-swap on a raw word; true on success.
    pub fn raw_cas(&mut self, a: Value, i: usize, expected: u64, new: u64) -> bool {
        self.ctx.work += self.rt.config().work.write;
        let r = self.locate_ref(a, "raw cas");
        self.cached_block(r)
            .get(r.word())
            .cas_raw(i, expected, new)
            .is_ok()
    }

    /// Atomic fetch-add on a raw word; returns the previous bits.
    pub fn raw_fetch_add(&mut self, a: Value, i: usize, delta: u64) -> u64 {
        self.ctx.work += self.rt.config().work.write;
        let r = self.locate_ref(a, "raw fetch_add");
        self.cached_block(r).get(r.word()).fetch_add_raw(i, delta)
    }
}
