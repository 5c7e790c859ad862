//! The sequential baseline runtime — the MLton stand-in.
//!
//! A single heap, no hierarchy, no read/write barriers, no atomics: the
//! cost floor a sequential functional-language implementation pays.
//! `fork` degenerates to running both branches in order on the same heap.
//! Reclamation is a mark-sweep collection over an explicit root stack,
//! triggered by allocation volume, so the baseline pays *realistic* GC
//! work (the paper's overhead tables compare against a collected
//! sequential runtime, not against malloc-and-leak).

use std::cell::Cell;
use std::fmt;

/// Values of the sequential runtime.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SeqValue {
    /// Unit.
    Unit,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Heap object index.
    Obj(usize),
}

impl SeqValue {
    /// Integer payload or panic.
    pub fn expect_int(self) -> i64 {
        match self {
            SeqValue::Int(n) => n,
            other => panic!("expected int, found {other:?}"),
        }
    }

    /// Object payload or panic.
    pub fn expect_obj(self) -> usize {
        match self {
            SeqValue::Obj(i) => i,
            other => panic!("expected object, found {other:?}"),
        }
    }
}

#[derive(Clone, Debug)]
enum SeqObj {
    /// Boxed values (tuples, refs, arrays — mutability is not
    /// distinguished: there are no barriers to care).
    Boxed(Vec<SeqValue>),
    /// Raw 64-bit payload (strings, bitsets).
    Raw(Vec<u64>),
}

impl SeqObj {
    fn size_bytes(&self) -> usize {
        24 + 8 * match self {
            SeqObj::Boxed(v) => v.len(),
            SeqObj::Raw(v) => v.len(),
        }
    }
}

/// Counters reported by the sequential runtime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeqStats {
    /// Objects allocated.
    pub allocs: u64,
    /// Bytes allocated.
    pub alloc_bytes: u64,
    /// Collections run.
    pub gc_runs: u64,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Live-bytes high-water mark.
    pub max_live_bytes: usize,
    /// Work units (same weights as the parallel runtime, for
    /// work-normalized comparisons).
    pub work: u64,
}

/// The sequential runtime: heap + root stack.
pub struct SeqRuntime {
    objs: Vec<Option<SeqObj>>,
    free: Vec<usize>,
    roots: Vec<usize>,
    live_bytes: usize,
    gc_threshold: usize,
    allocated_since_gc: usize,
    stats: SeqStats,
}

impl fmt::Debug for SeqRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeqRuntime")
            .field("objects", &self.objs.len())
            .field("live_bytes", &self.live_bytes)
            .finish()
    }
}

/// A rooted object handle (index into the root stack).
#[derive(Clone, Copy, Debug)]
pub struct SeqHandle(usize);

impl Default for SeqRuntime {
    fn default() -> Self {
        SeqRuntime::new(256 * 1024)
    }
}

impl SeqRuntime {
    /// Creates a runtime collecting every `gc_threshold` allocated bytes.
    pub fn new(gc_threshold: usize) -> SeqRuntime {
        SeqRuntime {
            objs: Vec::new(),
            free: Vec::new(),
            roots: Vec::new(),
            live_bytes: 0,
            gc_threshold,
            allocated_since_gc: 0,
            stats: SeqStats::default(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> SeqStats {
        self.stats
    }

    fn insert(&mut self, obj: SeqObj) -> usize {
        let size = obj.size_bytes();
        self.stats.allocs += 1;
        self.stats.alloc_bytes += size as u64;
        self.stats.work += 2;
        self.live_bytes += size;
        self.stats.max_live_bytes = self.stats.max_live_bytes.max(self.live_bytes);
        self.allocated_since_gc += size;
        if let Some(i) = self.free.pop() {
            self.objs[i] = Some(obj);
            i
        } else {
            self.objs.push(Some(obj));
            self.objs.len() - 1
        }
    }

    fn maybe_gc(&mut self, extra_roots: &[SeqValue]) {
        if self.allocated_since_gc >= self.gc_threshold {
            self.collect(extra_roots);
        }
    }

    /// Mark-sweep collection; `extra_roots` protects in-flight values.
    pub fn collect(&mut self, extra_roots: &[SeqValue]) {
        self.stats.gc_runs += 1;
        self.allocated_since_gc = 0;
        let mut marked = vec![false; self.objs.len()];
        let mut stack: Vec<usize> = self.roots.clone();
        stack.extend(extra_roots.iter().filter_map(|v| match v {
            SeqValue::Obj(i) => Some(*i),
            _ => None,
        }));
        while let Some(i) = stack.pop() {
            if marked[i] {
                continue;
            }
            marked[i] = true;
            if let Some(SeqObj::Boxed(fields)) = &self.objs[i] {
                for v in fields {
                    if let SeqValue::Obj(c) = v {
                        if !marked[*c] {
                            stack.push(*c);
                        }
                    }
                }
            }
        }
        for (i, slot) in self.objs.iter_mut().enumerate() {
            if slot.is_some() && !marked[i] {
                let size = slot.as_ref().unwrap().size_bytes();
                self.live_bytes -= size;
                self.stats.reclaimed_bytes += size as u64;
                self.stats.work += 1;
                *slot = None;
                self.free.push(i);
            }
        }
    }

    // ---- mutator API (mirrors mpl-runtime's, barrier-free) ---------------

    /// Roots a value; returns a handle.
    pub fn root(&mut self, v: SeqValue) -> SeqHandle {
        match v {
            SeqValue::Obj(i) => {
                self.roots.push(i);
                SeqHandle(self.roots.len() - 1)
            }
            _ => SeqHandle(usize::MAX),
        }
    }

    /// Reads a rooted value. (Objects never move here, so this is the
    /// identity; the handle exists for API parity.)
    pub fn get(&self, h: SeqHandle) -> SeqValue {
        if h.0 == usize::MAX {
            SeqValue::Unit
        } else {
            SeqValue::Obj(self.roots[h.0])
        }
    }

    /// Root-stack watermark.
    pub fn mark(&self) -> usize {
        self.roots.len()
    }

    /// Releases roots above the watermark.
    pub fn release(&mut self, mark: usize) {
        self.roots.truncate(mark);
    }

    /// Allocates a boxed object (tuple / ref / array — no distinction).
    pub fn alloc(&mut self, fields: &[SeqValue]) -> SeqValue {
        self.maybe_gc(fields);
        SeqValue::Obj(self.insert(SeqObj::Boxed(fields.to_vec())))
    }

    /// Allocates a boxed object of `len` copies of `init`.
    pub fn alloc_n(&mut self, len: usize, init: SeqValue) -> SeqValue {
        self.maybe_gc(&[init]);
        SeqValue::Obj(self.insert(SeqObj::Boxed(vec![init; len])))
    }

    /// Allocates a raw array of zeroed words.
    pub fn alloc_raw(&mut self, len: usize) -> SeqValue {
        self.maybe_gc(&[]);
        SeqValue::Obj(self.insert(SeqObj::Raw(vec![0; len])))
    }

    /// Reads field `i`.
    pub fn get_field(&mut self, obj: SeqValue, i: usize) -> SeqValue {
        self.stats.work += 1;
        match &self.objs[obj.expect_obj()] {
            Some(SeqObj::Boxed(f)) => f[i],
            _ => panic!("boxed read on raw or freed object"),
        }
    }

    /// Writes field `i`.
    pub fn set_field(&mut self, obj: SeqValue, i: usize, v: SeqValue) {
        self.stats.work += 1;
        match &mut self.objs[obj.expect_obj()] {
            Some(SeqObj::Boxed(f)) => f[i] = v,
            _ => panic!("boxed write on raw or freed object"),
        }
    }

    /// Object length (boxed or raw).
    pub fn len(&self, obj: SeqValue) -> usize {
        match &self.objs[obj.expect_obj()] {
            Some(SeqObj::Boxed(f)) => f.len(),
            Some(SeqObj::Raw(f)) => f.len(),
            None => panic!("length of freed object"),
        }
    }

    /// Raw word read.
    pub fn raw_get(&mut self, obj: SeqValue, i: usize) -> u64 {
        self.stats.work += 1;
        match &self.objs[obj.expect_obj()] {
            Some(SeqObj::Raw(f)) => f[i],
            _ => panic!("raw read on boxed or freed object"),
        }
    }

    /// Raw word write.
    pub fn raw_set(&mut self, obj: SeqValue, i: usize, bits: u64) {
        self.stats.work += 1;
        match &mut self.objs[obj.expect_obj()] {
            Some(SeqObj::Raw(f)) => f[i] = bits,
            _ => panic!("raw write on boxed or freed object"),
        }
    }

    /// Runs `f` on a view of each raw array in `arrs` (parity with
    /// `Mutator::with_raw`): each view access charges the work of a
    /// [`SeqRuntime::raw_get`] or [`SeqRuntime::raw_set`]. The same array
    /// may appear more than once.
    ///
    /// # Panics
    ///
    /// Panics if a value is not a live raw array.
    pub fn with_raw<const N: usize, R>(
        &mut self,
        arrs: [SeqValue; N],
        f: impl FnOnce([SeqRawView<'_>; N]) -> R,
    ) -> R {
        let objs = &mut self.objs;
        let words = arrs.map(|a| match &mut objs[a.expect_obj()] {
            Some(SeqObj::Raw(f)) => (f.as_mut_ptr(), f.len()),
            _ => panic!("raw view of a boxed or freed object"),
        });
        let work = Cell::new(0);
        let out = f(words.map(|(p, len)| SeqRawView {
            // SAFETY: `p` is the buffer of a live raw array's `Vec<u64>`,
            // of `len` words, and `Cell<u64>` has `u64`'s layout. The
            // buffers stay put while `f` runs: `self` is borrowed mutably
            // and `f` cannot reach it, so nothing frees, grows or reads
            // them but the views. Views of one array alias, which shared
            // `Cell`s allow; `Vec::as_mut_ptr` takes no reference to the
            // buffer, so a second pointer into it leaves the first valid.
            words: unsafe { std::slice::from_raw_parts(p.cast::<Cell<u64>>(), len) },
            work: &work,
        }));
        self.stats.work += work.get();
        out
    }

    /// Charges modeled computational work (parity with `Mutator::work`).
    pub fn work(&mut self, n: u64) {
        self.stats.work += n;
    }

    /// "Fork": runs both closures sequentially — the baseline has no
    /// parallelism and pays no task overhead.
    pub fn fork<A, B>(&mut self, f: A, g: B) -> (SeqValue, SeqValue)
    where
        A: FnOnce(&mut SeqRuntime) -> SeqValue,
        B: FnOnce(&mut SeqRuntime) -> SeqValue,
    {
        let a = f(self);
        let mark = self.mark();
        let _keep = self.root(a);
        let b = g(self);
        self.release(mark);
        (a, b)
    }
}

/// A raw array lent by [`SeqRuntime::with_raw`].
#[derive(Clone, Copy)]
pub struct SeqRawView<'v> {
    words: &'v [Cell<u64>],
    work: &'v Cell<u64>,
}

impl SeqRawView<'_> {
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
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.work.set(self.work.get() + 1);
        self.words[i].get()
    }

    /// Writes word `i`.
    #[inline]
    pub fn set(&self, i: usize, bits: u64) {
        self.work.set(self.work.get() + 1);
        self.words[i].set(bits);
    }
}

impl fmt::Debug for SeqRawView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeqRawView")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write() {
        let mut rt = SeqRuntime::default();
        let o = rt.alloc(&[SeqValue::Int(1), SeqValue::Int(2)]);
        assert_eq!(rt.get_field(o, 0), SeqValue::Int(1));
        rt.set_field(o, 1, SeqValue::Int(9));
        assert_eq!(rt.get_field(o, 1), SeqValue::Int(9));
        assert_eq!(rt.len(o), 2);
    }

    #[test]
    fn gc_reclaims_unrooted() {
        let mut rt = SeqRuntime::new(1024);
        let keep = rt.alloc(&[SeqValue::Int(42)]);
        let h = rt.root(keep);
        for _ in 0..200 {
            let _ = rt.alloc(&[SeqValue::Int(0); 4]);
        }
        assert!(rt.stats().gc_runs > 0);
        assert!(rt.stats().reclaimed_bytes > 0);
        let kept = rt.get(h);
        assert_eq!(rt.get_field(kept, 0), SeqValue::Int(42));
    }

    #[test]
    fn graph_reachability_preserved() {
        let mut rt = SeqRuntime::new(512);
        let leaf = rt.alloc(&[SeqValue::Int(7)]);
        let node = rt.alloc(&[leaf, leaf]);
        let h = rt.root(node);
        for _ in 0..200 {
            let _ = rt.alloc(&[SeqValue::Unit; 8]);
        }
        let n = rt.get(h);
        let l = rt.get_field(n, 0);
        assert_eq!(rt.get_field(l, 0), SeqValue::Int(7));
    }

    #[test]
    fn fork_is_sequential() {
        let mut rt = SeqRuntime::default();
        let (a, b) = rt.fork(|_| SeqValue::Int(1), |_| SeqValue::Int(2));
        assert_eq!((a, b), (SeqValue::Int(1), SeqValue::Int(2)));
    }

    #[test]
    fn raw_arrays() {
        let mut rt = SeqRuntime::default();
        let r = rt.alloc_raw(3);
        rt.raw_set(r, 2, 99);
        assert_eq!(rt.raw_get(r, 2), 99);
        assert_eq!(rt.raw_get(r, 0), 0);
    }

    #[test]
    fn raw_views_alias_and_charge_per_access() {
        let mut rt = SeqRuntime::default();
        let r = rt.alloc_raw(3);
        let before = rt.stats().work;
        let read = rt.with_raw([r, r], |[a, b]| {
            a.set(1, 7);
            b.get(1)
        });
        assert_eq!(read, 7);
        assert_eq!(rt.stats().work - before, 2);
        assert_eq!(rt.raw_get(r, 1), 7);
    }
}
