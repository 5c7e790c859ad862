//! Size-class blocks: raw word-addressed allocation pages with
//! bump-pointer cursors, Immix-style line marks, and side-metadata
//! bitmaps for the GC bits that used to live in object headers.
//!
//! A block is a fixed run of atomic 64-bit words. Objects are laid out
//! **inline**: `[header][fwd][field 0]…[field n-1]`, addressed by their
//! header's word offset — an [`crate::ObjRef`] is a `(block id, word
//! offset)` pair. Allocation is a single `fetch_add` on the bump cursor
//! followed by plain word stores; there is no per-object `OnceLock`, no
//! boxed `Object`, no `Vec`.
//!
//! ## Publication
//!
//! A reservation is invisible until published: the allocator writes the
//! payload words, then sets the object's bit in the `obj_start` bitmap
//! with release ordering. Readers (`try_get`, the `objects()` walker,
//! both collectors) only ever interpret words beneath a set `obj_start`
//! bit, acquired-loaded — a torn or half-initialized reservation cannot
//! be observed. This bitmap is the publication point the old slot
//! array's `OnceLock` used to provide, at the cost of one `fetch_or`
//! per allocation instead of a per-slot lock word.
//!
//! ## Side metadata
//!
//! Three more bitmaps (one bit per word, indexed by an object's header
//! offset) carry the GC state that moved out of the header:
//!
//! * `mark` — the concurrent collector's per-cycle mark. Sound outside
//!   the header CAS because marks are only read for reclamation *after*
//!   the mark-termination handshake, when no marker is running and the
//!   bits are stable (see `mpl-gc`'s phase ordering).
//! * `suspect` — sticky entanglement-candidate bit (received a
//!   down-pointer write). Set-only for an object's lifetime; the LGC
//!   re-establishes it on the evacuated copy.
//! * `slow` — the barrier fast tier's single-load classifier:
//!   `suspect ∪ pinned`, maintained conservatively (set before a pin
//!   CAS, re-derived from `suspect` after an unpin). A spurious slow
//!   bit only costs a slow-tier trip; a missing one is impossible by
//!   the update order.
//!
//! Line marks divide the block into [`LINE_WORDS`]-word lines; the
//! marker paints every line an object spans, so a sweep can free a
//! block whose line map is clean wholesale and account reclaimed lines
//! without walking objects.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::header::{Header, ObjKind};
use crate::object::{Object, OBJECT_OVERHEAD_BYTES};
use crate::sft::SftTable;
use crate::value::{ObjRef, Word};

/// Default block payload size in words (4 KiB).
pub const DEFAULT_BLOCK_WORDS: usize = 512;

/// Words per line (128 bytes): the granularity of sweep accounting.
pub const LINE_WORDS: usize = 16;

/// Inline words an object occupies beyond its fields (header + fwd).
pub const OBJECT_HEADER_WORDS: usize = 2;

/// Number of segregated size classes. Classes 0..N-1 hold objects of at
/// most `SIZE_CLASS_WORDS[c]` total words; the last class is the
/// overflow class for anything larger (objects bigger than a whole
/// block get a dedicated block).
pub const NUM_SIZE_CLASSES: usize = 4;

/// Upper bounds (inclusive, in total words) of the non-overflow classes.
pub const SIZE_CLASS_WORDS: [usize; NUM_SIZE_CLASSES - 1] = [4, 8, 16];

/// The size class for an object of `nwords` total inline words.
pub fn size_class(nwords: usize) -> usize {
    SIZE_CLASS_WORDS
        .iter()
        .position(|&cap| nwords <= cap)
        .unwrap_or(NUM_SIZE_CLASSES - 1)
}

/// One bit per word offset, atomically updated.
#[derive(Debug)]
struct Bitmap {
    words: Box<[AtomicU64]>,
}

impl Bitmap {
    fn new(bits: usize) -> Bitmap {
        Bitmap {
            words: (0..bits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Sets bit `i`; true if it was previously clear.
    #[inline]
    fn set(&self, i: u32) -> bool {
        let mask = 1u64 << (i % 64);
        self.words[(i / 64) as usize].fetch_or(mask, Ordering::AcqRel) & mask == 0
    }

    #[inline]
    fn clear(&self, i: u32) {
        let mask = 1u64 << (i % 64);
        self.words[(i / 64) as usize].fetch_and(!mask, Ordering::AcqRel);
    }

    #[inline]
    fn get(&self, i: u32) -> bool {
        let mask = 1u64 << (i % 64);
        self.words[(i / 64) as usize].load(Ordering::Acquire) & mask != 0
    }

    #[inline]
    fn word(&self, w: usize) -> u64 {
        self.words[w].load(Ordering::Acquire)
    }

    fn clear_all(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Release);
        }
    }

    /// Number of set bits (64 offsets per load; no per-object walk).
    fn count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }
}

/// A size-class allocation block: raw words, a bump cursor, and the
/// side metadata described in the module docs.
#[derive(Debug)]
pub struct Block {
    id: u32,
    size_class: u8,
    /// Owner heap id. Written at allocation; read by barriers and
    /// collectors. NOT canonicalized at merges (see `HeapTable::find`).
    owner: AtomicU32,
    /// Retained by a local collection: swept by the concurrent collector.
    entangled: AtomicBool,
    /// Bump cursor: next free word. May overshoot `capacity` (then the
    /// block is simply full).
    cursor: AtomicU32,
    /// Logical live bytes (allocation sizes minus swept objects).
    live_bytes: AtomicUsize,
    /// Number of currently pinned objects in this block.
    pinned_count: AtomicU32,
    /// Number of forwarding words installed in this block (never
    /// decremented): lets reclaim skip the chain-compression walk on
    /// blocks that never forwarded anything.
    forwarded_count: AtomicU32,
    words: Box<[AtomicU64]>,
    /// Publication bitmap: bit set at an object's header offset once the
    /// object is fully initialized.
    obj_start: Bitmap,
    /// Concurrent-collector mark bits (per cycle).
    mark: Bitmap,
    /// Sticky entanglement-candidate bits.
    suspect: Bitmap,
    /// Barrier fast-tier classifier: `suspect ∪ pinned`, conservative.
    slow: Bitmap,
    /// One mark byte per line, painted during concurrent marking.
    line_marks: Box<[AtomicU8]>,
    /// Write-through classification table (see [`SftTable`]).
    sft: Arc<SftTable>,
}

impl Block {
    /// Creates an empty block of `capacity` words owned by heap `owner`
    /// and publishes it in the SFT.
    pub fn new(
        id: u32,
        owner: u32,
        capacity: usize,
        size_class: usize,
        sft: Arc<SftTable>,
    ) -> Block {
        let capacity = capacity.max(OBJECT_HEADER_WORDS);
        sft.publish(id, owner, false);
        Block {
            id,
            size_class: size_class as u8,
            owner: AtomicU32::new(owner),
            entangled: AtomicBool::new(false),
            cursor: AtomicU32::new(0),
            live_bytes: AtomicUsize::new(0),
            pinned_count: AtomicU32::new(0),
            forwarded_count: AtomicU32::new(0),
            words: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            obj_start: Bitmap::new(capacity),
            mark: Bitmap::new(capacity),
            suspect: Bitmap::new(capacity),
            slow: Bitmap::new(capacity),
            line_marks: (0..capacity.div_ceil(LINE_WORDS))
                .map(|_| AtomicU8::new(0))
                .collect(),
            sft,
        }
    }

    /// The block's registry id.
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The size class this block serves.
    #[inline]
    pub fn size_class(&self) -> usize {
        self.size_class as usize
    }

    /// The owning heap id (uncanonicalized).
    #[inline]
    pub fn owner(&self) -> u32 {
        self.owner.load(Ordering::Acquire)
    }

    /// Re-homes the block to a different heap (merge bookkeeping),
    /// writing the SFT entry through.
    pub fn set_owner(&self, heap: u32) {
        self.owner.store(heap, Ordering::Release);
        self.sft
            .publish(self.id, heap, self.entangled.load(Ordering::Acquire));
    }

    /// Whether the block was retained into the entangled space.
    #[inline]
    pub fn is_entangled(&self) -> bool {
        self.entangled.load(Ordering::Acquire)
    }

    /// Flags the block as entangled (retained; swept by the CGC),
    /// writing the SFT entry through.
    pub fn set_entangled(&self, v: bool) {
        self.entangled.store(v, Ordering::Release);
        self.sft.publish(self.id, self.owner(), v);
    }

    /// Called by the registry when the block is freed: retracts the SFT
    /// entry so stale classifications fail closed.
    pub(crate) fn on_free(&self) {
        self.sft.retract(self.id);
    }

    /// Capacity in words.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Words allocated so far (clamped to capacity).
    #[inline]
    pub fn allocated(&self) -> usize {
        (self.cursor.load(Ordering::Acquire) as usize).min(self.capacity())
    }

    /// True once the bump cursor reached (or overshot) capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.cursor.load(Ordering::Acquire) as usize >= self.capacity()
    }

    // ---- allocation -----------------------------------------------------

    /// Reserves `nwords` contiguous words, returning the starting offset.
    /// The reservation is private (invisible to walkers) until
    /// [`Block::publish`] sets the `obj_start` bit.
    #[inline]
    pub fn try_reserve(&self, nwords: usize) -> Option<u32> {
        let n = u32::try_from(nwords).ok()?;
        let start = self.cursor.fetch_add(n, Ordering::AcqRel);
        let end = start.checked_add(n)?;
        if end as usize > self.capacity() {
            // Overshot: leave the cursor saturated; the block is full.
            return None;
        }
        Some(start)
    }

    /// Writes one payload word of a reservation (pre-publication; plain
    /// ordering, the publish fence covers it).
    #[inline]
    pub fn init_word(&self, off: u32, bits: u64) {
        self.words[off as usize].store(bits, Ordering::Relaxed);
    }

    /// Publishes a reserved object: installs the header and flips the
    /// `obj_start` bit with release ordering. All field words must have
    /// been written. Accounts the allocation into `live_bytes`.
    #[inline]
    pub fn publish(&self, off: u32, kind: ObjKind, len: usize) {
        self.words[off as usize].store(Header::new(kind, len).bits(), Ordering::Release);
        self.obj_start.set(off);
        self.live_bytes
            .fetch_add(OBJECT_OVERHEAD_BYTES + 8 * len, Ordering::Relaxed);
    }

    /// Bump-allocates a fully formed object: reserve, write `fwd = 0`
    /// and the encoded fields, publish. Returns the object's reference,
    /// or `None` if the block is full.
    #[inline]
    pub fn try_alloc(&self, kind: ObjKind, fields: &[Word]) -> Option<ObjRef> {
        let off = self.try_reserve(OBJECT_HEADER_WORDS + fields.len())?;
        self.init_word(off + 1, 0);
        for (i, w) in fields.iter().enumerate() {
            self.init_word(off + 2 + i as u32, w.bits());
        }
        self.publish(off, kind, fields.len());
        Some(ObjRef::new(self.id, off))
    }

    // ---- object access --------------------------------------------------

    /// The raw atomic word at `off` (collector internals).
    #[inline]
    pub(crate) fn word(&self, off: u32) -> &AtomicU64 {
        &self.words[off as usize]
    }

    /// Returns a view of the published object whose header sits at
    /// `off`, or `None` for never-published or out-of-range offsets.
    #[inline]
    pub fn try_get(&self, off: u32) -> Option<Object<'_>> {
        if (off as usize) < self.capacity() && self.obj_start.get(off) {
            Some(Object::view(self, off))
        } else {
            None
        }
    }

    /// Returns a view of the published object at `off`.
    ///
    /// # Panics
    ///
    /// Panics on an unpublished offset — a dangling reference.
    #[inline]
    pub fn get(&self, off: u32) -> Object<'_> {
        match self.try_get(off) {
            Some(obj) => obj,
            None => self.dangling(off),
        }
    }

    /// Resolves the published object at `off` with one header load: its
    /// view, or — if it was evacuated — the reference its forwarding word
    /// holds (which the caller resolves in turn). The mutator's one
    /// lookup per access; the same publication check as [`Block::get`].
    ///
    /// # Panics
    ///
    /// Panics on an unpublished offset — a dangling reference.
    #[inline]
    pub fn resolve(&self, off: u32) -> Result<Object<'_>, ObjRef> {
        let header = match self.words.get(off as usize) {
            Some(header) if self.obj_start.get(off) => header,
            _ => self.dangling(off),
        };
        let hdr = Header::from_bits(header.load(Ordering::Acquire));
        if hdr.is_forwarded() {
            // Read in place: a call here would keep the caller's registers
            // saved across its whole inlined hit path.
            let fwd = Word::from_bits(self.words[off as usize + 1].load(Ordering::Acquire));
            return Err(fwd.pointer().expect("forwarded object lacks fwd ref"));
        }
        Ok(Object::with_len(self, off, hdr.len()))
    }

    /// The view [`Block::resolve`] returned for `off`, rebuilt from the
    /// field count it carried — no publication check, no header load. For
    /// a caller that had to let go of the first view's borrow in between.
    #[inline]
    pub fn view_resolved(&self, off: u32, len: usize) -> Object<'_> {
        debug_assert!(
            self.try_get(off).is_some_and(|obj| obj.len() == len),
            "b{}w{off} was not resolved with {len} fields",
            self.id
        );
        Object::with_len(self, off, len)
    }

    /// Out of line so the accessors above inline into other crates
    /// without dragging the formatting machinery along.
    #[cold]
    #[inline(never)]
    fn dangling(&self, off: u32) -> ! {
        panic!("dangling reference b{}w{}", self.id, off)
    }

    /// Iterates `(offset, object)` over every published object, in
    /// address order, by scanning the `obj_start` bitmap.
    pub fn objects(&self) -> impl Iterator<Item = (u32, Object<'_>)> + '_ {
        let nwords = self.obj_start.words.len();
        (0..nwords).flat_map(move |w| {
            let mut bits = self.obj_start.word(w);
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let off = (w as u32) * 64 + b;
                Some((off, Object::view(self, off)))
            })
        })
    }

    /// Offsets of published objects that are **unmarked** this cycle:
    /// the sweep's kill candidates, computed 64 objects at a time from
    /// `obj_start & !mark` without touching any object header.
    pub fn unmarked_offsets(&self) -> impl Iterator<Item = u32> + '_ {
        let nwords = self.obj_start.words.len();
        (0..nwords).flat_map(move |w| {
            let mut bits = self.obj_start.word(w) & !self.mark.word(w);
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some((w as u32) * 64 + b)
            })
        })
    }

    // ---- accounting -----------------------------------------------------

    /// Number of published objects (census: popcount of `obj_start`).
    pub fn object_count(&self) -> usize {
        self.obj_start.count()
    }

    /// Number of objects carrying this cycle's concurrent mark bit.
    pub fn marked_count(&self) -> usize {
        self.mark.count()
    }

    /// Number of sticky entanglement suspects in this block.
    pub fn suspect_count(&self) -> usize {
        self.suspect.count()
    }

    /// Logical live bytes currently attributed to this block.
    #[inline]
    pub fn live_bytes(&self) -> usize {
        self.live_bytes.load(Ordering::Acquire)
    }

    /// Subtracts reclaimed bytes (saturating).
    pub fn sub_live_bytes(&self, bytes: usize) {
        let mut cur = self.live_bytes.load(Ordering::Acquire);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.live_bytes.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Number of currently pinned objects.
    #[inline]
    pub fn pinned_count(&self) -> u32 {
        self.pinned_count.load(Ordering::Acquire)
    }

    /// Adjusts the pinned-object count.
    pub fn add_pinned(&self, delta: i32) {
        if delta >= 0 {
            self.pinned_count.fetch_add(delta as u32, Ordering::AcqRel);
        } else {
            self.pinned_count
                .fetch_sub(delta.unsigned_abs(), Ordering::AcqRel);
        }
    }

    /// Number of forwarding words ever installed in this block.
    #[inline]
    pub fn forwarded_count(&self) -> u32 {
        self.forwarded_count.load(Ordering::Acquire)
    }

    pub(crate) fn note_forwarded(&self) {
        self.forwarded_count.fetch_add(1, Ordering::AcqRel);
    }

    // ---- side-metadata GC bits ------------------------------------------

    /// Sets the concurrent mark bit for the object at `off` and paints
    /// its lines; true if this call marked it first.
    #[inline]
    pub(crate) fn try_set_mark(&self, off: u32, nwords: usize) -> bool {
        let newly = self.mark.set(off);
        if newly {
            self.mark_lines(off, nwords);
        }
        newly
    }

    /// True if the object at `off` carries the concurrent mark bit.
    #[inline]
    pub fn is_marked(&self, off: u32) -> bool {
        self.mark.get(off)
    }

    #[inline]
    pub(crate) fn clear_mark(&self, off: u32) {
        self.mark.clear(off);
    }

    /// Clears the whole mark bitmap and the line map (cycle epilogue).
    pub fn clear_all_marks(&self) {
        self.mark.clear_all();
        for l in self.line_marks.iter() {
            l.store(0, Ordering::Release);
        }
    }

    /// Marks the object at `off` as an entanglement suspect (it also
    /// joins the barrier slow set). Used by the store's allocation paths
    /// and by the local collector's to-space when copying suspects.
    #[inline]
    pub fn set_suspect(&self, off: u32) {
        // Order: suspect first, then slow — `clear_slow_unless_suspect`
        // rechecks suspect after clearing, so a racing unpin can never
        // strand a suspect object outside the slow set.
        self.suspect.set(off);
        self.slow.set(off);
    }

    #[inline]
    pub(crate) fn is_suspect(&self, off: u32) -> bool {
        self.suspect.get(off)
    }

    /// The barrier fast tier's one-load classification: true if the
    /// object needs the slow path (suspect or possibly pinned).
    #[inline]
    pub(crate) fn is_slow(&self, off: u32) -> bool {
        self.slow.get(off)
    }

    /// Flags the object slow *before* a pin attempt (conservative: set
    /// even if the pin CAS then fails — a stray slow bit is harmless).
    #[inline]
    pub(crate) fn set_slow(&self, off: u32) {
        self.slow.set(off);
    }

    /// Clears the slow bit after an unpin, unless the sticky suspect
    /// bit keeps the object in the slow set.
    #[inline]
    pub(crate) fn clear_slow_unless_suspect(&self, off: u32) {
        self.slow.clear(off);
        if self.suspect.get(off) {
            self.slow.set(off);
        }
    }

    // ---- line map -------------------------------------------------------

    /// Total lines in this block.
    #[inline]
    pub fn line_count(&self) -> usize {
        self.line_marks.len()
    }

    /// Lines overlapping the allocated (bumped) region.
    #[inline]
    pub fn lines_in_use(&self) -> usize {
        self.allocated().div_ceil(LINE_WORDS)
    }

    /// Paints every line the object at `off` spans.
    #[inline]
    pub(crate) fn mark_lines(&self, off: u32, nwords: usize) {
        let first = off as usize / LINE_WORDS;
        let last = (off as usize + nwords.max(1) - 1) / LINE_WORDS;
        for l in first..=last.min(self.line_marks.len() - 1) {
            self.line_marks[l].store(1, Ordering::Release);
        }
    }

    /// Number of painted lines this cycle.
    pub fn marked_lines(&self) -> usize {
        self.line_marks
            .iter()
            .filter(|l| l.load(Ordering::Acquire) != 0)
            .count()
    }

    /// True when no line is painted: the sweep may free the block
    /// wholesale (no marked survivor can live in it).
    pub fn line_map_clean(&self) -> bool {
        self.line_marks
            .iter()
            .all(|l| l.load(Ordering::Acquire) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sft() -> Arc<SftTable> {
        Arc::new(SftTable::new())
    }

    #[test]
    fn bump_allocates_inline_objects() {
        let b = Block::new(0, 7, 64, 0, sft());
        let r1 = b
            .try_alloc(ObjKind::Tuple, &[Word::encode(Value::Int(1))])
            .unwrap();
        let r2 = b
            .try_alloc(
                ObjKind::Tuple,
                &[Word::encode(Value::Int(2)), Word::encode(Value::Int(3))],
            )
            .unwrap();
        assert_eq!(r1.word(), 0);
        assert_eq!(r2.word(), 3, "3-word object bumps the cursor by 3");
        let o1 = b.get(r1.word());
        assert_eq!(o1.len(), 1);
        assert_eq!(o1.field(0), Value::Int(1));
        let o2 = b.get(r2.word());
        assert_eq!(o2.field(1), Value::Int(3));
        assert_eq!(b.allocated(), 7);
        assert_eq!(b.live_bytes(), 2 * OBJECT_OVERHEAD_BYTES + 8 * 3);
    }

    #[test]
    fn overflow_returns_none_and_fills() {
        let b = Block::new(0, 0, 8, 0, sft());
        assert!(b.try_alloc(ObjKind::Tuple, &[Word::UNIT; 2]).is_some());
        assert!(
            b.try_alloc(ObjKind::Tuple, &[Word::UNIT; 4]).is_none(),
            "6 words do not fit in the 4 remaining"
        );
        assert!(b.is_full(), "an overshot cursor leaves the block full");
    }

    #[test]
    fn unpublished_offsets_are_invisible() {
        let b = Block::new(0, 0, 32, 0, sft());
        let off = b.try_reserve(3).unwrap();
        assert!(b.try_get(off).is_none(), "reserved but unpublished");
        assert_eq!(b.objects().count(), 0);
        b.init_word(off + 1, 0);
        b.init_word(off + 2, Word::encode(Value::Int(9)).bits());
        b.publish(off, ObjKind::Ref, 1);
        assert_eq!(b.objects().count(), 1);
        assert_eq!(b.get(off).field(0), Value::Int(9));
    }

    #[test]
    fn dangling_get_panics() {
        let b = Block::new(3, 0, 16, 0, sft());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.get(5)));
        assert!(res.is_err());
    }

    #[test]
    fn resolve_yields_the_view_or_the_forwardee() {
        let b = Block::new(0, 0, 32, 0, sft());
        let r = b
            .try_alloc(ObjKind::Tuple, &[Word::UNIT, Word::encode(Value::Int(4))])
            .unwrap();
        let obj = b.resolve(r.word()).expect("not forwarded");
        assert_eq!((obj.offset(), obj.len()), (r.word(), 2));
        assert_eq!(b.view_resolved(r.word(), 2).field(1), Value::Int(4));
        let dst = ObjRef::new(9, 4);
        obj.try_forward(dst).unwrap();
        assert_eq!(b.resolve(r.word()).unwrap_err(), dst);
    }

    #[test]
    #[should_panic(expected = "dangling reference b3w1")]
    fn resolve_of_an_unpublished_offset_panics() {
        let b = Block::new(3, 0, 16, 0, sft());
        b.try_alloc(ObjKind::Ref, &[Word::UNIT]).unwrap();
        let _ = b.resolve(1);
    }

    #[test]
    fn mark_bitmap_and_lines() {
        let b = Block::new(0, 0, 64, 0, sft());
        let r = b.try_alloc(ObjKind::Tuple, &[Word::UNIT]).unwrap();
        assert!(!b.is_marked(r.word()));
        assert!(b.line_map_clean());
        assert!(b.try_set_mark(r.word(), 3));
        assert!(!b.try_set_mark(r.word(), 3), "second mark is not new");
        assert!(b.is_marked(r.word()));
        assert_eq!(b.marked_lines(), 1);
        assert_eq!(b.unmarked_offsets().count(), 0);
        b.clear_all_marks();
        assert!(b.line_map_clean());
        assert_eq!(b.unmarked_offsets().count(), 1);
    }

    #[test]
    fn suspect_and_slow_bits() {
        let b = Block::new(0, 0, 32, 0, sft());
        let r = b.try_alloc(ObjKind::Ref, &[Word::UNIT]).unwrap();
        let off = r.word();
        assert!(!b.is_slow(off));
        b.set_slow(off); // pin path
        assert!(b.is_slow(off));
        b.clear_slow_unless_suspect(off); // unpin, never suspected
        assert!(!b.is_slow(off));
        b.set_suspect(off);
        assert!(b.is_slow(off) && b.is_suspect(off));
        b.clear_slow_unless_suspect(off); // unpin of a suspect: stays slow
        assert!(b.is_slow(off), "suspect bit is sticky through unpins");
    }

    #[test]
    fn size_class_mapping() {
        assert_eq!(size_class(2), 0);
        assert_eq!(size_class(4), 0);
        assert_eq!(size_class(5), 1);
        assert_eq!(size_class(8), 1);
        assert_eq!(size_class(16), 2);
        assert_eq!(size_class(17), 3);
        assert_eq!(size_class(10_000), 3);
    }

    #[test]
    fn sft_write_through() {
        let t = sft();
        let b = Block::new(12, 5, 32, 0, Arc::clone(&t));
        assert_eq!(t.owner_of(12), Some(5));
        b.set_owner(9);
        assert_eq!(t.owner_of(12), Some(9));
        b.set_entangled(true);
        assert!(t.classify(12).unwrap().entangled);
        b.on_free();
        assert_eq!(t.classify(12), None);
    }

    #[test]
    fn live_bytes_saturating_sub() {
        let b = Block::new(0, 0, 32, 0, sft());
        b.try_alloc(ObjKind::Tuple, &[Word::UNIT]).unwrap();
        let lb = b.live_bytes();
        b.sub_live_bytes(lb + 100);
        assert_eq!(b.live_bytes(), 0);
    }
}
