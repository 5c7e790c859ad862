//! Size-class blocks: raw word-addressed allocation pages with
//! bump-pointer cursors, Immix-style line marks, and side-metadata
//! bitmaps for the GC bits that used to live in object headers.
//!
//! A block is a fixed run of atomic 64-bit words. Objects are laid out
//! **inline**: `[header][fwd][field 0]…[field n-1]`, addressed by their
//! header's word offset — an [`crate::ObjRef`] is a `(block id, word
//! offset)` pair. Allocation goes through a [`Region`]: the free tail of
//! one block, claimed by one allocator, whose cursor and limit are plain
//! integers. A reservation is a compare and an add, followed by plain word
//! stores; there is no locked instruction, no per-object `OnceLock`, no
//! boxed `Object`, no `Vec`.
//!
//! A block's owner heap is a plain field, fixed when the registry builds
//! the block ([`crate::BlockRegistry::register`]); the registry keeps the
//! same value in its lock-free owner index for readers that have only a
//! block id.
//!
//! ## One allocator per block
//!
//! At any time a block has at most one allocator: the task whose leaf
//! heap holds it as a current allocation block, the local collection whose
//! to-space it is, or the one store-level call that adopted it. Allocation
//! blocks are per heap, and a heap is allocated into only by the task it
//! is the leaf of: its ancestors' tasks are suspended until the join, a
//! joined child's allocation blocks are dropped with its task, and a local
//! collection runs inside the task. The block's shared `cursor` and
//! `live_bytes` are therefore written by that allocator alone, and only
//! when it lets go of the region — at a refill, a fork, a local collection
//! and the end of the task ([`Region::settle`], [`Region::retire`]): one
//! store and one `fetch_add` per region instead of two locked instructions
//! per object. The next allocator adopts the block through an acquire load
//! of the cursor that reads that store.
//!
//! ## Publication
//!
//! A reservation is invisible until published: the allocator writes the
//! payload words, then sets the object's bit in the `obj_start` bitmap
//! with release ordering. Readers (`try_get`, the `objects()` walker,
//! both collectors) only ever interpret words beneath a set `obj_start`
//! bit, acquired-loaded — a torn or half-initialized reservation cannot
//! be observed. The bit is set with a load and a release store, not a
//! `fetch_or`: start bits are only ever set, never cleared, and only the
//! block's one allocator sets them, so no other writer's bit can be lost
//! between the load and the store.
//!
//! ## Zero payload
//!
//! Words at or beyond a block's allocated extent have never been written:
//! blocks are built zeroed and never reused, and every store into a block
//! lands inside a reserved or published object. A fresh reservation's
//! words are therefore already zero, so its forwarding word needs no store
//! and a raw array's payload is written by nobody. A block of 128 KiB or
//! more maps its words (and metadata of that size) from the OS and unmaps
//! them when dropped (`zeroed.rs` has the measured reason); smaller blocks
//! take theirs from the Rust allocator.
//!
//! ## Side metadata
//!
//! Four more bitmaps (one bit per word, indexed by an object's header
//! offset) carry the GC state that moved out of the header. All five
//! bitmaps share one allocation, interleaved so that the words covering
//! the same 64 offsets sit side by side:
//!
//! * `mark` — the concurrent collector's per-cycle mark. Sound outside
//!   the header CAS because marks are only read for reclamation *after*
//!   the mark-termination handshake, when no marker is running and the
//!   bits are stable (see `mpl-gc`'s phase ordering).
//! * `down` — the object received a down-pointer write: one of its
//!   fields may point into a heap below its own. It lasts until the join
//!   that merges that heap into the object's, which makes every such
//!   pointer internal and clears the bit ([`Block::clear_down`]); a local
//!   collection drops it, as the collected heap has no descendants.
//! * `cross` — the object received a pointer into a heap off its own
//!   path (the write barrier's entangled store). Set-only for the
//!   object's lifetime; the local collector copies it to the evacuated
//!   copy.
//! * `slow` — the barrier fast tier's single-load classifier:
//!   `down ∪ cross ∪ pinned`, maintained conservatively. A spurious slow
//!   bit only costs a slow-tier trip; a missing one would let a reader
//!   load a pointer into another heap without pinning it.
//!
//! ## Why a pinned object is never fast
//!
//! Two paths clear `slow`, and each re-derives it: an unpin keeps it for
//! `down` or `cross`, a join's [`Block::clear_down`] for `cross`. Neither
//! races a mark: only a task the object is local to marks it, and at a
//! join of the object's heap that is the joining task alone. An unpin
//! only ends a pin. The join's clear races the one writer it cannot see
//! coming: a task outside the joining heap pinning the very object it
//! clears. The pin count of the block decides that race. A join clears
//! `slow` only while it holds the block's pins off ([`Block::clear_down`]
//! claims the count from zero, as [`Block::try_retire`] does), so no
//! object of the block is pinned while it clears. A pinner that counted
//! its pin on the block ([`Block::reserve_pin`]) while the claim was held
//! waits for its release and then sets `slow` again before its pin CAS:
//! the release orders the clear before that second set. A pinner that
//! counted first makes the claim fail, and the join leaves `slow` set.
//! Either way the pin becomes visible only with `slow` set, and stays so
//! until it ends.
//!
//! Line marks divide the block into [`LINE_WORDS`]-word lines; the
//! marker paints every line an object spans, so a sweep can free a
//! block whose line map is clean wholesale and account reclaimed lines
//! without walking objects.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::header::{Header, ObjKind};
use crate::object::Object;
use crate::value::{ObjRef, Word};
use crate::zeroed::Zeroed;

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

/// The pin-count bit [`Block::try_retire`] sets.
const RETIRED: u32 = 1 << 31;

/// The pin-count bit [`Block::clear_down`] holds while it clears `slow`
/// bits: pins wait for its release.
const CLEARING: u32 = 1 << 30;

/// Upper bounds (inclusive, in total words) of the non-overflow classes.
pub const SIZE_CLASS_WORDS: [usize; NUM_SIZE_CLASSES - 1] = [4, 8, 16];

/// The size class for an object of `nwords` total inline words.
#[inline]
pub fn size_class(nwords: usize) -> usize {
    SIZE_CLASS_WORDS
        .iter()
        .position(|&cap| nwords <= cap)
        .unwrap_or(NUM_SIZE_CLASSES - 1)
}

/// The bitmaps of [`Bitmaps`], by position in an interleaved group.
const OBJ_START: usize = 0;
const MARK: usize = 1;
const DOWN: usize = 2;
const CROSS: usize = 3;
const SLOW: usize = 4;
const MAPS: usize = 5;

/// The block's five side-metadata bitmaps — one bit per word offset each
/// — in one allocation: word `MAPS * w + map` holds offsets `64w..64w+63`
/// of bitmap `map`.
#[derive(Debug)]
struct Bitmaps {
    words: Zeroed<AtomicU64>,
}

impl Bitmaps {
    fn new(bits: usize) -> Bitmaps {
        Bitmaps {
            words: Zeroed::new(MAPS * bits.div_ceil(64)),
        }
    }

    /// Number of words in each bitmap.
    #[inline]
    fn len(&self) -> usize {
        self.words.len() / MAPS
    }

    /// The word of `map` holding bit `i`, and the bit's mask.
    #[inline]
    fn bit(&self, map: usize, i: u32) -> (&AtomicU64, u64) {
        (
            &self.words[MAPS * (i / 64) as usize + map],
            1u64 << (i % 64),
        )
    }

    /// Sets bit `i`; true if it was previously clear.
    #[inline]
    fn set(&self, map: usize, i: u32) -> bool {
        let (word, mask) = self.bit(map, i);
        word.fetch_or(mask, Ordering::AcqRel) & mask == 0
    }

    #[inline]
    fn clear(&self, map: usize, i: u32) {
        let (word, mask) = self.bit(map, i);
        word.fetch_and(!mask, Ordering::AcqRel);
    }

    #[inline]
    fn get(&self, map: usize, i: u32) -> bool {
        let (word, mask) = self.bit(map, i);
        word.load(Ordering::Acquire) & mask != 0
    }

    #[inline]
    fn word(&self, map: usize, w: usize) -> u64 {
        self.words[MAPS * w + map].load(Ordering::Acquire)
    }

    fn clear_all(&self, map: usize) {
        for w in self.words.iter().skip(map).step_by(MAPS) {
            w.store(0, Ordering::Release);
        }
    }

    /// Number of set bits (64 offsets per load; no per-object walk).
    fn count(&self, map: usize) -> usize {
        self.words
            .iter()
            .skip(map)
            .step_by(MAPS)
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
    /// Owner heap id, fixed at allocation; the registry's owner index
    /// holds the same value. NOT canonicalized at merges (see
    /// `HeapTable::find`).
    owner: u32,
    /// Retained by a local collection: swept by the concurrent collector.
    entangled: AtomicBool,
    /// The settled extent: every word below it belongs to a published
    /// object, or the block was retired full. Written only by the block's
    /// allocator, when it lets go of its region.
    cursor: AtomicU32,
    /// Logical live bytes (settled allocation sizes minus swept objects).
    live_bytes: AtomicUsize,
    /// Number of currently pinned objects in this block, plus pins being
    /// taken; [`RETIRED`] once a local collection gave the block up.
    pinned_count: AtomicU32,
    /// Number of forwarding words installed in this block (never
    /// decremented): lets reclaim skip the chain-compression walk on
    /// blocks that never forwarded anything.
    forwarded_count: AtomicU32,
    words: Zeroed<AtomicU64>,
    /// Publication (`obj_start`: set at an object's header offset once it
    /// is fully initialized), concurrent mark, down, cross and slow bits.
    maps: Bitmaps,
    /// One mark byte per line, painted during concurrent marking.
    line_marks: Zeroed<AtomicU8>,
}

impl Block {
    /// Creates an empty block of `capacity` words owned by heap `owner`
    /// (the registry's [`crate::BlockRegistry::register`] is the one
    /// caller outside tests).
    pub(crate) fn new(id: u32, owner: u32, capacity: usize, size_class: usize) -> Block {
        let capacity = capacity.max(OBJECT_HEADER_WORDS);
        Block {
            id,
            size_class: size_class as u8,
            owner,
            entangled: AtomicBool::new(false),
            cursor: AtomicU32::new(0),
            live_bytes: AtomicUsize::new(0),
            pinned_count: AtomicU32::new(0),
            forwarded_count: AtomicU32::new(0),
            words: Zeroed::new(capacity),
            maps: Bitmaps::new(capacity),
            line_marks: Zeroed::new(capacity.div_ceil(LINE_WORDS)),
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
        self.owner
    }

    /// Whether the block was retained into the entangled space.
    #[inline]
    pub fn is_entangled(&self) -> bool {
        self.entangled.load(Ordering::Acquire)
    }

    /// Flags the block as entangled (retained; swept by the CGC).
    pub fn set_entangled(&self, v: bool) {
        self.entangled.store(v, Ordering::Release);
    }

    /// Capacity in words.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Words allocated so far, as last settled.
    #[inline]
    pub fn allocated(&self) -> usize {
        self.cursor.load(Ordering::Acquire) as usize
    }

    /// True once the settled cursor reached capacity (the block was
    /// filled, or retired with a tail too short for the next object).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.allocated() >= self.capacity()
    }

    // ---- allocation (through a `Region`) --------------------------------

    /// Installs the header of the object reserved at `off` and sets its
    /// `obj_start` bit with release ordering. All field words must have
    /// been written. The caller is the block's one allocator (see the
    /// module docs), so the bit's word has no other writer.
    #[inline]
    fn publish(&self, off: u32, kind: ObjKind, len: usize) {
        self.words[off as usize].store(Header::new(kind, len).bits(), Ordering::Release);
        let (word, mask) = self.maps.bit(OBJ_START, off);
        word.store(word.load(Ordering::Relaxed) | mask, Ordering::Release);
    }

    /// Publishes an allocator's extent: the words between the settled
    /// cursor and `cursor` are published objects, 8 live bytes per word.
    /// With `full`, the cursor is then left at capacity.
    fn settle(&self, cursor: u32, full: bool) {
        let settled = self.cursor.load(Ordering::Relaxed);
        if cursor > settled {
            self.live_bytes
                .fetch_add(8 * (cursor - settled) as usize, Ordering::Relaxed);
            self.cursor.store(cursor, Ordering::Release);
        }
        if full {
            self.cursor.store(self.capacity() as u32, Ordering::Release);
        }
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
        if (off as usize) < self.capacity() && self.maps.get(OBJ_START, off) {
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
            Some(header) if self.maps.get(OBJ_START, off) => header,
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

    /// The offsets of the set bits in `bits`, the `w`-th word of a bitmap.
    fn offsets(w: usize, mut bits: u64) -> impl Iterator<Item = u32> {
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            Some((w as u32) * 64 + b)
        })
    }

    /// Iterates `(offset, object)` over every published object, in
    /// address order, by scanning the `obj_start` bitmap.
    pub fn objects(&self) -> impl Iterator<Item = (u32, Object<'_>)> + '_ {
        (0..self.maps.len()).flat_map(move |w| {
            Block::offsets(w, self.maps.word(OBJ_START, w))
                .map(|off| (off, Object::view(self, off)))
        })
    }

    /// Offsets of published objects that are **unmarked** this cycle:
    /// the sweep's kill candidates, computed 64 objects at a time from
    /// `obj_start & !mark` without touching any object header.
    pub fn unmarked_offsets(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.maps.len()).flat_map(move |w| {
            Block::offsets(w, self.maps.word(OBJ_START, w) & !self.maps.word(MARK, w))
        })
    }

    // ---- accounting -----------------------------------------------------

    /// Number of published objects (census: popcount of `obj_start`).
    pub fn object_count(&self) -> usize {
        self.maps.count(OBJ_START)
    }

    /// Number of objects carrying this cycle's concurrent mark bit.
    pub fn marked_count(&self) -> usize {
        self.maps.count(MARK)
    }

    /// Number of entanglement suspects in this block: objects that hold
    /// a down-pointer not yet made internal by its join, or a pointer
    /// into a heap off their own path.
    pub fn suspect_count(&self) -> usize {
        (0..self.maps.len())
            .map(|w| (self.maps.word(DOWN, w) | self.maps.word(CROSS, w)).count_ones() as usize)
            .sum()
    }

    /// Logical live bytes currently attributed to this block, as last
    /// settled.
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
        self.pinned_count.load(Ordering::Acquire) & !(RETIRED | CLEARING)
    }

    /// Gives the block up to its local collection's retirement, unless a
    /// pin holds or is being taken on it: one CAS of the pin count from
    /// zero, so it and [`Block::reserve_pin`] exclude each other. A
    /// retired block's objects are all forwarded or garbage; none can be
    /// pinned from here on.
    pub fn try_retire(&self) -> bool {
        self.pinned_count
            .compare_exchange(0, RETIRED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Whether [`Block::try_retire`] gave the block up: its objects are all
    /// forwarded or garbage.
    pub fn is_retired(&self) -> bool {
        self.pinned_count.load(Ordering::Acquire) & RETIRED != 0
    }

    /// Counts a pin about to be taken on an object of this block, before
    /// its header shows it; false (and nothing counted) once the block is
    /// retired — the object is garbage a reader loaded before its owner's
    /// collection, which must not escape pinned into a block about to be
    /// freed. A join clearing `slow` bits in the block
    /// ([`Block::clear_down`]) is waited out: the caller sets `slow` again
    /// after this returns (see the module docs).
    pub fn reserve_pin(&self) -> bool {
        let mut count = self.pinned_count.fetch_add(1, Ordering::AcqRel);
        if count & RETIRED != 0 {
            self.pinned_count.fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        while count & CLEARING != 0 {
            std::hint::spin_loop();
            count = self.pinned_count.load(Ordering::Acquire);
        }
        true
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
        let newly = self.maps.set(MARK, off);
        if newly {
            self.mark_lines(off, nwords);
        }
        newly
    }

    /// True if the object at `off` carries the concurrent mark bit.
    #[inline]
    pub fn is_marked(&self, off: u32) -> bool {
        self.maps.get(MARK, off)
    }

    #[inline]
    pub(crate) fn clear_mark(&self, off: u32) {
        self.maps.clear(MARK, off);
    }

    /// Clears the whole mark bitmap and the line map (cycle epilogue).
    pub fn clear_all_marks(&self) {
        self.maps.clear_all(MARK);
        for l in self.line_marks.iter() {
            l.store(0, Ordering::Release);
        }
    }

    /// Marks the object at `off` as the source of a down-pointer (it also
    /// joins the barrier slow set) until [`Block::clear_down`].
    #[inline]
    pub(crate) fn set_down(&self, off: u32) {
        // Order: the mark, then slow, then the caller's store of the
        // pointer: whoever reads the pointer sees the object slow.
        self.maps.set(DOWN, off);
        self.maps.set(SLOW, off);
    }

    /// Marks the object at `off` as holding a pointer into a heap off its
    /// own path, for the object's lifetime (it also joins the barrier
    /// slow set). Used by the write barrier and by the local collector's
    /// to-space when copying such an object.
    #[inline]
    pub fn set_cross(&self, off: u32) {
        // Order: as in `set_down`.
        self.maps.set(CROSS, off);
        self.maps.set(SLOW, off);
    }

    #[cfg(test)]
    fn is_down(&self, off: u32) -> bool {
        self.maps.get(DOWN, off)
    }

    #[inline]
    pub(crate) fn is_cross(&self, off: u32) -> bool {
        self.maps.get(CROSS, off)
    }

    /// The barrier fast tier's one-load classification: true if the
    /// object needs the slow path (down, cross or possibly pinned).
    #[inline]
    pub(crate) fn is_slow(&self, off: u32) -> bool {
        self.maps.get(SLOW, off)
    }

    /// Flags the object slow around a pin attempt (conservative: set even
    /// if the pin CAS then fails — a stray slow bit is harmless).
    #[inline]
    pub(crate) fn set_slow(&self, off: u32) {
        self.maps.set(SLOW, off);
    }

    /// Clears the slow bit after an unpin, unless `down` or `cross` keeps
    /// the object in the slow set.
    #[inline]
    pub(crate) fn clear_slow_after_unpin(&self, off: u32) {
        self.maps.clear(SLOW, off);
        if self.maps.get(DOWN, off) || self.maps.get(CROSS, off) {
            self.maps.set(SLOW, off);
        }
    }

    /// Ends the `down` marks of the objects at `offs`: a join made every
    /// down-pointer they held internal. Each object leaves the slow set
    /// unless `cross` keeps it there — but only while the block's pins are
    /// held off (see the module docs): with a pin counted on the block,
    /// or being taken, `slow` stays as it is.
    pub fn clear_down(&self, offs: impl IntoIterator<Item = u32>) {
        /// Releases the claim, on unwinding out of the failpoint too.
        struct Held<'a>(&'a AtomicU32);
        impl Drop for Held<'_> {
            fn drop(&mut self) {
                self.0.fetch_and(!CLEARING, Ordering::AcqRel);
            }
        }
        let held = self
            .pinned_count
            .compare_exchange(0, CLEARING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
            .then(|| Held(&self.pinned_count));
        for off in offs {
            self.maps.clear(DOWN, off);
            if held.is_some() && !self.maps.get(CROSS, off) {
                self.maps.clear(SLOW, off);
            }
        }
        // Between the clears and the release: a pinner of one of these
        // objects that counted its pin meanwhile waits here.
        mpl_fail::hit_hard("heap/join_clear");
        drop(held);
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

/// A bump region: the free tail of one block, claimed by the block's one
/// allocator (see the module docs) until it lets go. The cursor and limit
/// are plain integers the allocator owns, so reserving is a compare and
/// an add; the block's shared cursor and live bytes catch up when the
/// region settles. Every allocation into a block — a task's, a local
/// collection's to-space, a store-level call — goes through one.
#[derive(Debug)]
pub struct Region {
    block: Arc<Block>,
    cursor: u32,
    limit: u32,
}

impl Region {
    /// Claims the unallocated tail of `block`. The caller becomes its one
    /// allocator until the region settles.
    pub fn adopt(block: Arc<Block>) -> Region {
        let cursor = block.allocated().min(block.capacity()) as u32;
        let limit = block.capacity() as u32;
        Region {
            block,
            cursor,
            limit,
        }
    }

    /// The block this region bumps through.
    #[inline]
    pub fn block(&self) -> &Arc<Block> {
        &self.block
    }

    /// Words left in the region.
    #[inline]
    pub fn room(&self) -> usize {
        (self.limit - self.cursor) as usize
    }

    /// Reserves `nwords` contiguous words and returns their offset, or
    /// `None` when the region lacks room. The reservation is invisible to
    /// walkers until [`Region::publish`], and its words are zero.
    #[inline]
    pub fn reserve(&mut self, nwords: usize) -> Option<u32> {
        let start = self.cursor;
        if nwords > self.room() {
            return None;
        }
        self.cursor = start + nwords as u32;
        Some(start)
    }

    /// Writes field `i` of the object reserved at `off`, before it is
    /// published (plain ordering: the publication's release covers it).
    #[inline]
    pub fn write(&self, off: u32, i: usize, w: Word) {
        self.block.words[off as usize + OBJECT_HEADER_WORDS + i].store(w.bits(), Ordering::Relaxed);
    }

    /// Publishes the object reserved at `off` once its fields are written
    /// (its forwarding word is already zero) and returns its reference.
    #[inline]
    pub fn publish(&mut self, off: u32, kind: ObjKind, len: usize) -> ObjRef {
        self.block.publish(off, kind, len);
        ObjRef::new(self.block.id, off)
    }

    /// Reserves, writes and publishes an object with `fields`, or returns
    /// `None` when the region lacks room.
    #[inline]
    pub fn alloc(&mut self, kind: ObjKind, fields: &[Word]) -> Option<ObjRef> {
        let off = self.reserve(OBJECT_HEADER_WORDS + fields.len())?;
        for (i, &w) in fields.iter().enumerate() {
            self.write(off, i, w);
        }
        Some(self.publish(off, kind, fields.len()))
    }

    /// Publishes what the region reserved since it was adopted or last
    /// settled into the block: one store of the cursor and one `fetch_add`
    /// of the live bytes — every reserved word lies in a published object,
    /// 8 bytes each. Nothing when nothing was reserved; the region stays
    /// usable.
    pub fn settle(&mut self) {
        self.block.settle(self.cursor, false);
    }

    /// Settles and lets go of a region too short for the next object,
    /// leaving the block full: no later allocator adopts the tail, and
    /// the sweep and census count every line in use.
    pub fn retire(self) {
        self.block.settle(self.cursor, true);
    }
}

/// Test helper: allocates one object the way a store-level call does —
/// adopt, allocate, settle, or retire the block full when it lacks room.
#[cfg(test)]
pub(crate) fn alloc_once(block: &Arc<Block>, kind: ObjKind, fields: &[Word]) -> Option<ObjRef> {
    let mut region = Region::adopt(Arc::clone(block));
    let r = region.alloc(kind, fields);
    match r {
        Some(_) => region.settle(),
        None => region.retire(),
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::OBJECT_OVERHEAD_BYTES;
    use crate::value::Value;

    fn block(id: u32, owner: u32, capacity: usize) -> Arc<Block> {
        Arc::new(Block::new(id, owner, capacity, 0))
    }

    #[test]
    fn bump_allocates_inline_objects() {
        let b = block(0, 7, 64);
        let r1 = alloc_once(&b, ObjKind::Tuple, &[Word::encode(Value::Int(1))]).unwrap();
        let r2 = alloc_once(
            &b,
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
        let b = block(0, 0, 8);
        assert!(alloc_once(&b, ObjKind::Tuple, &[Word::UNIT; 2]).is_some());
        assert!(
            alloc_once(&b, ObjKind::Tuple, &[Word::UNIT; 4]).is_none(),
            "6 words do not fit in the 4 remaining"
        );
        assert!(b.is_full(), "a retired region leaves the block full");
        assert_eq!(b.lines_in_use(), 1);
        assert_eq!(
            b.live_bytes(),
            OBJECT_OVERHEAD_BYTES + 16,
            "no bytes for the miss"
        );
    }

    #[test]
    fn a_region_settles_once_per_let_go() {
        let b = block(0, 0, 64);
        let mut region = Region::adopt(Arc::clone(&b));
        let r1 = region.alloc(ObjKind::Tuple, &[Word::UNIT]).unwrap();
        region.alloc(ObjKind::Tuple, &[Word::UNIT; 3]).unwrap();
        assert_eq!(b.get(r1.word()).len(), 1, "published before the settle");
        assert_eq!((b.allocated(), b.live_bytes()), (0, 0), "not yet settled");
        region.settle();
        assert_eq!((b.allocated(), b.live_bytes()), (8, 64));
        region.settle();
        assert_eq!((b.allocated(), b.live_bytes()), (8, 64), "idempotent");
        region.alloc(ObjKind::Ref, &[Word::UNIT]).unwrap();
        region.settle();
        assert_eq!((b.allocated(), b.live_bytes()), (11, 88));
        // The next allocator starts where the last one settled.
        let mut next = Region::adopt(Arc::clone(&b));
        assert_eq!(next.reserve(2), Some(11));
    }

    #[test]
    fn unpublished_offsets_are_invisible() {
        let b = block(0, 0, 32);
        let mut region = Region::adopt(Arc::clone(&b));
        let off = region.reserve(3).unwrap();
        assert!(b.try_get(off).is_none(), "reserved but unpublished");
        assert_eq!(b.objects().count(), 0);
        region.write(off, 0, Word::encode(Value::Int(9)));
        region.publish(off, ObjKind::Ref, 1);
        assert_eq!(b.objects().count(), 1);
        assert_eq!(b.get(off).field(0), Value::Int(9));
        assert_eq!(b.get(off).forward_ref(), None, "the zero fwd word");
    }

    #[test]
    fn dangling_get_panics() {
        let b = block(3, 0, 16);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.get(5)));
        assert!(res.is_err());
    }

    #[test]
    fn resolve_yields_the_view_or_the_forwardee() {
        let b = block(0, 0, 32);
        let r = alloc_once(
            &b,
            ObjKind::Tuple,
            &[Word::UNIT, Word::encode(Value::Int(4))],
        )
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
        let b = block(3, 0, 16);
        alloc_once(&b, ObjKind::Ref, &[Word::UNIT]).unwrap();
        let _ = b.resolve(1);
    }

    #[test]
    fn mark_bitmap_and_lines() {
        let b = block(0, 0, 64);
        let r = alloc_once(&b, ObjKind::Tuple, &[Word::UNIT]).unwrap();
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
    fn the_four_bitmaps_share_one_allocation_without_crosstalk() {
        let b = block(0, 0, 200);
        let mut region = Region::adopt(Arc::clone(&b));
        let offs: Vec<u32> = (0..60)
            .map(|_| region.alloc(ObjKind::Ref, &[Word::UNIT]).unwrap().word())
            .collect();
        region.settle();
        assert_eq!(b.object_count(), 60);
        for &off in offs.iter().step_by(3) {
            b.try_set_mark(off, 3);
        }
        for &off in offs.iter().step_by(5) {
            b.set_down(off);
        }
        for &off in offs.iter().step_by(10) {
            b.set_cross(off);
        }
        assert_eq!(b.marked_count(), 20);
        assert_eq!(b.suspect_count(), 12);
        assert_eq!(b.unmarked_offsets().count(), 40);
        assert!(offs
            .iter()
            .all(|&off| b.is_slow(off) == (b.is_down(off) || b.is_cross(off))));
        assert_eq!(b.objects().map(|(off, _)| off).collect::<Vec<_>>(), offs);
        b.clear_all_marks();
        assert_eq!((b.marked_count(), b.suspect_count()), (0, 12));
    }

    #[test]
    fn down_cross_and_slow_bits() {
        let b = block(0, 0, 32);
        let r = alloc_once(&b, ObjKind::Ref, &[Word::UNIT]).unwrap();
        let off = r.word();
        assert!(!b.is_slow(off));
        b.set_slow(off); // pin path
        assert!(b.is_slow(off));
        b.clear_slow_after_unpin(off); // unpin, never suspected
        assert!(!b.is_slow(off));
        b.set_down(off);
        assert!(b.is_slow(off) && b.is_down(off));
        b.clear_slow_after_unpin(off); // unpin of a down source: stays slow
        assert!(b.is_slow(off), "down keeps the object slow through unpins");
        b.clear_down([off]); // its join
        assert!(!b.is_slow(off) && !b.is_down(off));
        b.set_cross(off);
        b.set_down(off);
        b.clear_down([off]);
        assert!(b.is_slow(off) && b.is_cross(off), "cross is for life");
    }

    #[test]
    fn a_join_clears_no_slow_bit_while_a_pin_is_counted() {
        let b = block(0, 0, 32);
        let x = alloc_once(&b, ObjKind::Ref, &[Word::UNIT]).unwrap().word();
        b.set_down(x);
        assert!(b.reserve_pin(), "a pin in flight on another object");
        b.clear_down([x]);
        assert!(!b.is_down(x) && b.is_slow(x), "down ends, slow stays");
        b.add_pinned(-1);
        b.set_down(x);
        b.clear_down([x]);
        assert!(!b.is_slow(x));
        assert!(b.reserve_pin(), "released: pins go on");
        assert_eq!(b.pinned_count(), 1);
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
    fn live_bytes_saturating_sub() {
        let b = block(0, 0, 32);
        alloc_once(&b, ObjKind::Tuple, &[Word::UNIT]).unwrap();
        let lb = b.live_bytes();
        b.sub_live_bytes(lb + 100);
        assert_eq!(b.live_bytes(), 0);
    }
}
