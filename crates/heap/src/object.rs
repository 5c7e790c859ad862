//! Object views: a typed window onto an object laid out inline in a
//! block's words.
//!
//! An object is `[header][fwd][field 0]…[field n-1]` starting at some
//! word offset of a [`Block`]; an [`Object`] is a *copyable view*
//! `(block, offset)` — constructing one costs a single header load (to
//! cache the field count), and every accessor compiles down to atomic
//! operations on the block's word array. All field accesses are
//! individual atomic loads/stores, which makes the layout safe to share
//! between mutator threads and the collectors. Higher-level ordering
//! (who may read what, and when) is enforced by the hierarchical heap
//! discipline, not by this module.
//!
//! The concurrent mark bit and the barrier's `down`, `cross` and `slow`
//! bits live in the block's side metadata, not the header; the view
//! routes `try_mark`/`is_marked`/`mark_down`/`mark_cross`/`is_slow`
//! there. The pin/forward/dead/entangled-space state machine stays a
//! single header word under CAS — see `crate::header` for why that split
//! is where it is.

use std::sync::atomic::Ordering;

use crate::block::Block;
use crate::header::{Header, ObjKind, NO_PIN_LEVEL};
use crate::value::{ObjRef, Value, Word};

/// Per-object overhead in bytes (header word + forwarding word), used
/// for residency accounting.
pub const OBJECT_OVERHEAD_BYTES: usize = 16;

/// Outcome of a pin attempt, reported so the caller can update the
/// entangled-object index and cost meters exactly once.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PinOutcome {
    /// The object was not pinned before; the caller must register it.
    NewlyPinned,
    /// Already pinned; the level may have been lowered.
    AlreadyPinned {
        /// True if this attempt lowered the pin level.
        lowered: bool,
    },
    /// The object has been forwarded; pin the new copy instead.
    Forwarded(ObjRef),
    /// The object was already dead-marked: its owner's collection found
    /// it unreachable before this pin landed. Nothing was pinned; a
    /// barrier that loaded the pointer from a mutable field must re-load
    /// the field (the owner overwrote it before collecting).
    Dead,
}

/// A view of one inline heap object: the block it lives in, its header's
/// word offset, and the cached field count (immutable once published).
///
/// Objects never move in Rust-memory terms; "moving" an object means
/// copying its payload into a fresh reservation and installing a
/// forwarding reference in the old location's `fwd` word.
#[derive(Clone, Copy)]
pub struct Object<'a> {
    block: &'a Block,
    off: u32,
    len: u32,
}

impl std::fmt::Debug for Object<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Object")
            .field("block", &self.block.id())
            .field("off", &self.off)
            .field("header", &self.header())
            .finish()
    }
}

impl<'a> Object<'a> {
    /// Builds a view of the published object at `off` (crate-internal;
    /// go through [`Block::get`]/[`Block::try_get`]).
    #[inline]
    pub(crate) fn view(block: &'a Block, off: u32) -> Object<'a> {
        let len = Header::from_bits(block.word(off).load(Ordering::Acquire)).len();
        Object::with_len(block, off, len)
    }

    /// Builds a view from a field count the caller already decoded from
    /// the object's header (crate-internal; go through [`Block::resolve`]).
    #[inline]
    pub(crate) fn with_len(block: &'a Block, off: u32, len: usize) -> Object<'a> {
        Object {
            block,
            off,
            len: len as u32,
        }
    }

    /// The block this object lives in.
    #[inline]
    pub fn block(&self) -> &'a Block {
        self.block
    }

    /// The object's header word offset within its block.
    #[inline]
    pub fn offset(&self) -> u32 {
        self.off
    }

    /// Total inline words (header + fwd + fields).
    #[inline]
    pub fn nwords(&self) -> usize {
        crate::block::OBJECT_HEADER_WORDS + self.len as usize
    }

    /// A snapshot of the current header.
    #[inline]
    pub fn header(&self) -> Header {
        Header::from_bits(self.block.word(self.off).load(Ordering::Acquire))
    }

    /// The object's kind (immutable after allocation).
    #[inline]
    pub fn kind(&self) -> ObjKind {
        self.header().kind()
    }

    /// Number of fields.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the object has no fields.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in bytes, for residency accounting.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        OBJECT_OVERHEAD_BYTES + 8 * self.len as usize
    }

    #[inline]
    fn field_atom(&self, i: usize) -> &'a std::sync::atomic::AtomicU64 {
        if i >= self.len as usize {
            field_out_of_bounds(i, self.len);
        }
        self.block.word(self.off + 2 + i as u32)
    }

    /// Loads field `i` as a raw word.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn field_word(&self, i: usize) -> Word {
        Word::from_bits(self.field_atom(i).load(Ordering::Acquire))
    }

    /// Loads field `i` as a decoded value.
    #[inline]
    pub fn field(&self, i: usize) -> Value {
        self.field_word(i).decode()
    }

    /// Stores a raw word into field `i`.
    #[inline]
    pub fn set_field_word(&self, i: usize, w: Word) {
        self.field_atom(i).store(w.bits(), Ordering::Release);
    }

    /// Stores a value into field `i`.
    #[inline]
    pub fn set_field(&self, i: usize, v: Value) {
        self.set_field_word(i, Word::encode(v));
    }

    /// Atomically replaces field `i`, returning the previous value.
    #[inline]
    pub fn swap_field(&self, i: usize, v: Value) -> Value {
        let old = self
            .field_atom(i)
            .swap(Word::encode(v).bits(), Ordering::AcqRel);
        Word::from_bits(old).decode()
    }

    /// Atomically compares-and-swaps field `i` from `expected` to `new`.
    /// Returns `Ok(())` on success and the actual current value on failure.
    #[inline]
    pub fn cas_field(&self, i: usize, expected: Value, new: Value) -> Result<(), Value> {
        match self.field_atom(i).compare_exchange(
            Word::encode(expected).bits(),
            Word::encode(new).bits(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(()),
            Err(actual) => Err(Word::from_bits(actual).decode()),
        }
    }

    /// Atomically adds `delta` to an integer field, returning the new value.
    ///
    /// # Panics
    ///
    /// Panics if the field does not currently hold an integer.
    pub fn fetch_add_int(&self, i: usize, delta: i64) -> i64 {
        loop {
            let cur = self.field(i);
            let n = match cur {
                Value::Int(n) => n + delta,
                other => panic!("fetch_add on non-int field holding {other:?}"),
            };
            if self.cas_field(i, cur, Value::Int(n)).is_ok() {
                return n;
            }
        }
    }

    /// Loads field `i` as raw bits (for [`ObjKind::RawArr`] payloads,
    /// which are opaque to the collectors).
    #[inline]
    pub fn load_raw(&self, i: usize) -> u64 {
        self.field_atom(i).load(Ordering::Acquire)
    }

    /// Stores raw bits into field `i`.
    #[inline]
    pub fn store_raw(&self, i: usize, bits: u64) {
        self.field_atom(i).store(bits, Ordering::Release);
    }

    /// Atomically compares-and-swaps raw bits in field `i`. Returns
    /// `Ok(())` on success and the observed bits on failure.
    #[inline]
    pub fn cas_raw(&self, i: usize, expected: u64, new: u64) -> Result<(), u64> {
        self.field_atom(i)
            .compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
    }

    /// Atomically adds to a raw 64-bit field, returning the previous bits.
    #[inline]
    pub fn fetch_add_raw(&self, i: usize, delta: u64) -> u64 {
        self.field_atom(i).fetch_add(delta, Ordering::AcqRel)
    }

    /// The fields as one slice of atomic words: what a caller that
    /// resolved the object once indexes for many accesses, with the same
    /// orderings as [`Object::load_raw`]/[`Object::store_raw`]. Valid for
    /// as long as the object stays where it is: the caller answers for
    /// that, as for every view.
    #[inline]
    pub fn field_slice(&self) -> &'a [std::sync::atomic::AtomicU64] {
        self.block.words_at(self.off + 2, self.len as usize)
    }

    /// Iterates over the current field words (a racy snapshot, one atomic
    /// load per field). Collectors use this for tracing.
    pub fn field_words(&self) -> impl Iterator<Item = Word> + 'a {
        let block = self.block;
        let off = self.off;
        (0..self.len).map(move |i| Word::from_bits(block.word(off + 2 + i).load(Ordering::Acquire)))
    }

    // ---- pin protocol ---------------------------------------------------

    /// Attempts to pin the object at `level` (lowering an existing level
    /// if already pinned). If the object was concurrently forwarded, the
    /// caller must redirect the pin to the new location. A dead header is
    /// refused: the pin CAS and [`Object::try_kill`] serialize on the one
    /// header word, so a pin either lands first (and the kill backs off)
    /// or reports [`PinOutcome::Dead`] — never a pinned corpse that the
    /// join's unpin walk would skip. A new pin is counted on the block
    /// before the header shows it ([`Block::reserve_pin`]), so it and the
    /// block's retirement exclude each other the same way: an unforwarded
    /// object in a retired block is garbage, and reads as dead.
    ///
    /// `index` runs at most once, after the block counted a new pin and
    /// before the CAS that shows it: whoever sees the pin — a second
    /// reader that finds it already pinned and passes the object on —
    /// sees it indexed too ([`crate::Store::try_pin`]). If the CAS then
    /// loses, the entry names an object pinned by someone else, moved or
    /// dead, which the index's readers skip.
    pub fn try_pin(&self, level: u16, index: impl FnOnce()) -> PinOutcome {
        let mut index = Some(index);
        debug_assert!(level != NO_PIN_LEVEL, "NO_PIN_LEVEL is a sentinel");
        // Enter the barrier's slow set *before* the pin becomes visible:
        // a reader classifying this object after the CAS below must take
        // the slow tier. A stray slow bit (forwarded object, lost race)
        // only costs a spurious slow-tier trip.
        self.block.set_slow(self.off);
        mpl_fail::hit_hard("heap/pin_slow");
        let mut reserved = false;
        let outcome = loop {
            let cur = self.header();
            if cur.is_forwarded() {
                break PinOutcome::Forwarded(
                    self.forward_ref().expect("forwarded object lacks fwd ref"),
                );
            }
            if cur.is_dead() {
                break PinOutcome::Dead;
            }
            let newly = !cur.is_pinned();
            let lowered = cur.is_pinned() && level < cur.pin_level();
            if !newly && !lowered {
                break PinOutcome::AlreadyPinned { lowered: false };
            }
            if newly && !reserved {
                if !self.block.reserve_pin() {
                    return PinOutcome::Dead;
                }
                // Again, now that the pin is counted: a join may have
                // cleared the bit since the first set, and its release
                // of the block's pins orders that clear before this set
                // (see `crate::block`'s module docs).
                self.block.set_slow(self.off);
                reserved = true;
                if let Some(index) = index.take() {
                    index();
                }
                continue;
            }
            let next = cur.with_pin(level).with_entangled_space();
            if self.cas_header(cur, next) {
                break if newly {
                    PinOutcome::NewlyPinned
                } else {
                    PinOutcome::AlreadyPinned { lowered }
                };
            }
        };
        if reserved && outcome != PinOutcome::NewlyPinned {
            self.block.add_pinned(-1);
        }
        outcome
    }

    /// Clears the pin if the current pin level is `>= join_depth` (the
    /// unpin-at-join rule). Returns true if this call unpinned the object.
    pub fn try_unpin_at_join(&self, join_depth: u16) -> bool {
        loop {
            let cur = self.header();
            if !cur.is_pinned() || cur.pin_level() < join_depth {
                return false;
            }
            let next = cur.without_pin().without_entangled_space();
            if self.cas_header(cur, next) {
                // Leave the slow set unless `down` or `cross` keeps the
                // object a slow-path candidate.
                self.block.clear_slow_after_unpin(self.off);
                return true;
            }
        }
    }

    // ---- collector interface --------------------------------------------

    /// Claims the object for evacuation: atomically sets the forwarded
    /// bit, with the destination written to the `fwd` word first. Fails
    /// (returning the observed header) if the object was concurrently
    /// pinned or already forwarded.
    pub fn try_forward(&self, to: ObjRef) -> Result<(), Header> {
        loop {
            let cur = self.header();
            if cur.is_forwarded() || cur.is_pinned() {
                return Err(cur);
            }
            self.block
                .word(self.off + 1)
                .store(Word::encode(Value::Obj(to)).bits(), Ordering::Release);
            if self.cas_header(cur, cur.with_forwarded()) {
                self.block.note_forwarded();
                return Ok(());
            }
        }
    }

    /// Rewrites the forwarding destination (forwarding-chain path
    /// compression: point an old copy directly at the final location).
    ///
    /// # Panics
    ///
    /// Panics if the object is not forwarded.
    pub fn compress_forward(&self, to: ObjRef) {
        assert!(
            self.header().is_forwarded(),
            "compress_forward on unforwarded object"
        );
        self.block
            .word(self.off + 1)
            .store(Word::encode(Value::Obj(to)).bits(), Ordering::Release);
    }

    /// The forwarding destination, if the object has been evacuated.
    #[inline]
    pub fn forward_ref(&self) -> Option<ObjRef> {
        if self.header().is_forwarded() {
            Word::from_bits(self.block.word(self.off + 1).load(Ordering::Acquire))
                .decode()
                .as_obj()
        } else {
            None
        }
    }

    /// Sets the concurrent-collector mark bit (side metadata) and paints
    /// the object's lines; returns true if this call marked it (false if
    /// already marked). One `fetch_or` on the bitmap word — racing
    /// tracers are benign and exactly one wins the mark, which is what
    /// lets CGC trace packets share objects without coordination.
    #[inline]
    pub fn try_mark(&self) -> bool {
        self.block.try_set_mark(self.off, self.nwords())
    }

    /// Whether the concurrent collector marked this object this cycle.
    #[inline]
    pub fn is_marked(&self) -> bool {
        self.block.is_marked(self.off)
    }

    /// Clears the mark bit (between concurrent-collection cycles).
    #[inline]
    pub fn clear_mark(&self) {
        self.block.clear_mark(self.off);
    }

    /// Marks the object dead (swept). Idempotent.
    pub fn set_dead(&self) {
        loop {
            let cur = self.header();
            if cur.is_dead() {
                return;
            }
            if self.cas_header(cur, cur.with_dead()) {
                return;
            }
        }
    }

    /// Atomically dead-marks the object **iff** it is still plain local
    /// garbage: not pinned, not in an entangled space, not forwarded, not
    /// already dead. The eligibility conditions are re-verified on every
    /// CAS attempt, so a pin (or shield tag) landing between a caller's
    /// header inspection and the kill can never be lost. Returns the
    /// header that was killed, or `None` if the object was no longer
    /// eligible.
    pub fn try_kill(&self) -> Option<Header> {
        loop {
            let cur = self.header();
            if cur.is_dead() || cur.is_pinned() || cur.is_forwarded() || cur.in_entangled_space() {
                return None;
            }
            if self.cas_header(cur, cur.with_dead()) {
                return Some(cur);
            }
        }
    }

    /// Atomically dead-marks the object **iff** it is sweepable by the
    /// entanglement collector: resident in an entangled space, unmarked,
    /// not forwarded, not already dead (pinned is fine — an unmarked
    /// pinned object is garbage whose pin owner joined away). Returns the
    /// header that was killed so the caller can settle pin accounting
    /// from the atomic pre-kill state, or `None` if the object must be
    /// retained.
    ///
    /// The mark check reads the side bitmap *outside* the header CAS.
    /// That is sound because sweeps only run after the mark-termination
    /// handshake: the marking flag is down, no tracer is live, and no new
    /// cycle can start while this one holds the cycle lock — the mark bit
    /// observed here is stable for the duration of the sweep.
    pub fn try_kill_swept(&self) -> Option<Header> {
        if self.is_marked() {
            return None;
        }
        loop {
            let cur = self.header();
            if cur.is_dead() || cur.is_forwarded() || !cur.in_entangled_space() {
                return None;
            }
            if self.cas_header(cur, cur.with_dead()) {
                return Some(cur);
            }
        }
    }

    /// Marks the object as the source of a down-pointer, until the join
    /// that makes the pointer internal clears it (see `crate::block`).
    #[inline]
    pub fn mark_down(&self) {
        self.block.set_down(self.off);
    }

    /// Marks the object as holding a pointer into a heap off its own
    /// path, for life; the local collector copies the bit.
    #[inline]
    pub fn mark_cross(&self) {
        self.block.set_cross(self.off);
    }

    /// Whether the object ever received a pointer into a heap off its
    /// own path.
    #[inline]
    pub fn is_cross(&self) -> bool {
        self.block.is_cross(self.off)
    }

    /// The barrier fast tier's one-load classification: true if reads of
    /// this object must take the slow path (down, cross or possibly
    /// pinned).
    #[inline]
    pub fn is_slow(&self) -> bool {
        self.block.is_slow(self.off)
    }

    /// Flags the object as resident in its heap's entangled (non-moving)
    /// space without pinning it (used when the local collector transfers
    /// the closure of a pinned object).
    pub fn set_entangled_space(&self) {
        loop {
            let cur = self.header();
            if cur.in_entangled_space() {
                return;
            }
            if self.cas_header(cur, cur.with_entangled_space()) {
                return;
            }
        }
    }

    fn cas_header(&self, cur: Header, next: Header) -> bool {
        self.block
            .word(self.off)
            .compare_exchange(cur.bits(), next.bits(), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// The field accessors' bounds-check failure, out of line (and taking
/// its operands by value) so the check inlines as one compare.
#[cold]
#[inline(never)]
fn field_out_of_bounds(i: usize, len: u32) -> ! {
    panic!("field index {i} out of bounds (len {len})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use std::sync::Arc;

    fn block() -> Arc<Block> {
        Arc::new(Block::new(0, 0, 256, 0))
    }

    fn alloc<'a>(b: &'a Arc<Block>, kind: ObjKind, vals: &[Value]) -> Object<'a> {
        let words: Vec<Word> = vals.iter().map(|&v| Word::encode(v)).collect();
        let r = crate::block::alloc_once(b, kind, &words).expect("block full");
        b.get(r.word())
    }

    #[test]
    fn fields_roundtrip() {
        let b = block();
        let o = alloc(
            &b,
            ObjKind::Tuple,
            &[Value::Int(1), Value::Bool(true), Value::Unit],
        );
        assert_eq!(o.len(), 3);
        assert_eq!(o.field(0), Value::Int(1));
        assert_eq!(o.field(1), Value::Bool(true));
        assert_eq!(o.field(2), Value::Unit);
        o.set_field(2, Value::Int(9));
        assert_eq!(o.field(2), Value::Int(9));
    }

    #[test]
    fn swap_and_cas() {
        let b = block();
        let o = alloc(&b, ObjKind::Ref, &[Value::Int(1)]);
        assert_eq!(o.swap_field(0, Value::Int(2)), Value::Int(1));
        assert_eq!(o.cas_field(0, Value::Int(2), Value::Int(3)), Ok(()));
        assert_eq!(
            o.cas_field(0, Value::Int(2), Value::Int(4)),
            Err(Value::Int(3))
        );
        assert_eq!(o.fetch_add_int(0, 10), 13);
    }

    #[test]
    fn pin_is_idempotent_and_lowers() {
        let b = block();
        let o = alloc(&b, ObjKind::Ref, &[Value::Unit]);
        assert_eq!(o.try_pin(5, || {}), PinOutcome::NewlyPinned);
        assert!(o.header().is_pinned());
        assert!(o.header().in_entangled_space());
        assert!(o.is_slow(), "a pinned object is in the slow set");
        assert_eq!(o.header().pin_level(), 5);
        assert_eq!(
            o.try_pin(7, || {}),
            PinOutcome::AlreadyPinned { lowered: false }
        );
        assert_eq!(o.header().pin_level(), 5);
        assert_eq!(
            o.try_pin(2, || {}),
            PinOutcome::AlreadyPinned { lowered: true }
        );
        assert_eq!(o.header().pin_level(), 2);
    }

    #[test]
    fn unpin_at_join_respects_level() {
        let b = block();
        let o = alloc(&b, ObjKind::Ref, &[Value::Unit]);
        o.try_pin(3, || {});
        assert!(!o.try_unpin_at_join(4), "level 3 < join depth 4: keep pin");
        assert!(o.try_unpin_at_join(3), "level 3 >= join depth 3: unpin");
        assert!(!o.header().is_pinned());
        assert!(!o.is_slow(), "unpinned and never suspected: fast again");
        assert!(!o.try_unpin_at_join(0), "already unpinned");
    }

    #[test]
    fn forwarding_excludes_pinned() {
        let b = block();
        let o = alloc(&b, ObjKind::Tuple, &[Value::Unit]);
        o.try_pin(1, || {});
        let err = o.try_forward(ObjRef::new(1, 1)).unwrap_err();
        assert!(err.is_pinned());
        assert_eq!(o.forward_ref(), None);
        assert_eq!(b.forwarded_count(), 0);
    }

    #[test]
    fn forwarding_roundtrip_and_pin_redirect() {
        let b = block();
        let o = alloc(&b, ObjKind::Tuple, &[Value::Unit]);
        let dst = ObjRef::new(2, 7);
        o.try_forward(dst).unwrap();
        assert_eq!(o.forward_ref(), Some(dst));
        assert_eq!(b.forwarded_count(), 1);
        assert!(o.try_forward(ObjRef::new(3, 3)).is_err());
        assert_eq!(o.try_pin(0, || {}), PinOutcome::Forwarded(dst));
    }

    #[test]
    fn pin_refuses_a_dead_header() {
        let b = block();
        let o = alloc(&b, ObjKind::Tuple, &[Value::Unit]);
        assert!(o.try_kill().is_some());
        assert_eq!(o.try_pin(1, || {}), PinOutcome::Dead);
        assert!(!o.header().is_pinned(), "no pinned corpse");
    }

    #[test]
    fn mark_cycle() {
        let b = block();
        let o = alloc(&b, ObjKind::Tuple, &[]);
        assert!(o.try_mark());
        assert!(!o.try_mark());
        o.clear_mark();
        assert!(o.try_mark());
    }

    #[test]
    fn size_accounting() {
        let b = block();
        let o = alloc(&b, ObjKind::MutArr, &[Value::Unit; 4]);
        assert_eq!(o.size_bytes(), OBJECT_OVERHEAD_BYTES + 32);
    }

    #[test]
    fn dead_flag_sticks() {
        let b = block();
        let o = alloc(&b, ObjKind::Tuple, &[]);
        o.set_dead();
        o.set_dead();
        assert!(o.header().is_dead());
    }

    #[test]
    fn down_and_cross_are_side_metadata() {
        let b = block();
        let o = alloc(&b, ObjKind::Ref, &[Value::Unit]);
        assert!(!o.is_slow() && !o.is_cross());
        o.mark_down();
        assert!(o.is_slow());
        o.mark_cross();
        assert!(o.is_cross());
        assert!(
            !o.header().is_pinned(),
            "suspect state lives outside the header"
        );
    }

    #[test]
    fn kill_swept_skips_marked() {
        let b = block();
        let o = alloc(&b, ObjKind::Tuple, &[]);
        o.set_entangled_space();
        o.try_mark();
        assert!(o.try_kill_swept().is_none(), "marked: retained");
        o.clear_mark();
        assert!(o.try_kill_swept().is_some());
        assert!(o.header().is_dead());
    }

    #[test]
    fn field_words_iterates_snapshot() {
        let b = block();
        let o = alloc(
            &b,
            ObjKind::Tuple,
            &[Value::Int(1), Value::Obj(ObjRef::new(0, 0))],
        );
        let ws: Vec<_> = o.field_words().collect();
        assert_eq!(ws.len(), 2);
        assert!(!ws[0].is_pointer());
        assert!(ws[1].is_pointer());
    }
}
