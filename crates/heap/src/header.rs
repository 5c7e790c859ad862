//! Object header words: kind, length, pin state, collector flags.
//!
//! Every object's first inline word is an atomic header manipulated with
//! compare-and-swap. The layout is:
//!
//! ```text
//! bits 0..3   object kind (ObjKind)
//! bit  3      PINNED      — entangled; local collector must not move it
//! bit  4      FORWARDED   — object was evacuated; the `fwd` word holds
//!             the new location
//! bit  6      DEAD        — swept by the concurrent collector
//! bit  7      ENTANGLED_SPACE — logically moved to the heap's entangled space
//! bits 8..24  pin level (u16); NO_PIN_LEVEL when unpinned
//! bits 32..56 field count (the object is self-describing inline)
//! ```
//!
//! The concurrent collector's **mark** bit and the barrier's suspect
//! state used to live here too; both moved to per-block side-metadata
//! bitmaps (see [`crate::block::Block`]) so the collectors can sweep and
//! the barrier can classify without touching object headers. The bits
//! that *remain* in the header are exactly the ones that must stay under
//! one CAS: `try_kill`'s single-word recheck of
//! `PINNED`/`FORWARDED`/`DEAD`/`ENTANGLED_SPACE` is what closes the
//! pin-vs-kill race, and splitting any of those into side metadata would
//! reopen it.
//!
//! The *pin level* is the depth of the least common ancestor heap of the
//! entangling tasks, exactly the "entanglement level" the paper uses to
//! decide when a join makes unpinning safe: a join at depth `d` may unpin
//! every object whose level is `>= d`, because after that join no two tasks
//! that share the object are concurrent anymore.

use std::fmt;

/// Object kinds, stored in the low three header bits.
///
/// Mutability is a property of the kind: only [`ObjKind::Ref`] and
/// [`ObjKind::MutArr`] hold mutable *pointer-bearing* fields and therefore
/// require read/write barriers. [`ObjKind::RawArr`] is mutable but its
/// payload words are opaque bits, never pointers, so it needs no barrier —
/// this mirrors MPL's treatment of unboxed arrays.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum ObjKind {
    /// Immutable record of values (also used for immutable arrays).
    Tuple = 0,
    /// A single mutable cell (`ref` in ML).
    Ref = 1,
    /// A mutable array of values.
    MutArr = 2,
    /// A mutable array of raw 64-bit words (no pointers; no barriers).
    RawArr = 3,
}

impl ObjKind {
    /// Decodes a kind from its header bits.
    ///
    /// # Panics
    ///
    /// Panics on an invalid bit pattern, which indicates heap corruption.
    #[inline]
    pub fn from_bits(bits: u8) -> ObjKind {
        match bits {
            0 => ObjKind::Tuple,
            1 => ObjKind::Ref,
            2 => ObjKind::MutArr,
            3 => ObjKind::RawArr,
            other => panic!("invalid object kind bits {other}"),
        }
    }

    /// True for kinds whose fields may change after initialization *and*
    /// may contain pointers — exactly the kinds whose reads are barriered.
    #[inline]
    pub fn is_mutable_boxed(self) -> bool {
        matches!(self, ObjKind::Ref | ObjKind::MutArr)
    }

    /// True for kinds whose payload words may be pointers and must be
    /// traced by the collectors.
    #[inline]
    pub fn is_traced(self) -> bool {
        !matches!(self, ObjKind::RawArr)
    }
}

impl fmt::Display for ObjKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjKind::Tuple => "tuple",
            ObjKind::Ref => "ref",
            ObjKind::MutArr => "mutarr",
            ObjKind::RawArr => "rawarr",
        };
        f.write_str(s)
    }
}

const KIND_MASK: u64 = 0b111;
const PINNED: u64 = 1 << 3;
const FORWARDED: u64 = 1 << 4;
const DEAD: u64 = 1 << 6;
const ENTANGLED_SPACE: u64 = 1 << 7;
const LEVEL_SHIFT: u32 = 8;
const LEVEL_MASK: u64 = 0xFFFF << LEVEL_SHIFT;
const LEN_SHIFT: u32 = 32;
const LEN_MASK: u64 = 0xFF_FFFF << LEN_SHIFT;

/// Largest representable field count (24 bits of header).
pub const MAX_OBJECT_FIELDS: usize = (LEN_MASK >> LEN_SHIFT) as usize;

/// Sentinel pin level meaning "not pinned".
pub const NO_PIN_LEVEL: u16 = u16::MAX;

/// A decoded snapshot of a header word.
///
/// Snapshots are plain values: read one with an atomic load, inspect or
/// transform it, and attempt to install the result with compare-and-swap.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Header(u64);

impl Header {
    /// A fresh header for a newly allocated object of `kind` with `len`
    /// fields.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_OBJECT_FIELDS`].
    #[inline]
    pub fn new(kind: ObjKind, len: usize) -> Header {
        assert!(len <= MAX_OBJECT_FIELDS, "object of {len} fields too large");
        Header((kind as u64) | ((NO_PIN_LEVEL as u64) << LEVEL_SHIFT) | ((len as u64) << LEN_SHIFT))
    }

    /// Reconstructs a snapshot from raw bits.
    #[inline]
    pub fn from_bits(bits: u64) -> Header {
        Header(bits)
    }

    /// Raw bits for atomic storage.
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// The object's kind.
    #[inline]
    pub fn kind(self) -> ObjKind {
        ObjKind::from_bits((self.0 & KIND_MASK) as u8)
    }

    /// The object's field count (inline layout is self-describing).
    #[inline]
    pub fn len(self) -> usize {
        ((self.0 & LEN_MASK) >> LEN_SHIFT) as usize
    }

    /// True if the object has no fields.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// True if the object is pinned (entangled).
    #[inline]
    pub fn is_pinned(self) -> bool {
        self.0 & PINNED != 0
    }

    /// True if the object has been evacuated; its `fwd` word is valid.
    #[inline]
    pub fn is_forwarded(self) -> bool {
        self.0 & FORWARDED != 0
    }

    /// True if the object has been swept and must no longer be accessed.
    #[inline]
    pub fn is_dead(self) -> bool {
        self.0 & DEAD != 0
    }

    /// True if the object lives in its heap's entangled (non-moving) space.
    #[inline]
    pub fn in_entangled_space(self) -> bool {
        self.0 & ENTANGLED_SPACE != 0
    }

    /// The pin level, or [`NO_PIN_LEVEL`] if unpinned.
    #[inline]
    pub fn pin_level(self) -> u16 {
        ((self.0 & LEVEL_MASK) >> LEVEL_SHIFT) as u16
    }

    /// Returns a copy with the pin bit set and the level lowered to
    /// `min(current, level)`.
    #[inline]
    pub fn with_pin(self, level: u16) -> Header {
        let lvl = self.pin_level().min(level) as u64;
        Header((self.0 & !LEVEL_MASK) | PINNED | (lvl << LEVEL_SHIFT))
    }

    /// Returns a copy with the pin bit cleared and the level reset.
    #[inline]
    pub fn without_pin(self) -> Header {
        Header((self.0 & !(PINNED | LEVEL_MASK)) | ((NO_PIN_LEVEL as u64) << LEVEL_SHIFT))
    }

    /// Returns a copy with the forwarded bit set.
    #[inline]
    pub fn with_forwarded(self) -> Header {
        Header(self.0 | FORWARDED)
    }

    /// Returns a copy with the dead bit set.
    #[inline]
    pub fn with_dead(self) -> Header {
        Header(self.0 | DEAD)
    }

    /// Returns a copy with the entangled-space bit set.
    #[inline]
    pub fn with_entangled_space(self) -> Header {
        Header(self.0 | ENTANGLED_SPACE)
    }

    /// Returns a copy with the entangled-space bit cleared.
    #[inline]
    pub fn without_entangled_space(self) -> Header {
        Header(self.0 & !ENTANGLED_SPACE)
    }
}

impl fmt::Debug for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Header")
            .field("kind", &self.kind())
            .field("len", &self.len())
            .field("pinned", &self.is_pinned())
            .field("level", &self.pin_level())
            .field("forwarded", &self.is_forwarded())
            .field("dead", &self.is_dead())
            .field("entangled_space", &self.in_entangled_space())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_header_defaults() {
        let h = Header::new(ObjKind::Ref, 3);
        assert_eq!(h.kind(), ObjKind::Ref);
        assert_eq!(h.len(), 3);
        assert!(!h.is_pinned());
        assert!(!h.is_forwarded());
        assert!(!h.is_dead());
        assert!(!h.in_entangled_space());
        assert_eq!(h.pin_level(), NO_PIN_LEVEL);
    }

    #[test]
    fn pin_lowers_level_monotonically() {
        let h = Header::new(ObjKind::Tuple, 0).with_pin(7);
        assert!(h.is_pinned());
        assert_eq!(h.pin_level(), 7);
        let h2 = h.with_pin(12);
        assert_eq!(h2.pin_level(), 7, "pin level must only decrease");
        let h3 = h2.with_pin(3);
        assert_eq!(h3.pin_level(), 3);
    }

    #[test]
    fn unpin_resets_level() {
        let h = Header::new(ObjKind::MutArr, 5).with_pin(2).without_pin();
        assert!(!h.is_pinned());
        assert_eq!(h.pin_level(), NO_PIN_LEVEL);
        assert_eq!(h.kind(), ObjKind::MutArr);
        assert_eq!(h.len(), 5, "length survives pin state changes");
    }

    #[test]
    fn flags_are_independent() {
        let h = Header::new(ObjKind::Tuple, 1)
            .with_pin(1)
            .with_forwarded()
            .with_entangled_space();
        assert!(h.is_pinned() && h.is_forwarded());
        assert!(h.in_entangled_space());
        assert_eq!(h.kind(), ObjKind::Tuple);
        assert_eq!(h.len(), 1);
        let h = h.without_entangled_space();
        assert!(!h.in_entangled_space());
        assert!(h.is_forwarded());
    }

    #[test]
    fn kind_predicates() {
        assert!(ObjKind::Ref.is_mutable_boxed());
        assert!(ObjKind::MutArr.is_mutable_boxed());
        assert!(!ObjKind::Tuple.is_mutable_boxed());
        assert!(!ObjKind::RawArr.is_mutable_boxed());
        assert!(ObjKind::Tuple.is_traced());
        assert!(!ObjKind::RawArr.is_traced());
    }

    #[test]
    fn bits_roundtrip() {
        let h = Header::new(ObjKind::RawArr, 9).with_pin(9).with_dead();
        assert_eq!(Header::from_bits(h.bits()), h);
    }

    #[test]
    fn max_len_roundtrips() {
        let h = Header::new(ObjKind::Tuple, MAX_OBJECT_FIELDS);
        assert_eq!(h.len(), MAX_OBJECT_FIELDS);
        assert_eq!(h.pin_level(), NO_PIN_LEVEL);
    }
}
