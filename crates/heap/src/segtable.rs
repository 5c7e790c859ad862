//! A segmented array indexed by `u32`: lock-free to read, grows without
//! moving, covers the whole id range.
//!
//! Both id spaces of the store are dense and never reused (block ids,
//! heap ids), so both side tables — the registry's block-owner index and
//! the heap table — are one of these. Segments are geometric: the first holds `1 << FIRST_SHIFT`
//! slots and segment `k >= 1` holds ids `[1 << (FIRST_SHIFT + k - 1),
//! 1 << (FIRST_SHIFT + k))`, so a 21-entry spine stored inline reaches
//! `u32::MAX` and a lookup is two dependent loads (spine entry, slot).
//! A segment is filled with `T::default()` on first touch, which costs
//! as much as all the segments before it — the growth profile of a `Vec`
//! without its copy, and without readers ever waiting. The only
//! synchronization is the `OnceLock` of each spine entry.
//!
//! This file holds the only copy of the index arithmetic.

use std::sync::OnceLock;

const FIRST_SHIFT: u32 = 12;
const SEGMENTS: usize = (u32::BITS - FIRST_SHIFT) as usize + 1;

pub(crate) struct SegTable<T> {
    spine: [OnceLock<Box<[T]>>; SEGMENTS],
}

/// `(segment, its length, offset within it)` of index `i`.
#[inline]
fn locate(i: u32) -> (usize, usize, usize) {
    let seg = (u32::BITS - (i >> FIRST_SHIFT).leading_zeros()) as usize;
    let len = 1usize << (FIRST_SHIFT as usize + seg.saturating_sub(1));
    (seg, len, i as usize & (len - 1))
}

impl<T> Default for SegTable<T> {
    fn default() -> Self {
        SegTable {
            spine: std::array::from_fn(|_| OnceLock::new()),
        }
    }
}

impl<T: Default> SegTable<T> {
    /// The slot for `i`, or `None` if its segment was never touched.
    #[inline]
    pub(crate) fn get(&self, i: u32) -> Option<&T> {
        let (seg, _, off) = locate(i);
        self.spine[seg].get().map(|s| &s[off])
    }

    /// The slot for `i`, materializing its segment first if need be.
    pub(crate) fn get_or_grow(&self, i: u32) -> &T {
        let (seg, len, off) = locate(i);
        &self.spine[seg].get_or_init(|| (0..len).map(|_| T::default()).collect())[off]
    }
}

impl<T> std::fmt::Debug for SegTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let touched = self.spine.iter().filter(|s| s.get().is_some()).count();
        f.debug_struct("SegTable")
            .field("segments_touched", &touched)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn segments_tile_the_id_range() {
        // Every boundary: the last slot of a segment and the first of the
        // next are adjacent ids, offsets stay inside the segment, and the
        // spine reaches u32::MAX.
        assert_eq!(locate(0), (0, 1 << FIRST_SHIFT, 0));
        let mut first = 1u32 << FIRST_SHIFT;
        for seg in 1..SEGMENTS {
            let len = first as usize;
            assert_eq!(locate(first - 1).0, seg - 1);
            assert_eq!(locate(first), (seg, len, 0));
            let last = first.wrapping_add(first - 1);
            assert_eq!(locate(last), (seg, len, len - 1));
            first = first.wrapping_mul(2);
        }
        assert_eq!(locate(u32::MAX).0, SEGMENTS - 1);
    }

    #[test]
    fn untouched_segments_read_as_absent() {
        let t: SegTable<AtomicU32> = SegTable::default();
        assert!(t.get(5).is_none());
        t.get_or_grow(5).store(9, Ordering::Relaxed);
        assert_eq!(t.get(5).unwrap().load(Ordering::Relaxed), 9);
        assert_eq!(t.get(6).unwrap().load(Ordering::Relaxed), 0);
        assert!(t.get(1 << FIRST_SHIFT).is_none(), "next segment untouched");
    }
}
