//! Zero-filled slices of atomics: a block's words and side metadata.
//!
//! A slice of at least [`MAP_BYTES`] is mapped straight from the OS and
//! unmapped when its block is dropped, so a dead large object's memory
//! leaves the process at once. Through the C allocator it would not: glibc
//! serves such a slice from its arena once an earlier one of that size was
//! freed (its mmap threshold rises to the largest chunk freed), and it
//! gives arena memory back only when the free that reaches the top of the
//! arena is itself large. Which free that is depends on the order the
//! workers drop their last block references, so a process that builds
//! runtimes one after another would keep a run-to-run-varying share of
//! earlier heaps resident (`spmv` at two workers, 2-vCPU Linux host:
//! peaks of 84 or 113 MB; 83 MB every time with mapped blocks).
//! Smaller slices (every size-class block's) come from the Rust allocator.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicU8};

/// Slices of at least this many bytes are mapped from the OS.
pub(crate) const MAP_BYTES: usize = 128 << 10;

/// An atomic integer: all-zero bytes are its zero value.
pub(crate) trait Atomic: Sized {
    fn zero() -> Self;
}

impl Atomic for AtomicU64 {
    fn zero() -> Self {
        AtomicU64::new(0)
    }
}

impl Atomic for AtomicU8 {
    fn zero() -> Self {
        AtomicU8::new(0)
    }
}

/// `len` zero atomics, from the OS or from the Rust allocator by size.
#[derive(Debug)]
pub(crate) enum Zeroed<T: Atomic> {
    Boxed(Box<[T]>),
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    Mapped(os::Mapping<T>),
}

impl<T: Atomic> Zeroed<T> {
    pub(crate) fn new(len: usize) -> Zeroed<T> {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        if len * std::mem::size_of::<T>() >= MAP_BYTES {
            if let Some(m) = os::Mapping::new(len) {
                return Zeroed::Mapped(m);
            }
        }
        Zeroed::Boxed((0..len).map(|_| T::zero()).collect())
    }
}

impl<T: Atomic> Deref for Zeroed<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Zeroed::Boxed(b) => b,
            #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
            Zeroed::Mapped(m) => m.as_slice(),
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod os {
    use super::Atomic;

    const PROT_READ_WRITE: i32 = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// A private anonymous mapping of `len` `T`s, unmapped on drop.
    #[derive(Debug)]
    pub(crate) struct Mapping<T> {
        ptr: *mut T,
        len: usize,
    }

    // SAFETY: the mapping is owned by this value alone and only ever
    // reached through `&[T]`, so it is as thread-safe as `[T]` is.
    unsafe impl<T: Sync> Send for Mapping<T> {}
    unsafe impl<T: Sync> Sync for Mapping<T> {}

    impl<T: Atomic> Mapping<T> {
        /// `None` if the OS refuses the mapping.
        pub(crate) fn new(len: usize) -> Option<Mapping<T>> {
            let bytes = len * std::mem::size_of::<T>();
            // SAFETY: a fresh anonymous mapping aliases nothing.
            let p = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    bytes,
                    PROT_READ_WRITE,
                    MAP_PRIVATE_ANONYMOUS,
                    -1,
                    0,
                )
            };
            (p as isize != -1).then(|| Mapping { ptr: p.cast(), len })
        }

        #[inline]
        pub(crate) fn as_slice(&self) -> &[T] {
            // SAFETY: the mapping is page-aligned, `len` `T`s long, lives
            // until `drop`, and its pages read as zero until written — a
            // valid `T` (`Atomic`). All writes go through the atomics.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl<T> Drop for Mapping<T> {
        fn drop(&mut self) {
            // SAFETY: `ptr` and the byte length are those `mmap` returned
            // and took, and no borrow of the slice outlives `self`.
            unsafe {
                munmap(self.ptr.cast(), self.len * std::mem::size_of::<T>());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use super::*;

    #[test]
    fn small_and_large_slices_start_zero_and_keep_writes() {
        for len in [1, 64, MAP_BYTES / 8, 3 * MAP_BYTES / 8 + 5] {
            let words: Zeroed<AtomicU64> = Zeroed::new(len);
            assert_eq!(words.len(), len);
            assert!(words.iter().all(|w| w.load(Ordering::Relaxed) == 0));
            words[len - 1].store(7, Ordering::Relaxed);
            assert_eq!(words[len - 1].load(Ordering::Relaxed), 7);
        }
        let marks: Zeroed<AtomicU8> = Zeroed::new(MAP_BYTES + 1);
        assert_eq!(marks.len(), MAP_BYTES + 1);
        assert_eq!(marks[MAP_BYTES].load(Ordering::Relaxed), 0);
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn slices_from_the_threshold_up_are_mapped() {
        assert!(matches!(
            Zeroed::<AtomicU64>::new(MAP_BYTES / 8 - 1),
            Zeroed::Boxed(_)
        ));
        assert!(matches!(
            Zeroed::<AtomicU64>::new(MAP_BYTES / 8),
            Zeroed::Mapped(_)
        ));
    }
}
