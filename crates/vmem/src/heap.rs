//! Portable heap-backed region: the whole reservation stays resident, but the
//! commit-state machine is enforced exactly like the mmap backend, and
//! decommitted pages are poisoned in every build.
//!
//! A reader may race both fills, so they are `Release` word stores in address
//! order: a reader that loads one filled word and then fences `Acquire` sees
//! the lower words of the fill, and what the filler did before it.

use crate::error::{CommitFault, RegionError};
use crate::PAGE_SIZE;
use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

/// Byte written over decommitted pages.
pub(crate) const POISON: u8 = 0xDE;

pub(crate) struct HeapBacking {
    ptr: *mut u8,
    layout: Layout,
}

// SAFETY: the backing is a plain allocation; synchronization of the bytes is
// the responsibility of the callers (producers write only to exclusively
// allocated ranges).
unsafe impl Send for HeapBacking {}
unsafe impl Sync for HeapBacking {}

impl HeapBacking {
    pub(crate) fn reserve(max_bytes: usize) -> Result<Self, RegionError> {
        let layout = Layout::from_size_align(max_bytes, PAGE_SIZE)
            .map_err(|_| RegionError::InvalidSize { requested: max_bytes })?;
        // SAFETY: layout has non-zero size (validated by the caller).
        let ptr = unsafe { alloc_zeroed(layout) };
        if ptr.is_null() {
            return Err(RegionError::ReserveFailed { errno: 0 });
        }
        Ok(Self { ptr, layout })
    }

    pub(crate) fn as_ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// Zero the range, mirroring the fresh-page guarantee of anonymous mmap.
    /// Infallible for a resident heap allocation, but typed like the mmap
    /// backend so [`Region`](crate::Region) treats both uniformly.
    pub(crate) fn commit(&self, offset: usize, len: usize) -> Result<(), CommitFault> {
        self.fill(offset, len, 0);
        Ok(())
    }

    pub(crate) fn decommit(&self, offset: usize, len: usize) -> Result<(), RegionError> {
        self.fill(offset, len, POISON);
        Ok(())
    }

    /// Stores `byte` over the page-aligned range, one `Release` word at a
    /// time in address order (see the module doc).
    fn fill(&self, offset: usize, len: usize, byte: u8) {
        // SAFETY: the caller validated the page-aligned range against the
        // reservation, so it is in bounds and 8-aligned; racing readers
        // access it only through word atomics.
        let words = unsafe {
            std::slice::from_raw_parts(self.ptr.add(offset) as *const AtomicU64, len / 8)
        };
        words.iter().for_each(|w| w.store(u64::from_ne_bytes([byte; 8]), Ordering::Release));
    }
}

impl Drop for HeapBacking {
    fn drop(&mut self) {
        // SAFETY: ptr/layout come from alloc_zeroed above.
        unsafe { dealloc(self.ptr, self.layout) };
    }
}

impl std::fmt::Debug for HeapBacking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapBacking").field("bytes", &self.layout.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_zeroes_previous_contents() {
        let b = HeapBacking::reserve(2 * PAGE_SIZE).unwrap();
        unsafe { b.as_ptr().write_bytes(7, PAGE_SIZE) };
        b.commit(0, PAGE_SIZE).unwrap();
        let first = unsafe { *b.as_ptr() };
        assert_eq!(first, 0);
    }

    #[test]
    fn decommit_poisons() {
        let b = HeapBacking::reserve(PAGE_SIZE).unwrap();
        b.commit(0, PAGE_SIZE).unwrap();
        b.decommit(0, PAGE_SIZE).unwrap();
        let first = unsafe { *b.as_ptr() };
        assert_eq!(first, POISON);
    }
}
