//! Word-atomic views over the data region.
//!
//! Producers and the speculative consumer may touch the same bytes
//! concurrently (the consumer validates and discards torn reads, §4.3). To
//! keep those races defined behaviour in Rust's memory model, *every* access
//! to the data region goes through relaxed `AtomicU64` operations: entries
//! are 8-byte aligned and padded, so whole-word transfers lose nothing.
//! Ordering between a producer's payload writes and a consumer's reads is
//! established externally by the release fetch-and-add on `Confirmed` and
//! the acquire load of it.

use crate::config::Resolved;
use btrace_vmem::{Backing, Region};
use std::sync::atomic::{AtomicU64, Ordering};

/// The reserved data region plus its geometry.
pub(crate) struct DataRegion {
    region: Region,
    block_bytes: usize,
}

impl DataRegion {
    pub(crate) fn new(cfg: &Resolved) -> Result<Self, btrace_vmem::RegionError> {
        let region = reserve_padded(cfg.max_bytes(), cfg.backing, cfg.fault_plan)?;
        Ok(Self { region, block_bytes: cfg.block_bytes })
    }

    pub(crate) fn region(&self) -> &Region {
        &self.region
    }

    /// Byte offset of data block `data_idx`.
    pub(crate) fn block_offset(&self, data_idx: u64) -> usize {
        data_idx as usize * self.block_bytes
    }

    /// Base pointer for a `words`-long word run at `byte_off`, with the
    /// bounds and alignment checks hoisted out of the copy loops: the per-
    /// word address arithmetic below is then a single pointer increment.
    #[inline]
    fn word_run(&self, byte_off: usize, words: usize) -> *const AtomicU64 {
        debug_assert_eq!(byte_off % 8, 0, "data region access must be word aligned");
        debug_assert!(byte_off + words * 8 <= self.region.len());
        // SAFETY: the whole run is in-bounds (asserted) and 8-aligned
        // (region base is page aligned); AtomicU64 tolerates the concurrent
        // mixed access this module exists to make defined.
        unsafe { self.region.as_ptr().add(byte_off) as *const AtomicU64 }
    }

    /// Stores `words` starting at `byte_off` (relaxed; callers publish via
    /// `Confirmed`).
    #[inline]
    pub(crate) fn store_words(&self, byte_off: usize, words: &[u64]) {
        let base = self.word_run(byte_off, words.len());
        for (i, &w) in words.iter().enumerate() {
            // SAFETY: `base + i` is inside the run checked by `word_run`.
            unsafe { (*base.add(i)).store(w, Ordering::Relaxed) };
        }
    }

    /// Loads `out.len()` words starting at `byte_off`.
    #[inline]
    pub(crate) fn load_words(&self, byte_off: usize, out: &mut [u64]) {
        let base = self.word_run(byte_off, out.len());
        for (i, slot) in out.iter_mut().enumerate() {
            // SAFETY: `base + i` is inside the run checked by `word_run`.
            *slot = unsafe { (*base.add(i)).load(Ordering::Relaxed) };
        }
    }

    /// Stores `bytes` at `byte_off` (8-aligned) as whole-word transfers,
    /// zero-padding the final partial word. The source slice need not be
    /// aligned — each word is assembled with an unaligned 8-byte read
    /// (`from_le_bytes` on an exact chunk compiles to one). The padding
    /// stays within the entry's allocated, alignment-rounded space.
    #[inline]
    pub(crate) fn store_bytes(&self, byte_off: usize, bytes: &[u8]) {
        let full = bytes.len() / 8;
        let rest = bytes.len() % 8;
        let base = self.word_run(byte_off, full + (rest != 0) as usize);
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            let w = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
            // SAFETY: `base + i` is inside the run checked by `word_run`.
            unsafe { (*base.add(i)).store(w, Ordering::Relaxed) };
        }
        if rest != 0 {
            let mut tail = [0u8; 8];
            tail[..rest].copy_from_slice(&bytes[full * 8..]);
            // SAFETY: the tail word was included in the `word_run` length.
            unsafe { (*base.add(full)).store(u64::from_le_bytes(tail), Ordering::Relaxed) };
        }
    }

    /// Loads `len` bytes from `byte_off` (8-aligned) into `out` as whole-
    /// word transfers; the final word's excess bytes are trimmed by the
    /// length, never read past the reserved capacity.
    pub(crate) fn load_bytes(&self, byte_off: usize, out: &mut Vec<u8>, len: usize) {
        out.clear();
        self.append_bytes(byte_off, out, len);
    }

    /// Like [`Self::load_bytes`], but appends to `out` instead of
    /// replacing its contents.
    pub(crate) fn append_bytes(&self, byte_off: usize, out: &mut Vec<u8>, len: usize) {
        if len == 0 {
            return;
        }
        let words = len.div_ceil(8);
        out.reserve(words * 8);
        let base = self.word_run(byte_off, words);
        let start = out.len();
        // SAFETY: `reserve` above made room for `words * 8` bytes past
        // `start`.
        let dst = unsafe { out.as_mut_ptr().add(start) };
        for i in 0..words {
            // SAFETY: `base + i` is inside the run checked by `word_run`;
            // the destination writes land within the `words * 8` bytes
            // reserved above (unaligned stores into spare capacity).
            unsafe {
                let w = (*base.add(i)).load(Ordering::Relaxed);
                (dst.add(i * 8) as *mut [u8; 8]).write_unaligned(w.to_le_bytes());
            }
        }
        // SAFETY: the `words * 8 >= len` bytes past `start` were just
        // initialized.
        unsafe { out.set_len(start + len) };
    }
}

impl std::fmt::Debug for DataRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataRegion")
            .field("region", &self.region)
            .field("block_bytes", &self.block_bytes)
            .finish()
    }
}

/// Reserves a region of at least `bytes`, rounded up to the page size,
/// wrapping the backing in a fault schedule when the config asks for one.
fn reserve_padded(
    bytes: usize,
    backing: Backing,
    fault_plan: Option<btrace_vmem::FaultPlan>,
) -> Result<Region, btrace_vmem::RegionError> {
    let page = btrace_vmem::PAGE_SIZE;
    let padded = bytes.div_ceil(page) * page;
    match fault_plan {
        Some(plan) => Region::reserve_with_faults(padded, backing, plan),
        None => Region::reserve_with(padded, backing),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn region() -> DataRegion {
        let cfg = Config::new(1)
            .active_blocks(2)
            .block_bytes(512)
            .buffer_bytes(2 * 512)
            .backing(Backing::Heap)
            .resolve()
            .unwrap();
        let r = DataRegion::new(&cfg).unwrap();
        r.region().commit(0, r.region().len()).unwrap();
        r
    }

    #[test]
    fn words_roundtrip() {
        let r = region();
        r.store_words(16, &[0xDEAD_BEEF, 42]);
        let mut out = [0u64; 2];
        r.load_words(16, &mut out);
        assert_eq!(out, [0xDEAD_BEEF, 42]);
    }

    #[test]
    fn bytes_roundtrip_with_padding() {
        let r = region();
        let payload = b"hello world, tracing!"; // 21 bytes
        r.store_bytes(64, payload);
        let mut out = Vec::new();
        r.load_bytes(64, &mut out, payload.len());
        assert_eq!(&out, payload);
        // The padding word zero-fills beyond the payload.
        let mut w = [0u64; 1];
        r.load_words(64 + 16, &mut w);
        assert_eq!(w[0] & 0xFF_FF_FF_00_00_00_00_00, 0);
    }

    #[test]
    fn all_lengths_roundtrip_at_odd_offsets() {
        let r = region();
        // Every payload length through the head/tail split, at several
        // word-aligned bases, from an unaligned source slice — byte-exact.
        let src: Vec<u8> = (0..=255u8).cycle().take(80).collect();
        for base in [0usize, 8, 16, 72, 200] {
            for len in 0..=64usize {
                let payload = &src[1..1 + len]; // misaligned source
                r.store_bytes(base, payload);
                let mut out = Vec::new();
                r.load_bytes(base, &mut out, len);
                assert_eq!(out, payload, "base {base} len {len}");
            }
        }
    }

    #[test]
    fn load_bytes_reuses_scratch_capacity() {
        let r = region();
        r.store_bytes(0, b"scratch-reuse-check");
        let mut out = Vec::with_capacity(3); // deliberately too small
        r.load_bytes(0, &mut out, 19);
        assert_eq!(&out, b"scratch-reuse-check");
        r.load_bytes(0, &mut out, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn block_offsets() {
        let r = region();
        assert_eq!(r.block_offset(0), 0);
        assert_eq!(r.block_offset(3), 3 * 512);
    }
}
