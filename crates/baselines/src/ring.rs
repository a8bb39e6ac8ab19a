//! A single-writer, overwrite-oldest byte ring — the building block of the
//! ftrace-like and VTrace-like baselines.
//!
//! Entries use the shared [`EntryHeader`] encoding. The writer keeps two
//! monotone byte offsets, `head` (next write) and `tail` (oldest retained);
//! writing evicts whole entries from the tail until the new entry fits.
//! Entries never straddle the wrap point: the residual tail of the buffer is
//! covered by a dummy entry instead.
//!
//! Write access requires `&mut self`; owners serialize writers externally
//! (a per-core mutex standing in for ftrace's preemption-disabled section,
//! or per-thread exclusivity in the VTrace model).

use crate::wordbuf::WordBuf;
use btrace_core::event::{encoded_len, EntryHeader, EntryKind, HEADER_BYTES};
use btrace_core::sink::FullEvent;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[derive(Debug)]
pub(crate) struct OverwriteRing {
    buf: WordBuf,
    cap: usize,
    /// Monotone byte offset of the next write.
    head: u64,
    /// Monotone byte offset of the oldest retained entry.
    tail: u64,
    /// Events evicted by overwrite (diagnostics).
    overwritten: u64,
}

impl OverwriteRing {
    /// Creates a ring of `bytes` capacity (rounded down to whole words,
    /// minimum one maximal entry).
    pub(crate) fn new(bytes: usize) -> Self {
        let cap = (bytes & !7).max(64);
        Self { buf: WordBuf::new(cap), cap, head: 0, tail: 0, overwritten: 0 }
    }

    pub(crate) fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Whether an entry with `payload_len` bytes can ever be stored.
    pub(crate) fn fits(&self, payload_len: usize) -> bool {
        encoded_len(payload_len) <= self.cap
    }

    /// Appends an entry, evicting the oldest entries as needed.
    ///
    /// # Panics
    ///
    /// Panics when the encoded entry exceeds the ring capacity; call
    /// [`OverwriteRing::fits`] first.
    pub(crate) fn write(&mut self, stamp: u64, tid: u32, core: u16, payload: &[u8]) {
        let need = encoded_len(payload.len());
        assert!(need <= self.cap, "entry of {need} bytes exceeds ring capacity {}", self.cap);
        loop {
            let at = (self.head % self.cap as u64) as usize;
            let room = self.cap - at;
            if room >= need {
                self.make_room(need as u64);
                self.buf.write_data(at, need, core.into(), tid, stamp, payload);
                self.head += need as u64;
                return;
            }
            // Pad out the wrap tail with a dummy, then retry at offset 0.
            self.make_room(room as u64);
            self.buf.write_dummy(at, room);
            self.head += room as u64;
        }
    }

    /// Evicts whole entries from the tail until `need` more bytes fit.
    fn make_room(&mut self, need: u64) {
        while self.head + need - self.tail > self.cap as u64 {
            let at = (self.tail % self.cap as u64) as usize;
            let mut words = [0u64; 2];
            let take = if self.cap - at >= HEADER_BYTES { 2 } else { 1 };
            self.buf.load_words(at, &mut words[..take]);
            let header =
                EntryHeader::decode(words).expect("ring corrupted: undecodable entry at tail");
            if header.kind == EntryKind::Data {
                self.overwritten += 1;
            }
            self.tail += header.len as u64;
        }
    }

    /// Appends the retained events to `out`, oldest first. Entries never
    /// straddle the wrap point, so the retained bytes are at most two
    /// physical ranges, each starting and ending on an entry boundary.
    pub(crate) fn drain_into(&self, out: &mut Vec<FullEvent>) {
        let start = (self.tail % self.cap as u64) as usize;
        let end = start + (self.head - self.tail) as usize;
        self.buf.read_entries(start..end.min(self.cap), out);
        if end > self.cap {
            self.buf.read_entries(0..end - self.cap, out);
        }
    }
}

/// Locks `mutex`, recovering the guard of a poisoned lock: the baselines
/// keep the poison-free semantics of the lock they were written against.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Every ring's retained events, in stamp order: the drain of the per-core
/// and per-thread baselines.
pub(crate) fn drain_rings<'a>(
    rings: impl IntoIterator<Item = &'a Mutex<OverwriteRing>>,
) -> Vec<FullEvent> {
    let mut out = Vec::new();
    for ring in rings {
        lock(ring).drain_into(&mut out);
    }
    out.sort_by_key(|e| e.stamp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(r: &OverwriteRing) -> Vec<FullEvent> {
        let mut out = Vec::new();
        r.drain_into(&mut out);
        out
    }

    #[test]
    fn write_and_drain_in_order() {
        let mut r = OverwriteRing::new(1024);
        for i in 0..10u64 {
            r.write(i, 1, 2, b"payload");
        }
        let out = drain(&r);
        assert_eq!(out.len(), 10);
        assert_eq!(out[0].stamp, 0);
        assert_eq!(out[9].stamp, 9);
        assert_eq!(out[0].core, 2);
        assert_eq!(out[0].tid, 1);
        assert_eq!(r.overwritten(), 0);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut r = OverwriteRing::new(256);
        // 24-byte entries: 256/24 -> at most 10 retained.
        for i in 0..100u64 {
            r.write(i, 0, 0, b"12345678");
        }
        let out = drain(&r);
        assert!(!out.is_empty());
        assert_eq!(out.last().unwrap().stamp, 99, "newest must be retained");
        // Retained stamps are a contiguous suffix.
        for w in out.windows(2) {
            assert_eq!(w[1].stamp, w[0].stamp + 1);
        }
        assert!(r.overwritten() > 0);
    }

    #[test]
    fn variable_sizes_wrap_correctly() {
        let mut r = OverwriteRing::new(128);
        let payloads: Vec<Vec<u8>> = (0..50).map(|i| vec![b'x'; (i * 7) % 40]).collect();
        for (i, p) in payloads.iter().enumerate() {
            r.write(i as u64, 0, 0, p);
        }
        let out = drain(&r);
        assert_eq!(out.last().unwrap().stamp, 49);
        for w in out.windows(2) {
            assert_eq!(w[1].stamp, w[0].stamp + 1);
        }
    }

    #[test]
    fn fits_checks_capacity() {
        let r = OverwriteRing::new(64);
        assert!(r.fits(16));
        assert!(!r.fits(1000));
    }

    #[test]
    #[should_panic(expected = "exceeds ring capacity")]
    fn oversized_write_panics() {
        let mut r = OverwriteRing::new(64);
        r.write(0, 0, 0, &[0u8; 128]);
    }
}
