//! A heap word buffer with relaxed-atomic access, the baselines' analogue
//! of `btrace-core`'s data region: concurrent mixed access stays defined
//! behaviour, and ordering is established by each tracer's own counters.
//! It also holds the baselines' entry codec: one writer per entry kind
//! ([`WordBuf::write_data`], [`WordBuf::write_dummy`]) and one walk
//! ([`WordBuf::read_entries`]).

use btrace_core::event::{EntryHeader, EntryKind, HEADER_BYTES};
use btrace_core::sink::FullEvent;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

pub(crate) struct WordBuf {
    words: Box<[AtomicU64]>,
}

impl WordBuf {
    /// Allocates a zeroed buffer of `bytes` (rounded up to whole words).
    pub(crate) fn new(bytes: usize) -> Self {
        let words = (0..bytes.div_ceil(8)).map(|_| AtomicU64::new(0)).collect();
        Self { words }
    }

    pub(crate) fn len_bytes(&self) -> usize {
        self.words.len() * 8
    }

    pub(crate) fn store_words(&self, byte_off: usize, words: &[u64]) {
        debug_assert_eq!(byte_off % 8, 0);
        for (i, &w) in words.iter().enumerate() {
            self.words[byte_off / 8 + i].store(w, Ordering::Relaxed);
        }
    }

    pub(crate) fn load_words(&self, byte_off: usize, out: &mut [u64]) {
        debug_assert_eq!(byte_off % 8, 0);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.words[byte_off / 8 + i].load(Ordering::Relaxed);
        }
    }

    /// Loads `len` bytes starting at the word-aligned `byte_off`.
    pub(crate) fn load_bytes(&self, byte_off: usize, len: usize) -> Vec<u8> {
        debug_assert_eq!(byte_off % 8, 0);
        let mut out = Vec::with_capacity(len);
        let mut idx = byte_off / 8;
        while out.len() < len {
            let w = self.words[idx].load(Ordering::Relaxed).to_le_bytes();
            let take = (len - out.len()).min(8);
            out.extend_from_slice(&w[..take]);
            idx += 1;
        }
        out
    }

    /// Writes a `Data` entry of `len` bytes (header, `payload`, zero
    /// padding) at the entry-aligned `at`.
    pub(crate) fn write_data(
        &self,
        at: usize,
        len: usize,
        core: usize,
        tid: u32,
        stamp: u64,
        payload: &[u8],
    ) {
        let header = EntryHeader {
            len: len as u16,
            kind: EntryKind::Data,
            pad: (len - HEADER_BYTES - payload.len()) as u8,
            core: core as u8,
            tid,
            stamp,
        };
        self.store_words(at, &header.encode());
        self.store_bytes(at + HEADER_BYTES, payload);
    }

    /// Writes a `Dummy` entry covering `len` bytes at the entry-aligned
    /// `at`; a filler shorter than a header stores only its first word.
    pub(crate) fn write_dummy(&self, at: usize, len: usize) {
        let header = EntryHeader {
            len: len as u16,
            kind: EntryKind::Dummy,
            pad: 0,
            core: 0,
            tid: 0,
            stamp: 0,
        };
        let words = header.encode();
        self.store_words(at, &words[..if len >= HEADER_BYTES { 2 } else { 1 }]);
    }

    /// The baselines' one entry walk: appends every `Data` entry in the
    /// entry-aligned byte range `range` to `out`, payload loaded, in buffer
    /// order, and stops at the first entry that does not decode or runs
    /// past `range.end`.
    pub(crate) fn read_entries(&self, range: Range<usize>, out: &mut Vec<FullEvent>) {
        let mut off = range.start;
        while off + 8 <= range.end {
            let mut words = [0u64; 2];
            let take = if range.end - off >= HEADER_BYTES { 2 } else { 1 };
            self.load_words(off, &mut words[..take]);
            let Some(header) = EntryHeader::decode(words) else { return };
            if off + header.len as usize > range.end {
                return;
            }
            if header.kind == EntryKind::Data {
                out.push(FullEvent {
                    stamp: header.stamp,
                    core: header.core.into(),
                    tid: header.tid,
                    payload: self.load_bytes(off + HEADER_BYTES, header.payload_len().unwrap_or(0)),
                });
            }
            off += header.len as usize;
        }
    }

    pub(crate) fn store_bytes(&self, byte_off: usize, bytes: &[u8]) {
        debug_assert_eq!(byte_off % 8, 0);
        let mut chunks = bytes.chunks_exact(8);
        let mut idx = byte_off / 8;
        for chunk in chunks.by_ref() {
            self.words[idx]
                .store(u64::from_le_bytes(chunk.try_into().expect("8 bytes")), Ordering::Relaxed);
            idx += 1;
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.words[idx].store(u64::from_le_bytes(tail), Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for WordBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WordBuf").field("bytes", &self.len_bytes()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_words_and_bytes() {
        let b = WordBuf::new(64);
        b.store_words(0, &[1, 2]);
        let mut out = [0u64; 2];
        b.load_words(0, &mut out);
        assert_eq!(out, [1, 2]);
        b.store_bytes(16, b"unaligned tail!!?");
        let mut w = [0u64; 3];
        b.load_words(16, &mut w);
        let mut bytes = Vec::new();
        for word in w {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(&bytes[..17], b"unaligned tail!!?");
    }

    #[test]
    fn rounds_up_to_words() {
        assert_eq!(WordBuf::new(9).len_bytes(), 16);
    }
}
