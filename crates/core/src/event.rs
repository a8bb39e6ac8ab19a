//! On-buffer entry encoding and the owned [`Event`] type consumers return.
//!
//! Every entry in a data block is a multiple of 8 bytes and starts with a
//! 16-byte header (two `u64` words):
//!
//! ```text
//! word 0:  [ len: u16 | kind: u8 | core: u8 | tid: u32 ]
//! word 1:  [ stamp: u64 ]          (gpos for block headers / skip markers)
//! payload: len - 16 bytes, zero-padded to the 8-byte boundary
//! ```
//!
//! `len` covers header + payload + padding, so a parser can walk a block by
//! hopping `len` bytes at a time. Four entry kinds exist:
//!
//! * [`EntryKind::Data`] — a trace event carrying a payload.
//! * [`EntryKind::Dummy`] — filler written when closing a block, when the
//!   tail of a block is too small for the next entry (§4.1 Fig. 8c), or by a
//!   straggler repairing a misplaced allocation. Never returned to users.
//! * [`EntryKind::BlockHeader`] — first entry of every (re)initialized data
//!   block; its stamp word holds the owning global block sequence number so
//!   consumers can validate that a data block still belongs to the round
//!   they expect.
//! * [`EntryKind::Skip`] — a block header variant marking a sacrificed block
//!   (§3.4); consumers discard the whole block.

use std::fmt;

/// Size in bytes of an entry header (two `u64` words).
pub const HEADER_BYTES: usize = 16;

/// Every entry size is a multiple of this alignment.
pub const ENTRY_ALIGN: usize = 8;

/// Largest encodable entry (`len` is a `u16`).
pub const MAX_ENTRY_BYTES: usize = u16::MAX as usize & !(ENTRY_ALIGN - 1);

/// Discriminates the entries stored in a data block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EntryKind {
    /// A user trace event.
    Data = 1,
    /// Filler; carries no information.
    Dummy = 2,
    /// First entry of a live block; stamp = owning gpos.
    BlockHeader = 3,
    /// Block sacrificed by skipping (§3.4); stamp = skipped gpos.
    Skip = 4,
}

impl EntryKind {
    /// Decodes a kind byte, returning `None` for anything unknown (torn or
    /// garbage bytes encountered during speculative reads).
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(EntryKind::Data),
            2 => Some(EntryKind::Dummy),
            3 => Some(EntryKind::BlockHeader),
            4 => Some(EntryKind::Skip),
            _ => None,
        }
    }
}

/// A decoded entry header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryHeader {
    /// Total entry length in bytes (header + payload + padding).
    pub len: u16,
    /// Entry kind.
    pub kind: EntryKind,
    /// Alignment padding bytes at the entry tail (0..=7); the payload is
    /// `len - 16 - pad` bytes.
    pub pad: u8,
    /// Core the producer was pinned to when recording.
    pub core: u8,
    /// Producer thread id.
    pub tid: u32,
    /// Logic stamp (or gpos for block headers / skip markers).
    pub stamp: u64,
}

impl EntryHeader {
    /// Encodes into the two header words. Word 0 layout, low to high:
    /// `len:16, kind:4, pad:4, core:8, tid:32`.
    pub fn encode(&self) -> [u64; 2] {
        debug_assert!(self.pad < 8);
        debug_assert!((self.kind as u8) < 16);
        let word0 = (self.len as u64)
            | ((self.kind as u8 as u64) << 16)
            | ((self.pad as u64) << 20)
            | ((self.core as u64) << 24)
            | ((self.tid as u64) << 32);
        [word0, self.stamp]
    }

    /// Decodes from the two header words; `None` when the kind nibble is not
    /// a valid [`EntryKind`] or the length is not a plausible entry length.
    pub fn decode(words: [u64; 2]) -> Option<Self> {
        let len = words[0] as u16;
        let kind = EntryKind::from_u8(((words[0] >> 16) & 0xF) as u8)?;
        let pad = ((words[0] >> 20) & 0xF) as u8;
        if pad >= 8 {
            return None;
        }
        if (len as usize) < HEADER_BYTES && !matches!(kind, EntryKind::Dummy) {
            return None;
        }
        if !(len as usize).is_multiple_of(ENTRY_ALIGN) || len == 0 {
            return None;
        }
        Some(Self {
            len,
            kind,
            pad,
            core: (words[0] >> 24) as u8,
            tid: (words[0] >> 32) as u32,
            stamp: words[1],
        })
    }

    /// Payload length implied by `len` and `pad`; `None` when inconsistent.
    pub fn payload_len(&self) -> Option<usize> {
        (self.len as usize).checked_sub(HEADER_BYTES + self.pad as usize)
    }
}

/// Returns the encoded size of an entry carrying `payload_len` bytes.
pub fn encoded_len(payload_len: usize) -> usize {
    (HEADER_BYTES + payload_len + ENTRY_ALIGN - 1) & !(ENTRY_ALIGN - 1)
}

/// A `Data` entry read in place from a block snapshot: header fields by
/// value, payload borrowed from the snapshot bytes. What the entry walker
/// hands its visitor, so a reader that only encodes or filters copies
/// nothing per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryView<'a> {
    /// Logic stamp assigned at record time.
    pub stamp: u64,
    /// Core the event was recorded on.
    pub core: u8,
    /// Producer thread id.
    pub tid: u32,
    /// The recorded payload bytes, borrowed from the snapshot.
    pub payload: &'a [u8],
}

/// An owned trace event as returned by consumers.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Event {
    stamp: u64,
    core: u8,
    tid: u32,
    gpos: u64,
    payload: Vec<u8>,
}

impl Event {
    pub(crate) fn new(stamp: u64, core: u8, tid: u32, gpos: u64, payload: Vec<u8>) -> Self {
        Self { stamp, core, tid, gpos, payload }
    }

    /// Logic stamp assigned at record time.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Core the event was recorded on.
    pub fn core(&self) -> usize {
        self.core as usize
    }

    /// Producer thread id.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Global sequence number of the block the event was read from. Events
    /// from larger `gpos` are newer in buffer order.
    pub fn gpos(&self) -> u64 {
        self.gpos
    }

    /// The recorded payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Consumes the event, returning the payload buffer without copying —
    /// the hand-off used by the streaming drain path, where re-copying
    /// every payload per batch would double the export cost.
    pub fn into_payload(self) -> Vec<u8> {
        self.payload
    }

    /// On-buffer footprint of this event in bytes (header + payload,
    /// rounded to the entry alignment).
    pub fn stored_bytes(&self) -> usize {
        encoded_len(self.payload.len())
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("stamp", &self.stamp)
            .field("core", &self.core)
            .field("tid", &self.tid)
            .field("gpos", &self.gpos)
            .field("payload_len", &self.payload.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = EntryHeader {
            len: 40,
            kind: EntryKind::Data,
            pad: 5,
            core: 11,
            tid: 0xDEAD_BEEF,
            stamp: 42,
        };
        assert_eq!(EntryHeader::decode(h.encode()), Some(h));
        assert_eq!(h.payload_len(), Some(40 - 16 - 5));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(EntryHeader::decode([0, 0]), None); // len 0, kind 0
        assert_eq!(EntryHeader::decode([(9u64) | (1 << 16), 0]), None); // unaligned len
        assert_eq!(EntryHeader::decode([(16u64) | (250 << 16), 0]), None); // bad kind
    }

    #[test]
    fn dummy_may_be_header_sized_or_smaller() {
        let h = EntryHeader { len: 8, kind: EntryKind::Dummy, pad: 0, core: 0, tid: 0, stamp: 0 };
        assert_eq!(EntryHeader::decode(h.encode()), Some(h));
    }

    #[test]
    fn encoded_len_pads_to_alignment() {
        assert_eq!(encoded_len(0), 16);
        assert_eq!(encoded_len(1), 24);
        assert_eq!(encoded_len(8), 24);
        assert_eq!(encoded_len(9), 32);
        assert_eq!(encoded_len(16), 32);
    }

    #[test]
    fn event_accessors() {
        let e = Event::new(7, 3, 99, 12, vec![1, 2, 3]);
        assert_eq!(e.stamp(), 7);
        assert_eq!(e.core(), 3);
        assert_eq!(e.tid(), 99);
        assert_eq!(e.gpos(), 12);
        assert_eq!(e.payload(), &[1, 2, 3]);
        assert_eq!(e.stored_bytes(), 24);
        assert!(!format!("{e:?}").is_empty());
    }
}
