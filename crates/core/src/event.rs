//! On-buffer entry encoding and the event model: the borrowed
//! [`EventView`], the owned [`FullEvent`] and the payload-free
//! [`CollectedEvent`].
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

/// One trace event, borrowed from wherever its bytes live: a ring
/// snapshot (the entry walker behind [`RingSnapshot::try_for_each`]) or a
/// frame (the BTSF decoder). Header fields by value, payload borrowed, so
/// a reader that only filters, folds or re-encodes copies nothing per
/// event. The two conversions out of the view are [`EventView::to_owned`]
/// and [`EventView::collected`].
///
/// [`RingSnapshot::try_for_each`]: crate::RingSnapshot::try_for_each
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventView<'a> {
    /// Logic stamp assigned at record time.
    pub stamp: u64,
    /// Core the event was recorded on.
    pub core: u16,
    /// Producer thread id.
    pub tid: u32,
    /// The recorded payload bytes, borrowed.
    pub payload: &'a [u8],
}

impl EventView<'_> {
    /// Copies the event out, payload included.
    pub fn to_owned(&self) -> FullEvent {
        FullEvent {
            stamp: self.stamp,
            core: self.core,
            tid: self.tid,
            payload: self.payload.to_vec(),
        }
    }

    /// The event's identifying metadata and on-buffer footprint, without
    /// the payload.
    #[inline]
    pub fn collected(&self) -> CollectedEvent {
        CollectedEvent {
            stamp: self.stamp,
            core: self.core,
            tid: self.tid,
            stored_bytes: encoded_len(self.payload.len()) as u32,
        }
    }
}

/// An owned trace event, payload included: what
/// [`RingSnapshot::to_events`] copies out of a ring read, what a baseline
/// sink gathers before its [`TraceSink::visit`], and what the frame
/// encoder takes.
///
/// [`RingSnapshot::to_events`]: crate::RingSnapshot::to_events
/// [`TraceSink::visit`]: crate::sink::TraceSink::visit
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullEvent {
    /// Logic stamp assigned at record time.
    pub stamp: u64,
    /// Core the event was recorded on.
    pub core: u16,
    /// Producer thread id.
    pub tid: u32,
    /// The recorded payload bytes.
    pub payload: Vec<u8>,
}

impl FullEvent {
    /// Borrows the event as a view.
    pub fn view(&self) -> EventView<'_> {
        EventView { stamp: self.stamp, core: self.core, tid: self.tid, payload: &self.payload }
    }
}

/// An event as drained for analysis: just the identifying metadata, not the
/// payload (the evaluation only needs stamps and sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollectedEvent {
    /// The unique, monotonically increasing logic stamp assigned at record
    /// time (§5 replaying setup).
    pub stamp: u64,
    /// Core the event was recorded on.
    pub core: u16,
    /// Producer thread id.
    pub tid: u32,
    /// On-buffer footprint in bytes.
    pub stored_bytes: u32,
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
    fn view_converts_both_ways() {
        let owned = FullEvent { stamp: 7, core: 3, tid: 99, payload: vec![1, 2, 3] };
        let view = owned.view();
        assert_eq!(view.to_owned(), owned);
        assert_eq!(
            view.collected(),
            CollectedEvent { stamp: 7, core: 3, tid: 99, stored_bytes: 24 }
        );
    }
}
