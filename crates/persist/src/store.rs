//! Random-access trace store over BTSF streams and `.btd` dumps.
//!
//! [`TraceStore`] opens a file through a read-only memory map
//! ([`btrace_vmem::FileMap`]), skips a valid `.btd` label header if there
//! is one, and builds a **frame directory** in O(frames): offsets, lengths,
//! header fields, and the `FIDX` footer of every frame — no event is
//! decoded and no checksum verified until a query actually touches a
//! frame. The directory is what lets predicates prune: a frame whose footer
//! proves it cannot contribute is never faulted in.
//!
//! Corruption is a *per-frame* fact here, never a process-wide one:
//!
//! * structural damage (bad magic, a length header pointing outside the
//!   file, a truncated tail, a frame of another revision, a missing or
//!   lying footer, a damaged dump header) is recorded as a [`FrameDefect`]
//!   during the directory scan, and the scanner resyncs on the next
//!   checksummed frame so intact frames beyond the damage stay queryable;
//! * content damage (checksum mismatch, body overrun) is caught when
//!   [`TraceStore::decode_frame_refs`] verifies the frame, again as a typed
//!   defect for that frame only; a frame's events are handed out only
//!   after the whole frame validated.
//!
//! Nothing in this module panics on hostile bytes — the corruption battery
//! in `tests/query.rs` flips bits everywhere and asserts exactly that.

use std::io;
use std::path::Path;

use btrace_core::{EventView, FullEvent};
use btrace_vmem::FileMap;

use crate::dump::parse_header;
use crate::fragment::{probe_frame, FrameInfo};
use crate::stream::{validate_frame, FRAME_MAGIC};
use crate::xxh64::checksum_matches;

/// What kind of damage a [`FrameDefect`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DefectKind {
    /// Bytes at the expected frame boundary do not start with `BTSF`.
    BadMagic,
    /// The length header points outside the file, or the file ends inside
    /// a frame (mid-frame / mid-footer truncation).
    Truncated,
    /// The frame's XXH64 checksum (see [`checksum`](crate::checksum)) does
    /// not match its bytes.
    ChecksumMismatch,
    /// The declared events do not tile the event section (overrun, or junk
    /// between the last event and the footer).
    BodyOverrun,
    /// The index footer is missing (bad magic at the footer offset) or
    /// its count disagrees with the header.
    FooterMismatch,
    /// The header lacks the revision-2 flag: the frame comes from an older
    /// or foreign writer and is never decoded.
    UnknownRevision,
    /// A `.btd` dump's frame seqs do not run 0..n in file order: frames
    /// were moved or duplicated after the dump was written.
    OutOfOrder,
}

/// One frame's damage report. Produced either by the directory scan
/// (structural) or by [`TraceStore::decode_frame_refs`] (content).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct FrameDefect {
    /// Directory position the defect applies to (for structural damage:
    /// the position the next frame would have had).
    pub frame: usize,
    /// Byte offset in the file where the damage was detected.
    pub offset: usize,
    /// Damage classification.
    pub kind: DefectKind,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for FrameDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame {} at offset {}: {:?} ({})",
            self.frame, self.offset, self.kind, self.detail
        )
    }
}

/// Random-access, defect-tolerant reader over one BTSF artifact.
#[derive(Debug)]
pub struct TraceStore {
    map: FileMap,
    /// Where the frames start: past a valid `.btd` header, else 0.
    start: usize,
    frames: Vec<FrameInfo>,
    defects: Vec<FrameDefect>,
}

impl TraceStore {
    /// Memory-maps `path` and builds the frame directory.
    ///
    /// Corrupt regions become [`FrameDefect`]s, not errors — the only
    /// errors here are real I/O failures opening the file.
    ///
    /// # Errors
    ///
    /// Propagates `FileMap::open` failures (missing file, permissions).
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::from_map(FileMap::open(path.as_ref())?))
    }

    /// Builds a store over in-memory file bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self::from_map(FileMap::from_vec(bytes))
    }

    fn from_map(map: FileMap) -> Self {
        let header = parse_header(map.bytes()).ok();
        let start = header.as_ref().map_or(0, |h| h.len);
        let (frames, mut defects) = scan_directory(&map.bytes()[start..]);
        // Per-frame checks cannot see a dump cut at a frame boundary, or
        // frames moved within it; the header's event count and the seqs a
        // dump is written with (0..n, in order) can.
        if let Some(h) = header.filter(|_| defects.is_empty()) {
            let found: u64 = frames.iter().map(|f| f.events as u64).sum();
            if let Some((i, f)) = frames.iter().enumerate().find(|(i, f)| f.seq != *i as u64) {
                defects.push(FrameDefect {
                    frame: i,
                    offset: f.offset,
                    kind: DefectKind::OutOfOrder,
                    detail: format!("dump frame seqs are not contiguous from 0: seq {}", f.seq),
                });
            } else if h.events != found {
                defects.push(FrameDefect {
                    frame: frames.len(),
                    offset: map.len() - start,
                    kind: DefectKind::Truncated,
                    detail: format!(
                        "dump header promises {} events, frames hold {found}",
                        h.events
                    ),
                });
            }
        }
        Self { map, start, frames, defects }
    }

    /// The frame stream: the file bytes after a `.btd` header, if any.
    /// Directory and defect offsets index into this slice.
    pub fn bytes(&self) -> &[u8] {
        &self.map.bytes()[self.start..]
    }

    /// The label of a `.btd` dump's header; `None` for a bare frame stream
    /// (or a dump whose header is damaged, which is then a defect).
    pub fn label(&self) -> Option<&str> {
        parse_header(self.map.bytes()).ok().map(|h| h.label)
    }

    /// The frame directory, in file order.
    pub fn frames(&self) -> &[FrameInfo] {
        &self.frames
    }

    /// Structural defects found while building the directory (content
    /// defects surface per frame from [`TraceStore::decode_frame_refs`]).
    pub fn defects(&self) -> &[FrameDefect] {
        &self.defects
    }

    /// Sum of header event counts across the directory.
    pub fn total_events(&self) -> u64 {
        self.frames.iter().map(|f| f.events as u64).sum()
    }

    /// Validates directory entry `idx` and decodes its events in place
    /// into `out` (cleared first, reused across calls): checksum first, then
    /// the event section, then footer consistency. The events borrow from
    /// the store's mapping, and `out` holds them only when the whole frame
    /// validated — on any failure it is left empty.
    ///
    /// # Errors
    ///
    /// The defect describing why this frame's bytes cannot be trusted.
    pub fn decode_frame_refs<'a>(
        &'a self,
        idx: usize,
        out: &mut Vec<EventView<'a>>,
    ) -> Result<(), FrameDefect> {
        let entry = &self.frames[idx];
        let frame = &self.bytes()[entry.offset..entry.offset + entry.len];
        validate_frame(frame, out).map_err(|(kind, detail)| FrameDefect {
            frame: idx,
            offset: entry.offset,
            kind,
            detail: detail.to_string(),
        })
    }

    /// [`TraceStore::decode_frame_refs`] with the events copied out.
    ///
    /// # Errors
    ///
    /// The defect describing why this frame's bytes cannot be trusted.
    pub fn decode_frame(&self, idx: usize) -> Result<Vec<FullEvent>, FrameDefect> {
        let mut events = Vec::new();
        self.decode_frame_refs(idx, &mut events)?;
        Ok(events.iter().map(EventView::to_owned).collect())
    }
}

/// Tolerant O(frames) directory scan: structural damage is recorded and
/// skipped by resyncing on the next frame whose checksum proves it real.
fn scan_directory(bytes: &[u8]) -> (Vec<FrameInfo>, Vec<FrameDefect>) {
    let mut frames = Vec::new();
    let mut defects = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        match probe_frame(bytes, offset) {
            Ok(entry) => {
                let len = entry.len;
                frames.push(entry);
                offset += len;
            }
            Err((kind, detail)) => {
                defects.push(FrameDefect {
                    frame: frames.len(),
                    offset,
                    kind,
                    detail: detail.to_string(),
                });
                match resync(bytes, offset + 1) {
                    Some(next) => offset = next,
                    None => break,
                }
            }
        }
    }
    (frames, defects)
}

/// Finds the next plausible frame start at or after `from`: a `BTSF` magic
/// whose frame is structurally whole *and* passes its checksum (so random
/// magic bytes inside a corrupt region cannot fake a resync point).
fn resync(bytes: &[u8], from: usize) -> Option<usize> {
    let mut at = from;
    while at + 4 <= bytes.len() {
        let rel = bytes[at..].windows(4).position(|w| w == FRAME_MAGIC)?;
        let cand = at + rel;
        if let Ok(entry) = probe_frame(bytes, cand) {
            if checksum_matches(&bytes[cand..cand + entry.len]) {
                return Some(cand);
            }
        }
        at = cand + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_stream;

    fn ev(stamp: u64, core: u16, payload: usize) -> FullEvent {
        FullEvent { stamp, core, tid: 40 + core as u32, payload: vec![0xEE; payload] }
    }

    fn sample_stream() -> Vec<u8> {
        let events: Vec<FullEvent> = (0..120).map(|s| ev(s, (s % 4) as u16, 9)).collect();
        encode_stream(&events, 24)
    }

    #[test]
    fn directory_matches_scan_on_healthy_streams() {
        let bytes = sample_stream();
        let store = TraceStore::from_bytes(bytes.clone());
        assert!(store.defects().is_empty());
        assert_eq!(store.frames(), crate::scan_frames(&bytes).unwrap());
        assert_eq!(store.total_events(), 120);
        for (i, f) in store.frames().iter().enumerate() {
            assert_eq!(f.seq, i as u64);
            assert_eq!(f.index.event_count, 24);
            let events = store.decode_frame(i).expect("healthy frame decodes");
            assert_eq!(events.len(), 24);
        }
    }

    #[test]
    fn body_corruption_is_one_frames_defect() {
        let mut bytes = sample_stream();
        let store = TraceStore::from_bytes(bytes.clone());
        let target = store.frames()[2];
        bytes[target.offset + 25] ^= 0xFF;
        let store = TraceStore::from_bytes(bytes);
        assert_eq!(store.frames().len(), 5, "structure intact, all frames visible");
        let err = store.decode_frame(2).unwrap_err();
        assert_eq!(err.kind, DefectKind::ChecksumMismatch);
        for i in [0usize, 1, 3, 4] {
            assert!(store.decode_frame(i).is_ok(), "frame {i} must stay readable");
        }
    }

    #[test]
    fn length_corruption_resyncs_to_later_frames() {
        let mut bytes = sample_stream();
        let clean = TraceStore::from_bytes(bytes.clone());
        let target = clean.frames()[1];
        // Wreck frame 1's length header: frames 2.. are only reachable by
        // resync.
        bytes[target.offset + 4..target.offset + 8].copy_from_slice(&0xFFFF_FF00u32.to_le_bytes());
        let store = TraceStore::from_bytes(bytes);
        assert_eq!(store.defects().len(), 1);
        assert_eq!(store.defects()[0].kind, DefectKind::Truncated);
        assert_eq!(store.frames().len(), 4, "frames 0, 2, 3, 4 survive");
        assert!(store.frames().iter().all(|f| f.seq != 1));
    }

    #[test]
    fn truncated_tail_is_a_defect_with_prefix_intact() {
        let bytes = sample_stream();
        let store = TraceStore::from_bytes(bytes[..bytes.len() - 10].to_vec());
        assert_eq!(store.frames().len(), 4);
        assert_eq!(store.defects().len(), 1);
        assert_eq!(store.defects()[0].kind, DefectKind::Truncated);
    }

    #[test]
    fn frame_refs_copy_out_to_the_owned_decode() {
        let events: Vec<FullEvent> =
            (0..90).map(|s| ev(s, (s % 3) as u16, (s % 17) as usize)).collect();
        let store = TraceStore::from_bytes(encode_stream(&events, 30));
        assert!(store.defects().is_empty());
        // One scratch buffer across all three frames: each call replaces
        // the previous frame's events.
        let mut refs = Vec::new();
        for (i, chunk) in events.chunks(30).enumerate() {
            store.decode_frame_refs(i, &mut refs).expect("healthy frame validates");
            let owned: Vec<FullEvent> = refs.iter().map(EventView::to_owned).collect();
            assert_eq!(owned, store.decode_frame(i).unwrap());
            assert_eq!(owned, chunk);
        }
    }

    #[test]
    fn empty_file_is_empty_not_an_error() {
        let store = TraceStore::from_bytes(Vec::new());
        assert!(store.frames().is_empty());
        assert!(store.defects().is_empty());
    }
}
