//! Fragment splitting over BTSF streams: cut a dump at frame boundaries
//! into self-describing [`FragmentContext`]s that replay and analysis can
//! process independently on a worker pool.
//!
//! Splitting is **O(frames)**, not O(events): every frame carries its
//! header fields and its index footer at fixed offsets (see
//! [`encode_frame`](crate::encode_frame)), so one probe per frame —
//! [`probe_frame`], shared with the tolerant [`TraceStore`] scan — reads
//! them without decoding a single event.
//!
//! [`TraceStore`]: crate::TraceStore

use std::io::{self, Write};
use std::ops::Range;

use btrace_core::sink::FullEvent;

use crate::store::DefectKind;
use crate::stream::{
    bad_data, FrameWriter, FOOTER_BYTES, FOOTER_MAGIC, FRAME_FLAG_COMPRESSED, FRAME_MAGIC,
    MIN_FRAME_BYTES,
};

/// The decoded per-frame index footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct FrameIndex {
    /// Smallest stamp in the frame; `u64::MAX` for an empty frame.
    pub min_stamp: u64,
    /// Largest stamp in the frame; 0 for an empty frame.
    pub max_stamp: u64,
    /// Folded 64-bit core bitmap (bit `min(core, 63)`).
    pub core_bitmap: u64,
    /// Event count (mirrors the frame header).
    pub event_count: u32,
    /// Sum of raw payload lengths.
    pub payload_bytes: u64,
}

/// One frame's location and cheap metadata: an entry of the
/// [`scan_frames`] result and of the [`TraceStore`](crate::TraceStore)
/// directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct FrameInfo {
    /// Byte offset of the frame start in the stream.
    pub offset: usize,
    /// Whole frame length in bytes (magic through crc).
    pub len: usize,
    /// Frame sequence number.
    pub seq: u64,
    /// Event count from the frame header (revision flag masked off).
    pub events: u32,
    /// The frame's index footer.
    pub index: FrameIndex,
}

/// Reads the directory entry of the frame at `offset` from its fixed
/// offsets: magic, length, revision flag, and the index footer, which must
/// be present and agree with the header count. No event is decoded and the
/// checksum is not verified; readers verify both when they decode.
pub(crate) fn probe_frame(
    bytes: &[u8],
    offset: usize,
) -> Result<FrameInfo, (DefectKind, &'static str)> {
    let rest = &bytes[offset..];
    if rest.len() < 8 {
        return Err((DefectKind::Truncated, "file ends inside a frame header"));
    }
    if &rest[..4] != FRAME_MAGIC {
        return Err((DefectKind::BadMagic, "bad frame magic"));
    }
    let len = 8 + u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
    if len < MIN_FRAME_BYTES {
        return Err((DefectKind::Truncated, "frame shorter than its fixed fields"));
    }
    if rest.len() < len {
        return Err((DefectKind::Truncated, "length header points past end of file"));
    }
    let seq = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
    let raw_count = u32::from_le_bytes(rest[16..20].try_into().expect("4 bytes"));
    if raw_count & FRAME_FLAG_COMPRESSED == 0 {
        return Err((DefectKind::UnknownRevision, "frame lacks the revision-2 flag"));
    }
    let events = raw_count & !FRAME_FLAG_COMPRESSED;
    let footer = &rest[len - 8 - FOOTER_BYTES..len - 8];
    if &footer[..4] != FOOTER_MAGIC {
        return Err((DefectKind::FooterMismatch, "frame lacks its index footer"));
    }
    let index = FrameIndex {
        min_stamp: u64::from_le_bytes(footer[4..12].try_into().expect("8 bytes")),
        max_stamp: u64::from_le_bytes(footer[12..20].try_into().expect("8 bytes")),
        core_bitmap: u64::from_le_bytes(footer[20..28].try_into().expect("8 bytes")),
        event_count: u32::from_le_bytes(footer[28..32].try_into().expect("4 bytes")),
        payload_bytes: u64::from_le_bytes(footer[32..40].try_into().expect("8 bytes")),
    };
    if index.event_count != events {
        return Err((DefectKind::FooterMismatch, "frame footer count mismatch"));
    }
    Ok(FrameInfo { offset, len, seq, events, index })
}

/// Scans a BTSF stream in O(frames): the strict twin of the tolerant
/// [`TraceStore`](crate::TraceStore) scan, reading each frame's header and
/// footer through the same probe. No event is decoded and no checksum is
/// verified — fragments re-verify their own bytes when they decode.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] at the first frame that fails the probe
/// (bad magic, truncation, another revision, a missing or lying footer).
pub fn scan_frames(bytes: &[u8]) -> io::Result<Vec<FrameInfo>> {
    let mut infos = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let info = probe_frame(bytes, offset).map_err(|(_, detail)| bad_data(detail))?;
        offset += info.len;
        infos.push(info);
    }
    Ok(infos)
}

/// What the frame index promises lies **before** a fragment — the fragment's
/// seeded entry state for the boundary hand-off check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct FragmentSeed {
    /// Frames in all preceding fragments.
    pub frames_before: usize,
    /// Events in all preceding fragments.
    pub events_before: u64,
    /// Raw payload bytes in all preceding fragments.
    pub payload_bytes_before: u64,
    /// Largest stamp in all preceding fragments, if any event precedes.
    pub max_stamp_before: Option<u64>,
    /// Folded core bitmap of all preceding fragments.
    pub core_bitmap_before: u64,
}

/// A self-describing slice of a BTSF stream: the frame range, its byte
/// span, cheap totals, and the seeded entry state — everything a worker
/// needs to decode and analyze the fragment independently, and everything
/// the reducer needs to verify the boundary hand-off. The `(stream,
/// byte-range)` pair is the continuation handle: [`visit_frames`] over
/// `&stream[bytes]` resumes the stream exactly at the fragment's first
/// frame.
///
/// [`visit_frames`]: crate::visit_frames
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct FragmentContext {
    /// Fragment position (0-based, in stream order).
    pub index: usize,
    /// Frame indices covered (into the [`scan_frames`] result).
    pub frames: Range<usize>,
    /// Byte span in the stream.
    pub bytes: Range<usize>,
    /// Events in this fragment (from frame headers).
    pub events: u64,
    /// Raw payload bytes in this fragment.
    pub payload_bytes: u64,
    /// Seeded entry state from the index of everything before.
    pub seed: FragmentSeed,
}

/// Cuts scanned frames into at most `parts` contiguous fragments with
/// near-equal event counts (each boundary lands within one frame of the
/// ideal cut — frames are never split). Fewer fragments come back when
/// there are fewer non-empty frames than requested parts.
pub fn split_fragments(infos: &[FrameInfo], parts: usize) -> Vec<FragmentContext> {
    let parts = parts.max(1);
    let total_events: u64 = infos.iter().map(|f| f.events as u64).sum();
    let mut fragments: Vec<FragmentContext> = Vec::new();
    let mut frame_at = 0usize;
    // Everything before `frame_at`, folded from the frame footers.
    let mut before = FragmentSeed::default();
    for part in 0..parts {
        if frame_at >= infos.len() {
            break;
        }
        // Ideal cumulative share after this part; the boundary is the first
        // frame end at or past it. The last part absorbs any remainder.
        let target = total_events * (part as u64 + 1) / parts as u64;
        let start = frame_at;
        let seed = FragmentSeed { frames_before: start, ..before };
        while frame_at < infos.len()
            && (before.events_before < target || frame_at == start || part + 1 == parts)
        {
            let idx = &infos[frame_at].index;
            before.events_before += idx.event_count as u64;
            before.payload_bytes_before += idx.payload_bytes;
            before.core_bitmap_before |= idx.core_bitmap;
            if idx.event_count > 0 {
                before.max_stamp_before =
                    Some(before.max_stamp_before.map_or(idx.max_stamp, |m| m.max(idx.max_stamp)));
            }
            frame_at += 1;
        }
        let last = &infos[frame_at - 1];
        fragments.push(FragmentContext {
            index: fragments.len(),
            frames: start..frame_at,
            bytes: infos[start].offset..last.offset + last.len,
            events: before.events_before - seed.events_before,
            payload_bytes: before.payload_bytes_before - seed.payload_bytes_before,
            seed,
        });
    }
    fragments
}

/// Writes `events` as a BTSF stream of `events_per_frame`-event frames
/// (seq starting at 0), one frame at a time.
pub(crate) fn write_stream(
    w: &mut impl Write,
    events: &[FullEvent],
    events_per_frame: usize,
) -> io::Result<()> {
    let mut frame = FrameWriter::default();
    for (seq, chunk) in events.chunks(events_per_frame.max(1)).enumerate() {
        w.write_all(frame.encode(seq as u64, chunk))?;
    }
    Ok(())
}

/// Encodes events into a concatenated BTSF stream of `events_per_frame`
/// frames (seq starting at 0) — the bridge from in-memory drains into the
/// fragment pipeline.
pub fn encode_stream(events: &[FullEvent], events_per_frame: usize) -> Vec<u8> {
    let mut out = Vec::new();
    write_stream(&mut out, events, events_per_frame).expect("writing to a Vec cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_frame;
    use crate::stream::tests::owned_frames;

    fn ev(stamp: u64, core: u16, payload: usize) -> FullEvent {
        FullEvent { stamp, core, tid: 100 + core as u32, payload: vec![0x5A; payload] }
    }

    fn stream_of(frames: &[Vec<FullEvent>]) -> Vec<u8> {
        let mut out = Vec::new();
        for (seq, events) in frames.iter().enumerate() {
            out.extend_from_slice(&encode_frame(seq as u64, events));
        }
        out
    }

    #[test]
    fn scan_reads_headers_and_footers_without_decoding() {
        let frames = vec![
            (0..5).map(|i| ev(i, (i % 2) as u16, 10 + i as usize)).collect::<Vec<_>>(),
            vec![],
            (5..12).map(|i| ev(i, 3, 8)).collect(),
        ];
        let bytes = stream_of(&frames);
        let infos = scan_frames(&bytes).unwrap();
        assert_eq!(infos.len(), 3);
        assert_eq!(infos[0].seq, 0);
        assert_eq!(infos[0].events, 5);
        let idx = infos[0].index;
        assert_eq!(idx.min_stamp, 0);
        assert_eq!(idx.max_stamp, 4);
        assert_eq!(idx.core_bitmap, 0b11);
        assert_eq!(idx.payload_bytes, (10..15).sum::<usize>() as u64);
        let empty = infos[1].index;
        assert_eq!(empty.event_count, 0);
        assert_eq!(empty.min_stamp, u64::MAX);
        assert_eq!(infos[2].index.core_bitmap, 0b1000);
        // Byte ranges tile the stream exactly.
        assert_eq!(infos[0].offset, 0);
        assert_eq!(infos[2].offset + infos[2].len, bytes.len());
    }

    #[test]
    fn split_balances_events_and_seeds_prefixes() {
        // 12 frames × 20 events: 4 parts of exactly 3 frames each.
        let frames: Vec<Vec<FullEvent>> = (0..12)
            .map(|f| (f * 20..f * 20 + 20).map(|s| ev(s, (s % 4) as u16, 12)).collect())
            .collect();
        let bytes = stream_of(&frames);
        let infos = scan_frames(&bytes).unwrap();
        let frags = split_fragments(&infos, 4);
        assert_eq!(frags.len(), 4);
        assert_eq!(frags.iter().map(|f| f.events).sum::<u64>(), 240);
        for f in &frags {
            assert_eq!(f.events, 60, "even frames split evenly");
        }
        assert_eq!(frags[0].seed.events_before, 0);
        assert_eq!(frags[2].seed.events_before, 120);
        assert_eq!(frags[2].seed.frames_before, 6);
        assert_eq!(frags[2].seed.max_stamp_before, Some(119));
        assert_eq!(frags[2].seed.core_bitmap_before, 0b1111);
        assert_eq!(frags[2].seed.payload_bytes_before, 120 * 12);
        // Fragments tile the stream contiguously.
        assert_eq!(frags[0].bytes.start, 0);
        for w in frags.windows(2) {
            assert_eq!(w[0].bytes.end, w[1].bytes.start);
            assert_eq!(w[0].frames.end, w[1].frames.start);
        }
        assert_eq!(frags[3].bytes.end, bytes.len());
        // Each fragment decodes independently.
        let decoded = owned_frames(&bytes[frags[1].bytes.clone()]).unwrap();
        assert_eq!(decoded.iter().map(|(_, events)| events.len()).sum::<usize>(), 60);
        assert_eq!(decoded[0].1[0].stamp, 60);
    }

    #[test]
    fn split_handles_fewer_frames_than_parts() {
        let frames = vec![(0..7).map(|s| ev(s, 0, 8)).collect::<Vec<_>>()];
        let bytes = stream_of(&frames);
        let infos = scan_frames(&bytes).unwrap();
        let frags = split_fragments(&infos, 8);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].events, 7);
        assert!(split_fragments(&[], 4).is_empty());
    }

    #[test]
    fn split_balances_uneven_frames_within_one_frame() {
        // Frame sizes 1, 1, 50, 1, 1, 50, 1, 1 — boundaries may only land
        // on frame edges, so each fragment's share must stay within one
        // frame of ideal.
        let sizes = [1usize, 1, 50, 1, 1, 50, 1, 1];
        let mut stamp = 0u64;
        let frames: Vec<Vec<FullEvent>> = sizes
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| {
                        stamp += 1;
                        ev(stamp, 0, 8)
                    })
                    .collect()
            })
            .collect();
        let bytes = stream_of(&frames);
        let infos = scan_frames(&bytes).unwrap();
        let frags = split_fragments(&infos, 2);
        assert!(frags.len() <= 2);
        assert_eq!(frags.iter().map(|f| f.events).sum::<u64>(), 106);
        let max_frame = 50u64;
        let ideal = 106u64 / 2;
        for f in &frags {
            assert!(
                f.events <= ideal + max_frame,
                "fragment of {} events exceeds ideal {ideal} by more than one frame",
                f.events
            );
        }
    }

    #[test]
    fn encode_stream_round_trips_through_fragments() {
        let events: Vec<FullEvent> = (0..123).map(|s| ev(s, (s % 3) as u16, 9)).collect();
        let bytes = encode_stream(&events, 25);
        let infos = scan_frames(&bytes).unwrap();
        assert_eq!(infos.len(), 5);
        let frags = split_fragments(&infos, 3);
        let mut round: Vec<FullEvent> = Vec::new();
        for f in &frags {
            for (_, events) in owned_frames(&bytes[f.bytes.clone()]).unwrap() {
                round.extend(events);
            }
        }
        assert_eq!(round, events);
    }
}
