//! The on-disk dump format: a short checksummed label header followed by
//! a BTSF stream.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "BTDUMP02"                      8 bytes
//! label   u16 length + UTF-8 bytes (cut to 65 535 bytes at a char boundary)
//! count   u64 events in the frames below
//! crc     u64 (FNV-1a over magic..count)
//! frames  revision-2 BTSF frames of 512 events, seq from 0
//! ```
//!
//! The frame section is an ordinary BTSF stream, so a dump opens in place
//! through [`TraceStore`](crate::TraceStore), which skips a valid header.

use crate::fragment::write_stream;
use crate::stream::{fnv, visit_frames, EventRef, FrameWriter};
use btrace_core::sink::{FullEvent, TraceSink};
use btrace_core::RingSnapshot;
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"BTDUMP02";
/// Events per frame in the dump's frame section.
const EVENTS_PER_FRAME: usize = 512;

/// A self-contained snapshot of a drained trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDump {
    label: String,
    events: Vec<FullEvent>,
}

impl TraceDump {
    /// Drains `sink` into a labelled dump.
    pub fn capture<S: TraceSink>(label: &str, sink: &S) -> Self {
        Self { label: label.to_string(), events: sink.drain_full() }
    }

    /// Builds a dump from already-drained events.
    pub fn from_events(label: &str, events: Vec<FullEvent>) -> Self {
        Self { label: label.to_string(), events }
    }

    /// The dump's label (symptom identifier, timestamp, …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The captured events.
    pub fn events(&self) -> &[FullEvent] {
        &self.events
    }

    /// Consumes the dump, yielding the events without re-copying their
    /// payloads — pair with [`TraceDump::from_events`] to move a batch
    /// through capture → analysis without a per-event copy.
    pub fn into_events(self) -> Vec<FullEvent> {
        self.events
    }

    /// Serializes to `path` (atomically: write + rename), one frame at a
    /// time. A label longer than 65 535 bytes is cut at the last char
    /// boundary before that limit.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_to(&self, path: &Path) -> Result<(), DumpError> {
        write_atomically(path, &self.label, self.events.len() as u64, |w| {
            write_stream(w, &self.events, EVENTS_PER_FRAME)
        })
    }

    /// Deserializes from `path`: verifies the header checksum, then every
    /// frame, then that the frame seqs run from 0 without a gap and that
    /// the frames hold exactly the header's event count (which catches a
    /// file cut at a frame boundary).
    ///
    /// # Errors
    ///
    /// [`DumpError::Format`] on a corrupted or foreign file; I/O errors
    /// propagate.
    pub fn read_from(path: &Path) -> Result<Self, DumpError> {
        let bytes = std::fs::read(path)?;
        let header = parse_header(&bytes)?;
        let mut events = Vec::with_capacity(header.events.min(1 << 20) as usize);
        let mut next_seq = 0u64;
        let mut contiguous = true;
        visit_frames(&bytes[header.len..], |seq, frame| {
            contiguous &= seq == next_seq;
            next_seq += 1;
            events.extend(frame.iter().map(EventRef::to_owned));
        })
        .map_err(DumpError::Format)?;
        if !contiguous {
            return Err(DumpError::Format("frame seqs are not contiguous from 0"));
        }
        if events.len() as u64 != header.events {
            return Err(DumpError::Format("frames do not hold the header's event count"));
        }
        Ok(Self { label: header.label.to_string(), events })
    }
}

/// Writes `snapshot` to `path` as a dump labelled `label` — the file
/// [`TraceDump::capture`] + [`TraceDump::write_to`] would write for the same
/// ring, byte for byte, without copying out a single event: the header
/// takes the event count from [`RingSnapshot::count`], and one reused frame
/// buffer encodes 512-event frames straight from the snapshot's borrowed
/// entries. Atomic like [`TraceDump::write_to`] (write + rename), and it
/// only reads the snapshot, so a failed write can be retried from it.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_snapshot(path: &Path, label: &str, snapshot: &RingSnapshot) -> Result<(), DumpError> {
    write_atomically(path, label, snapshot.count() as u64, |w| {
        let mut frame = FrameWriter::default();
        let mut seq = 0;
        frame.begin(seq);
        snapshot.try_for_each(|e| {
            frame.push(e.stamp, e.core.into(), e.tid, e.payload);
            if frame.len() == EVENTS_PER_FRAME {
                w.write_all(frame.finish())?;
                seq += 1;
                frame.begin(seq);
            }
            Ok::<(), io::Error>(())
        })?;
        if frame.len() > 0 {
            w.write_all(frame.finish())?;
        }
        Ok(())
    })
}

/// Writes the header for `events` events and then `frames` to `path.tmp`,
/// and renames it onto `path` once everything is flushed.
fn write_atomically(
    path: &Path,
    label: &str,
    events: u64,
    frames: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), DumpError> {
    let tmp = path.with_extension("tmp");
    {
        let mut w = BufWriter::new(File::create(&tmp)?);
        w.write_all(&encode_header(label, events))?;
        frames(&mut w)?;
        w.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// A parsed, checksum-verified dump header.
#[derive(Debug)]
pub(crate) struct Header<'a> {
    pub(crate) label: &'a str,
    /// Events the frame section holds.
    pub(crate) events: u64,
    /// Header length in bytes: the frame section starts here.
    pub(crate) len: usize,
}

fn encode_header(label: &str, events: u64) -> Vec<u8> {
    let label = &label[..label.floor_char_boundary(u16::MAX as usize)];
    let mut header = MAGIC.to_vec();
    header.extend_from_slice(&(label.len() as u16).to_le_bytes());
    header.extend_from_slice(label.as_bytes());
    header.extend_from_slice(&events.to_le_bytes());
    let crc = fnv(&header);
    header.extend_from_slice(&crc.to_le_bytes());
    header
}

/// Parses the dump header at the start of `bytes` — the one parser behind
/// [`TraceDump::read_from`] and the [`TraceStore`](crate::TraceStore) scan.
pub(crate) fn parse_header(bytes: &[u8]) -> Result<Header<'_>, DumpError> {
    if !bytes.starts_with(MAGIC) {
        return Err(DumpError::Format("bad magic"));
    }
    let truncated = || DumpError::Format("truncated header");
    let label_len = bytes.get(8..10).ok_or_else(truncated)?;
    let len = 10 + u16::from_le_bytes([label_len[0], label_len[1]]) as usize + 16;
    let header = bytes.get(..len).ok_or_else(truncated)?;
    let crc = u64::from_le_bytes(header[len - 8..].try_into().expect("8 bytes"));
    if fnv(&header[..len - 8]) != crc {
        return Err(DumpError::Format("header checksum mismatch"));
    }
    let label = std::str::from_utf8(&header[10..len - 16])
        .map_err(|_| DumpError::Format("label is not utf-8"))?;
    let events = u64::from_le_bytes(header[len - 16..len - 8].try_into().expect("8 bytes"));
    Ok(Header { label, events, len })
}

/// Failure to read or write a dump.
#[derive(Debug)]
#[non_exhaustive]
pub enum DumpError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a valid dump.
    Format(&'static str),
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DumpError::Io(e) => write!(f, "dump i/o failed: {e}"),
            DumpError::Format(what) => write!(f, "invalid dump file: {what}"),
        }
    }
}

impl Error for DumpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DumpError::Io(e) => Some(e),
            DumpError::Format(_) => None,
        }
    }
}

impl From<io::Error> for DumpError {
    fn from(e: io::Error) -> Self {
        DumpError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("btrace-persist-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn sample_events(n: u64) -> Vec<FullEvent> {
        (0..n)
            .map(|i| FullEvent {
                stamp: i,
                core: (i % 12) as u16,
                tid: (i % 31) as u32,
                payload: format!("event #{i}").into_bytes(),
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("a.btd");
        let dump = TraceDump::from_events("boot-anr", sample_events(500));
        dump.write_to(&path).expect("write");
        let restored = TraceDump::read_from(&path).expect("read");
        assert_eq!(restored, dump);
        assert_eq!(restored.label(), "boot-anr");
        assert_eq!(restored.into_events(), dump.into_events());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dump_roundtrips() {
        let dir = tmpdir("empty");
        let path = dir.join("e.btd");
        let dump = TraceDump::from_events("nothing", vec![]);
        dump.write_to(&path).expect("write");
        assert_eq!(TraceDump::read_from(&path).expect("read").events().len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tmpdir("corrupt");
        let path = dir.join("c.btd");
        TraceDump::from_events("x", sample_events(50)).write_to(&path).expect("write");
        let mut bytes = std::fs::read(&path).expect("read file");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite");
        match TraceDump::read_from(&path) {
            Err(DumpError::Format(_)) => {}
            other => panic!("corruption must be detected, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn long_multibyte_label_is_cut_at_a_char_boundary() {
        let dir = tmpdir("utf8-label");
        let path = dir.join("l.btd");
        // 80 000 bytes: the 65 535-byte limit falls inside an `é`.
        TraceDump::from_events(&"é".repeat(40_000), sample_events(3))
            .write_to(&path)
            .expect("write");
        let restored = TraceDump::read_from(&path).expect("read");
        assert_eq!(restored.label(), "é".repeat(32_767));
        assert_eq!(restored.events(), sample_events(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cut_at_a_frame_boundary_is_a_format_error() {
        let dir = tmpdir("frame-cut");
        let path = dir.join("t.btd");
        TraceDump::from_events("x", sample_events(1500)).write_to(&path).expect("write");
        let bytes = std::fs::read(&path).expect("read file");
        // Drop the last of the three frames: every remaining frame is whole
        // and checksummed, so only the header's event count catches it.
        let header = parse_header(&bytes).expect("valid header").len;
        let frames = crate::scan_frames(&bytes[header..]).expect("frames scan");
        assert_eq!(frames.len(), 3);
        std::fs::write(&path, &bytes[..header + frames[2].offset]).expect("rewrite");
        match TraceDump::read_from(&path) {
            Err(DumpError::Format(_)) => {}
            other => panic!("truncation must be detected, got {other:?}"),
        }
        // The tolerant store still reads both frames, and names the cut.
        let store = crate::TraceStore::open(&path).expect("open");
        assert_eq!(store.total_events(), 1024);
        assert_eq!(store.defects().len(), 1);
        assert_eq!(store.defects()[0].kind, crate::DefectKind::Truncated);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_bit_flip_is_a_format_error() {
        let dir = tmpdir("header-flip");
        let path = dir.join("h.btd");
        TraceDump::from_events("boot-anr", sample_events(20)).write_to(&path).expect("write");
        let clean = std::fs::read(&path).expect("read file");
        let header = parse_header(&clean).expect("valid header").len;
        for at in 8..header {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            std::fs::write(&path, &bytes).expect("rewrite");
            match TraceDump::read_from(&path) {
                Err(DumpError::Format(_)) => {}
                other => panic!("flip at byte {at} must be detected, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_file_rejected() {
        let dir = tmpdir("foreign");
        let path = dir.join("f.btd");
        std::fs::write(&path, b"this is not a dump at all").expect("write");
        assert!(matches!(TraceDump::read_from(&path), Err(DumpError::Format("bad magic"))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = std::env::temp_dir().join("btrace-does-not-exist.btd");
        assert!(matches!(TraceDump::read_from(&path), Err(DumpError::Io(_))));
    }
}
