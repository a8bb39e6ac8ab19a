//! The streaming drain pipeline: `drain → batch → encode → sink`.
//!
//! Continuous export of a live tracer, built on the block-granularity
//! [`StreamConsumer`](btrace_core::StreamConsumer): a drain thread polls
//! closed blocks, a batch thread folds events into bounded batches, an
//! encode thread serializes each batch into a checksummed frame, and a
//! sink thread writes frames under the same bounded [`RetryPolicy`] the
//! exporters use. Every inter-stage queue is bounded; what happens when a
//! queue fills is the [`Backpressure`] policy:
//!
//! * [`Backpressure::Block`] — the upstream stage waits. Nothing is lost,
//!   but a slow sink eventually stalls draining (never the producers:
//!   the tracer keeps recording and overwrites oldest-first, surfacing
//!   the stall as `missed_blocks`).
//! * [`Backpressure::DropAndCount`] — the item is discarded and counted,
//!   trading completeness for bounded memory and drain cadence, exactly
//!   like the exporters' drop-and-count discipline.
//!
//! Per-stage depth and throughput gauges are exported as
//! [`StageHealth`] records for telemetry snapshots (`btrace stream`
//! renders them live).

use crate::export::RetryPolicy;
use crate::fragment::probe_frame;
use crate::store::DefectKind;
use btrace_core::sink::FullEvent;
use btrace_core::BTrace;
use btrace_telemetry::{
    EventKind, ExportIoStats, FlightRecorder, Histogram, StageHealth, STAGE_NAMES,
};
use std::collections::VecDeque;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a full inter-stage queue does to the item being pushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Wait for space: lossless between stages, may stall the drain.
    Block,
    /// Discard the item and count it: bounded latency, lossy under
    /// sustained overload.
    DropAndCount,
}

/// Streaming pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// How often the drain stage polls the tracer for closed blocks.
    pub poll_interval: Duration,
    /// Maximum events per encoded frame.
    pub batch_max_events: usize,
    /// Maximum payload bytes per encoded frame (whichever limit is hit
    /// first closes the batch).
    pub batch_max_bytes: usize,
    /// Bound of each inter-stage queue, in items.
    pub queue_depth: usize,
    /// Number of drain worker threads. With `K > 1` the global
    /// block-sequence space is split into `K` disjoint stripes
    /// ([`btrace_core::ShardedStreamConsumer`]); each worker owns one
    /// stripe cursor and pushes its own poll batches, so closed blocks
    /// are parsed and handed off in parallel. Per-stripe gauges surface
    /// as extra `drain/<i>` rows in [`StreamPipeline::stage_health`].
    pub drain_threads: usize,
    /// Policy when an inter-stage queue is full.
    pub backpressure: Backpressure,
    /// Retry schedule for sink writes; exhausted retries drop the frame
    /// and count it, never wedge the pipeline.
    pub retry: RetryPolicy,
    /// Whether [`StreamPipeline::stop`] closes every core's current block
    /// and drains the remainder before shutting down.
    pub flush_on_stop: bool,
    /// Event-section layout of emitted frames; [`FrameEncoding`] has the
    /// one value, so every pipeline writes revision-2 frames.
    pub encoding: FrameEncoding,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(5),
            batch_max_events: 512,
            batch_max_bytes: 256 << 10,
            queue_depth: 8,
            drain_threads: 1,
            backpressure: Backpressure::Block,
            retry: RetryPolicy::default(),
            flush_on_stop: true,
            encoding: FrameEncoding::Compressed,
        }
    }
}

/// Where encoded frames go.
pub trait FrameSink: Send {
    /// Writes one complete frame.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures (retried under the pipeline's
    /// [`RetryPolicy`]).
    fn write_frame(&mut self, frame: &[u8]) -> io::Result<()>;

    /// Flushes buffered frames (called once at shutdown).
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Appends frames to a file.
#[derive(Debug)]
pub struct FileFrameSink {
    writer: BufWriter<std::fs::File>,
}

impl FileFrameSink {
    /// Opens `path` for appending, creating it if needed.
    ///
    /// # Errors
    ///
    /// Propagates the underlying open failure.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self { writer: BufWriter::new(file) })
    }
}

impl FrameSink for FileFrameSink {
    fn write_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        self.writer.write_all(frame)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Discards frames, counting them — the sink for throughput measurement.
#[derive(Debug, Default)]
pub struct NullFrameSink {
    frames: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

impl NullFrameSink {
    /// A counting sink plus handles to its frame and byte counters.
    pub fn new() -> (Self, Arc<AtomicU64>, Arc<AtomicU64>) {
        let sink = Self::default();
        let frames = Arc::clone(&sink.frames);
        let bytes = Arc::clone(&sink.bytes);
        (sink, frames, bytes)
    }
}

impl FrameSink for NullFrameSink {
    fn write_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

pub(crate) const FRAME_MAGIC: &[u8; 4] = b"BTSF";
/// Magic opening the per-frame index footer (see [`encode_frame`]).
pub(crate) const FOOTER_MAGIC: &[u8; 4] = b"FIDX";
/// Encoded size of the index footer: magic + min/max stamp + core bitmap +
/// event count + payload byte span.
pub(crate) const FOOTER_BYTES: usize = 4 + 8 + 8 + 8 + 4 + 8;
/// Revision-2 flag: set in the header `count` field of every frame (the
/// event section is delta/varint compressed). The real event count occupies
/// the low 31 bits, which the decode cap (`1 << 20` events) keeps far away
/// from the flag. A frame without it comes from an older or foreign writer
/// and is never decoded.
pub(crate) const FRAME_FLAG_COMPRESSED: u32 = 1 << 31;
/// Smallest whole frame: magic + `body_len` + seq + count + footer + crc.
pub(crate) const MIN_FRAME_BYTES: usize = 8 + 12 + FOOTER_BYTES + 8;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

pub(crate) fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |crc, &b| (crc ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// The event-section layout of a frame. BTSF has one layout, so this has
/// one value; it remains because [`PipelineConfig::encoding`] and
/// [`encode_frame_with`] name it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FrameEncoding {
    /// Delta/varint event section (revision 2): zigzag-varint stamp deltas,
    /// varint core/tid/payload-length, always followed by an index footer.
    #[default]
    Compressed,
}

/// LEB128-encodes `value` into `out`.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Maps a signed delta onto the varint-friendly zigzag spiral.
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Encodes one batch as a self-delimiting BTSF frame (revision 2):
///
/// ```text
/// magic "BTSF"   4 bytes
/// body_len       u32 (everything after this field, crc included)
/// seq            u64
/// count          u32 (event count | 1 << 31, the revision-2 flag)
/// events         count × { zigzag-varint(stamp − previous stamp),
///                          varint(core), varint(tid),
///                          varint(payload_len), payload bytes }
/// footer         index footer (see below)
/// crc            u64 (FNV-1a over magic..footer)
/// ```
///
/// The first stamp delta is taken from 0. The **index footer** summarizes
/// the frame for O(frames) pruning and fragment splitting without decoding
/// the events:
///
/// ```text
/// magic "FIDX"   4 bytes
/// min_stamp      u64 (u64::MAX for an empty frame)
/// max_stamp      u64 (0 for an empty frame)
/// core_bitmap    u64 (bit min(core, 63) set per producing core)
/// event_count    u32 (mirrors the header count)
/// payload_bytes  u64 (sum of raw payload lengths)
/// ```
///
/// The footer sits at a fixed offset from the frame end, inside the
/// crc-covered region; every reader requires it.
pub fn encode_frame(seq: u64, events: &[FullEvent]) -> Vec<u8> {
    let mut frame = FrameWriter::with_capacity(
        64 + FOOTER_BYTES + events.iter().map(|e| 18 + e.payload.len()).sum::<usize>(),
    );
    frame.encode(seq, events);
    frame.buf
}

/// The one frame encoder: builds a revision-2 frame (layout at
/// [`encode_frame`]) event by event in one buffer that is reused from frame
/// to frame. The header's `body_len` and count word are written as
/// placeholders by [`FrameWriter::begin`] and patched in place by
/// [`FrameWriter::finish`], so no event is staged or copied twice.
#[derive(Debug, Default)]
pub(crate) struct FrameWriter {
    buf: Vec<u8>,
    count: u32,
    prev_stamp: u64,
    min_stamp: u64,
    max_stamp: u64,
    core_bitmap: u64,
    payload_bytes: u64,
}

/// Offset of the `count` word: magic, `body_len`, seq.
const COUNT_AT: usize = 4 + 4 + 8;

impl FrameWriter {
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        Self { buf: Vec::with_capacity(bytes), ..Self::default() }
    }

    /// Starts frame `seq`, discarding whatever the buffer held.
    pub(crate) fn begin(&mut self, seq: u64) {
        self.buf.clear();
        self.buf.extend_from_slice(FRAME_MAGIC);
        self.buf.extend_from_slice(&[0; 4]); // body_len, patched by `finish`
        self.buf.extend_from_slice(&seq.to_le_bytes());
        self.buf.extend_from_slice(&[0; 4]); // count | flag, patched by `finish`
        self.count = 0;
        self.prev_stamp = 0;
        self.min_stamp = u64::MAX;
        self.max_stamp = 0;
        self.core_bitmap = 0;
        self.payload_bytes = 0;
    }

    /// Appends one event.
    #[inline]
    pub(crate) fn push(&mut self, stamp: u64, core: u16, tid: u32, payload: &[u8]) {
        let buf = &mut self.buf;
        put_varint(buf, zigzag(stamp.wrapping_sub(self.prev_stamp) as i64));
        put_varint(buf, core as u64);
        put_varint(buf, tid as u64);
        put_varint(buf, payload.len() as u64);
        buf.extend_from_slice(payload);
        self.prev_stamp = stamp;
        self.min_stamp = self.min_stamp.min(stamp);
        self.max_stamp = self.max_stamp.max(stamp);
        self.core_bitmap |= 1u64 << (core as u64).min(63);
        self.payload_bytes += payload.len() as u64;
        self.count += 1;
    }

    /// Events pushed since [`FrameWriter::begin`].
    pub(crate) fn len(&self) -> usize {
        self.count as usize
    }

    /// Encodes `events` as the whole of frame `seq` and returns its bytes.
    pub(crate) fn encode(&mut self, seq: u64, events: &[FullEvent]) -> &[u8] {
        self.begin(seq);
        for e in events {
            self.push(e.stamp, e.core, e.tid, &e.payload);
        }
        self.finish()
    }

    /// Seals the frame — footer, patched header, crc — and returns its
    /// bytes, valid until the next [`FrameWriter::begin`].
    pub(crate) fn finish(&mut self) -> &[u8] {
        let buf = &mut self.buf;
        buf.extend_from_slice(FOOTER_MAGIC);
        buf.extend_from_slice(&self.min_stamp.to_le_bytes());
        buf.extend_from_slice(&self.max_stamp.to_le_bytes());
        buf.extend_from_slice(&self.core_bitmap.to_le_bytes());
        buf.extend_from_slice(&self.count.to_le_bytes());
        buf.extend_from_slice(&self.payload_bytes.to_le_bytes());
        // `body_len` counts everything after its own field, crc included:
        // `len - 8` bytes so far plus the 8-byte crc.
        let body_len = buf.len() as u32;
        buf[4..8].copy_from_slice(&body_len.to_le_bytes());
        buf[COUNT_AT..COUNT_AT + 4]
            .copy_from_slice(&(self.count | FRAME_FLAG_COMPRESSED).to_le_bytes());
        let crc = fnv(buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }
}

/// [`encode_frame`] under the name that takes a [`FrameEncoding`]; with one
/// encoding the two are the same function.
pub fn encode_frame_with(seq: u64, events: &[FullEvent], encoding: FrameEncoding) -> Vec<u8> {
    let FrameEncoding::Compressed = encoding;
    encode_frame(seq, events)
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFrame {
    /// Frame sequence number assigned by the encode stage.
    pub seq: u64,
    /// The batch's events.
    pub events: Vec<FullEvent>,
}

/// One event decoded in place: header fields by value, payload borrowed
/// from the frame bytes it was read from (for a [`TraceStore`] read, the
/// store's mapping), so filtering and mapping an event copies nothing.
///
/// [`TraceStore`]: crate::TraceStore
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRef<'a> {
    /// Timestamp.
    pub stamp: u64,
    /// Recording core.
    pub core: u16,
    /// Thread id.
    pub tid: u32,
    /// Payload bytes, borrowed from the frame.
    pub payload: &'a [u8],
}

impl EventRef<'_> {
    /// Copies the event out of the frame.
    pub fn to_owned(&self) -> FullEvent {
        FullEvent {
            stamp: self.stamp,
            core: self.core,
            tid: self.tid,
            payload: self.payload.to_vec(),
        }
    }
}

impl<'a> From<&'a FullEvent> for EventRef<'a> {
    fn from(e: &'a FullEvent) -> Self {
        EventRef { stamp: e.stamp, core: e.core, tid: e.tid, payload: &e.payload }
    }
}

pub(crate) fn bad_data(reason: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.to_string())
}

/// Splits `n` bytes off the front of `r`.
fn take<'a>(r: &mut &'a [u8], n: usize) -> Result<&'a [u8], &'static str> {
    if r.len() < n {
        return Err("truncated frame body");
    }
    let (head, tail) = r.split_at(n);
    *r = tail;
    Ok(head)
}

/// Reads one LEB128 varint off the front of `r`.
fn read_varint(r: &mut &[u8]) -> Result<u64, &'static str> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = take(r, 1)?[0];
        let bits = (byte & 0x7f) as u64;
        if shift == 63 && bits > 1 {
            return Err("varint overflows u64");
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err("varint longer than 10 bytes")
}

/// Decodes the event section of one frame body (`r` starts right after the
/// header count and ends right before the footer). `out` is cleared first
/// and reused, so a caller decoding frame after frame allocates only while
/// its scratch grows. On error `out` may hold a prefix of the section;
/// [`validate_frame`] discards it.
fn decode_event_refs<'a>(
    r: &mut &'a [u8],
    count: usize,
    out: &mut Vec<EventRef<'a>>,
) -> Result<(), &'static str> {
    out.clear();
    out.reserve(count.min(1 << 20));
    let mut prev_stamp = 0u64;
    for _ in 0..count {
        let stamp = prev_stamp.wrapping_add(unzigzag(read_varint(r)?) as u64);
        prev_stamp = stamp;
        let core = u16::try_from(read_varint(r)?).map_err(|_| "compressed core out of range")?;
        let tid = u32::try_from(read_varint(r)?).map_err(|_| "compressed tid out of range")?;
        let payload_len = usize::try_from(read_varint(r)?)
            .map_err(|_| "compressed payload length out of range")?;
        let payload = take(r, payload_len)?;
        out.push(EventRef { stamp, core, tid, payload });
    }
    Ok(())
}

/// The one frame validator every reader shares. `frame` is a whole frame,
/// magic through crc, that already passed [`probe_frame`] (length, revision
/// flag and footer are sound). Checks run in order — FNV-1a checksum, then
/// the event section, which must end exactly at the footer — and `out`
/// holds the frame's events only once both passed: on any failure it is
/// left empty, so a defective frame contributes nothing.
///
/// [`probe_frame`]: crate::fragment::probe_frame
pub(crate) fn validate_frame<'a>(
    frame: &'a [u8],
    out: &mut Vec<EventRef<'a>>,
) -> Result<(), (DefectKind, &'static str)> {
    check_frame(frame, out).inspect_err(|_| out.clear())
}

fn check_frame<'a>(
    frame: &'a [u8],
    out: &mut Vec<EventRef<'a>>,
) -> Result<(), (DefectKind, &'static str)> {
    let len = frame.len();
    let crc_stored = u64::from_le_bytes(frame[len - 8..].try_into().expect("8 bytes"));
    if fnv(&frame[..len - 8]) != crc_stored {
        return Err((DefectKind::ChecksumMismatch, "frame checksum mismatch"));
    }
    let count =
        u32::from_le_bytes(frame[16..20].try_into().expect("4 bytes")) & !FRAME_FLAG_COMPRESSED;
    let mut r = &frame[20..len - 8 - FOOTER_BYTES];
    decode_event_refs(&mut r, count as usize, out)
        .map_err(|detail| (DefectKind::BodyOverrun, detail))?;
    if !r.is_empty() {
        return Err((DefectKind::BodyOverrun, "frame body overrun"));
    }
    Ok(())
}

/// Walks every frame in `bytes`, handing each frame's seq and events to
/// `visit` only after the frame probed and validated (see
/// [`validate_frame`]). The events borrow from `bytes` and live in one
/// scratch buffer reused across frames, so a walk allocates nothing per
/// event.
///
/// # Errors
///
/// What is wrong with the first frame that fails to probe or validate;
/// frames before it were already visited.
pub(crate) fn visit_frames<'a>(
    bytes: &'a [u8],
    mut visit: impl FnMut(u64, &[EventRef<'a>]),
) -> Result<(), &'static str> {
    let mut scratch = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let info = probe_frame(bytes, offset).map_err(|(_, detail)| detail)?;
        let frame = &bytes[offset..offset + info.len];
        validate_frame(frame, &mut scratch).map_err(|(_, detail)| detail)?;
        visit(info.seq, &scratch);
        offset += info.len;
    }
    Ok(())
}

/// Decodes every frame in `bytes` (the inverse of [`encode_frame`]) into
/// owned events.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on bad magic, truncation, a frame of
/// another revision, or a frame that fails validation — a torn stream tail
/// is corruption, not silence.
pub fn decode_frames(bytes: &[u8]) -> io::Result<Vec<StreamFrame>> {
    let mut frames = Vec::new();
    visit_frames(bytes, |seq, events| {
        frames.push(StreamFrame { seq, events: events.iter().map(EventRef::to_owned).collect() });
    })
    .map_err(bad_data)?;
    Ok(frames)
}

/// Reads a frame file written by a [`FileFrameSink`].
///
/// # Errors
///
/// I/O errors reading the file; [`io::ErrorKind::InvalidData`] on
/// corruption.
pub fn read_frames(path: impl AsRef<Path>) -> io::Result<Vec<StreamFrame>> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode_frames(&bytes)
}

/// Lock-free-readable throughput counters for one stage.
#[derive(Debug, Default)]
struct StageCounters {
    in_items: AtomicU64,
    out_items: AtomicU64,
    dropped: AtomicU64,
}

/// A bounded MPSC queue with the two backpressure disciplines.
struct Bounded<T> {
    inner: Mutex<VecDeque<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
    closed: AtomicBool,
}

impl<T> Bounded<T> {
    fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(VecDeque::with_capacity(cap)),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            cap: cap.max(1),
            closed: AtomicBool::new(false),
        }
    }

    /// Pushes under `policy`; returns `false` when the item was dropped
    /// (queue full under `DropAndCount`, or queue closed).
    fn push(&self, item: T, policy: Backpressure) -> bool {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.closed.load(Ordering::Acquire) {
                return false;
            }
            if q.len() < self.cap {
                q.push_back(item);
                self.not_empty.notify_one();
                return true;
            }
            match policy {
                Backpressure::DropAndCount => return false,
                Backpressure::Block => {
                    q = self.not_full.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Pops, waiting up to `timeout`. `None` means timeout, or closed and
    /// empty — check [`Bounded::drained`] to tell them apart.
    fn pop(&self, timeout: Duration) -> Option<T> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = q.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            let (guard, result) =
                self.not_empty.wait_timeout(q, timeout).unwrap_or_else(|e| e.into_inner());
            q = guard;
            if result.timed_out() {
                return q.pop_front();
            }
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Closed with nothing left to pop: the stage can shut down.
    fn drained(&self) -> bool {
        self.closed.load(Ordering::Acquire)
            && self.inner.lock().unwrap_or_else(|e| e.into_inner()).is_empty()
    }

    fn depth(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// Point-in-time pipeline accounting.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct PipelineStats {
    /// Per-stage gauges, pipeline order.
    pub stages: Vec<StageHealth>,
    /// Events handed off by the drain stage's polls.
    pub events_drained: u64,
    /// Events encoded into frames.
    pub events_encoded: u64,
    /// Frames written by the sink stage.
    pub frames_written: u64,
    /// Bytes written by the sink stage.
    pub bytes_written: u64,
    /// Blocks the stream lost to wrap-around (consumer fell behind).
    pub missed_blocks: u64,
    /// Sink retry/drop accounting.
    pub io: ExportIoStats,
    /// Time since the pipeline was spawned.
    pub elapsed: Duration,
}

impl PipelineStats {
    /// Events drained per second since spawn.
    pub fn drain_events_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.events_drained as f64 / secs
        } else {
            0.0
        }
    }

    /// Sink bytes per second since spawn.
    pub fn sink_bytes_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.bytes_written as f64 / secs
        } else {
            0.0
        }
    }
}

/// An item moving between stages, tagged with the **span id** that
/// follows the batch through `drain → batch → encode → sink` (the batch
/// stage folds several drained spans into one outgoing batch, which then
/// carries the oldest contributor's span) and the enqueue timestamp for
/// queue-wait accounting. The wait is measured from push *start*, so
/// time spent blocked on a full queue counts as handoff latency too.
struct Spanned<T> {
    span: u64,
    enqueued_ns: u64,
    item: T,
}

/// A blocked push shorter than this is ordinary lock/queue jitter; at or
/// above it, a [`EventKind::Backpressure`] event is recorded.
const BACKPRESSURE_NOTE_NS: u64 = 1_000_000;

/// Per-stripe accounting for one drain worker (populated only when
/// `drain_threads > 1`; the aggregate `drain` stage is always maintained).
#[derive(Debug, Default)]
struct DrainShard {
    counters: StageCounters,
    /// Poll-to-handoff latency of this stripe's batches.
    latency: Histogram,
    /// Inlet wait is structurally zero for drain (no upstream queue);
    /// kept so the per-shard row carries the same summary shape.
    queue_wait: Histogram,
    missed_blocks: AtomicU64,
}

struct Inner {
    stop: AtomicBool,
    started: Instant,
    stages: [StageCounters; 4],
    /// One entry per drain stripe when sharded, else empty.
    drain_shards: Vec<DrainShard>,
    /// Live drain workers; the last one out closes `q_batch`.
    drains_live: AtomicU64,
    /// Per-stage processing latency (span enter → exit, ns).
    latency: [Histogram; 4],
    /// Per-stage inlet queue wait (upstream push start → pop, ns).
    queue_wait: [Histogram; 4],
    /// The owning tracer's flight recorder; stage transitions land next
    /// to the tracer's own control-plane events on dedicated shards.
    recorder: Arc<FlightRecorder>,
    next_span: AtomicU64,
    missed_blocks: AtomicU64,
    bytes_written: AtomicU64,
    io_retries: AtomicU64,
    io_drops: AtomicU64,
    q_batch: Bounded<Spanned<Vec<FullEvent>>>,
    q_encode: Bounded<Spanned<Vec<FullEvent>>>,
    q_sink: Bounded<Spanned<Vec<u8>>>,
    queue_depth: usize,
}

impl Inner {
    /// A batch entered `stage`: records queue wait and the span event.
    fn enter(&self, stage: usize, span: u64, queue_wait_ns: u64) {
        self.queue_wait[stage].record(queue_wait_ns);
        self.recorder.emit(
            self.recorder.stage_shard(stage),
            EventKind::StageEnter,
            stage as u32,
            span,
            queue_wait_ns,
        );
    }

    /// A batch left `stage` (handoff included): records stage latency.
    fn exit(&self, stage: usize, span: u64, elapsed_ns: u64) {
        self.latency[stage].record(elapsed_ns);
        self.recorder.emit(
            self.recorder.stage_shard(stage),
            EventKind::StageExit,
            stage as u32,
            span,
            elapsed_ns,
        );
    }

    /// `stage` shed `items` of span `span` under `DropAndCount`.
    fn shed(&self, stage: usize, span: u64, items: u64) {
        self.recorder.emit(
            self.recorder.stage_shard(stage),
            EventKind::StageDrop,
            stage as u32,
            span,
            items,
        );
    }

    /// A push out of `stage` blocked long enough to matter.
    fn note_backpressure(&self, stage: usize, span: u64, waited_ns: u64) {
        if waited_ns >= BACKPRESSURE_NOTE_NS {
            self.recorder.emit(
                self.recorder.stage_shard(stage),
                EventKind::Backpressure,
                stage as u32,
                span,
                waited_ns,
            );
        }
    }
}

/// A running `drain → batch → encode → sink` pipeline.
///
/// Spawn with [`StreamPipeline::spawn`], observe with
/// [`stats`](StreamPipeline::stats) /
/// [`stage_health`](StreamPipeline::stage_health), and shut down with
/// [`stop`](StreamPipeline::stop) — which (by default) closes every
/// core's current block and drains the remainder, so a stopped pipeline
/// has exported every confirmed record exactly once, minus reported
/// misses and backpressure drops.
#[derive(Debug)]
pub struct StreamPipeline {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner").field("elapsed", &self.started.elapsed()).finish()
    }
}

impl StreamPipeline {
    /// Spawns the stage threads against `tracer` — `drain_threads` stripe
    /// drain workers plus batch, encode, and sink — writing frames to
    /// `sink`.
    pub fn spawn(
        tracer: Arc<BTrace>,
        sink: Box<dyn FrameSink>,
        config: PipelineConfig,
    ) -> StreamPipeline {
        let drains = config.drain_threads.max(1);
        let inner = Arc::new(Inner {
            stop: AtomicBool::new(false),
            started: Instant::now(),
            stages: Default::default(),
            drain_shards: if drains > 1 {
                (0..drains).map(|_| DrainShard::default()).collect()
            } else {
                Vec::new()
            },
            drains_live: AtomicU64::new(drains as u64),
            latency: Default::default(),
            queue_wait: Default::default(),
            recorder: tracer.flight_recorder(),
            next_span: AtomicU64::new(0),
            missed_blocks: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            io_retries: AtomicU64::new(0),
            io_drops: AtomicU64::new(0),
            q_batch: Bounded::new(config.queue_depth),
            q_encode: Bounded::new(config.queue_depth),
            q_sink: Bounded::new(config.queue_depth),
            queue_depth: config.queue_depth,
        });

        let mut threads: Vec<_> = tracer
            .stream_sharded(drains)
            .into_shards()
            .into_iter()
            .enumerate()
            .map(|(idx, shard)| spawn_drain(Arc::clone(&inner), shard, idx, config.clone()))
            .collect();
        threads.push(spawn_batch(Arc::clone(&inner), config.clone()));
        threads.push(spawn_encode(Arc::clone(&inner), config.clone()));
        threads.push(spawn_sink(Arc::clone(&inner), sink, config));
        StreamPipeline { inner, threads }
    }

    /// Per-stage gauges in pipeline order, as telemetry records. When the
    /// drain is sharded (`drain_threads > 1`), one `drain/<i>` row per
    /// stripe follows the four aggregate stages, flowing into the same
    /// snapshot/Prometheus surface (the stage name is the label).
    pub fn stage_health(&self) -> Vec<StageHealth> {
        let inner = &self.inner;
        let depths = [0, inner.q_batch.depth(), inner.q_encode.depth(), inner.q_sink.depth()];
        let caps = [0, inner.queue_depth, inner.queue_depth, inner.queue_depth];
        let mut rows: Vec<StageHealth> = STAGE_NAMES
            .iter()
            .enumerate()
            .zip(inner.stages.iter())
            .zip(depths.iter().zip(caps.iter()))
            .map(|(((i, name), c), (&depth, &capacity))| StageHealth {
                stage: (*name).to_string(),
                depth,
                capacity,
                in_items: c.in_items.load(Ordering::Relaxed),
                out_items: c.out_items.load(Ordering::Relaxed),
                dropped: c.dropped.load(Ordering::Relaxed),
                latency: inner.latency[i].snapshot().summary(),
                queue_wait: inner.queue_wait[i].snapshot().summary(),
            })
            .collect();
        for (i, shard) in inner.drain_shards.iter().enumerate() {
            rows.push(StageHealth {
                stage: format!("drain/{i}"),
                depth: 0,
                capacity: 0,
                in_items: shard.counters.in_items.load(Ordering::Relaxed),
                out_items: shard.counters.out_items.load(Ordering::Relaxed),
                dropped: shard.counters.dropped.load(Ordering::Relaxed),
                latency: shard.latency.snapshot().summary(),
                queue_wait: shard.queue_wait.snapshot().summary(),
            });
        }
        rows
    }

    /// Snapshot of the pipeline's cumulative accounting.
    pub fn stats(&self) -> PipelineStats {
        let inner = &self.inner;
        PipelineStats {
            stages: self.stage_health(),
            events_drained: inner.stages[0].in_items.load(Ordering::Relaxed),
            events_encoded: inner.stages[2].in_items.load(Ordering::Relaxed),
            frames_written: inner.stages[3].out_items.load(Ordering::Relaxed),
            bytes_written: inner.bytes_written.load(Ordering::Relaxed),
            missed_blocks: inner.missed_blocks.load(Ordering::Relaxed),
            io: ExportIoStats {
                retries: inner.io_retries.load(Ordering::Relaxed),
                drops: inner.io_drops.load(Ordering::Relaxed),
            },
            elapsed: inner.started.elapsed(),
        }
    }

    /// Stops the pipeline: final flush (per configuration), stage-by-stage
    /// queue close, join, and a last stats snapshot.
    pub fn stop(mut self) -> PipelineStats {
        self.inner.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.stats()
    }
}

fn spawn_drain(
    inner: Arc<Inner>,
    mut shard: btrace_core::StreamShard,
    idx: usize,
    config: PipelineConfig,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("btrace-stream-drain-{idx}"))
        .spawn(move || {
            let push_events = |batch: btrace_core::DrainedBatch| {
                let stage = &inner.stages[0];
                let per_shard = inner.drain_shards.get(idx);
                inner.missed_blocks.fetch_add(batch.missed_blocks as u64, Ordering::Relaxed);
                if let Some(s) = per_shard {
                    s.missed_blocks.fetch_add(batch.missed_blocks as u64, Ordering::Relaxed);
                }
                if batch.events.is_empty() {
                    return;
                }
                // Each non-empty poll opens a new span that the batch it
                // produced carries through the rest of the pipeline. Span
                // ids are allocated from the shared counter, so spans stay
                // unique across stripes.
                let span = inner.next_span.fetch_add(1, Ordering::Relaxed) + 1;
                let t0 = inner.recorder.now_ns();
                inner.enter(0, span, 0);
                let events: Vec<FullEvent> = batch
                    .events
                    .into_iter()
                    .map(|e| FullEvent {
                        stamp: e.stamp(),
                        core: e.core() as u16,
                        tid: e.tid(),
                        payload: e.into_payload(),
                    })
                    .collect();
                let n = events.len() as u64;
                stage.in_items.fetch_add(n, Ordering::Relaxed);
                if let Some(s) = per_shard {
                    s.counters.in_items.fetch_add(n, Ordering::Relaxed);
                }
                let enqueued_ns = inner.recorder.now_ns();
                let pushed = inner
                    .q_batch
                    .push(Spanned { span, enqueued_ns, item: events }, config.backpressure);
                let now = inner.recorder.now_ns();
                inner.note_backpressure(0, span, now.saturating_sub(enqueued_ns));
                if pushed {
                    stage.out_items.fetch_add(n, Ordering::Relaxed);
                    if let Some(s) = per_shard {
                        s.counters.out_items.fetch_add(n, Ordering::Relaxed);
                        s.latency.record(now.saturating_sub(t0));
                    }
                    inner.exit(0, span, now.saturating_sub(t0));
                } else {
                    stage.dropped.fetch_add(n, Ordering::Relaxed);
                    if let Some(s) = per_shard {
                        s.counters.dropped.fetch_add(n, Ordering::Relaxed);
                    }
                    inner.shed(0, span, n);
                }
            };
            while !inner.stop.load(Ordering::Acquire) {
                push_events(shard.poll());
                std::thread::sleep(config.poll_interval);
            }
            if config.flush_on_stop {
                // Every stripe closes the whole readable window (the CAS
                // close is idempotent across stripes) and then drains its
                // own remainder, so the union of final polls covers
                // everything recorded before the last worker's close.
                push_events(shard.flush_close());
            }
            // The batch stage outlives the drain until the *last* stripe
            // has flushed.
            if inner.drains_live.fetch_sub(1, Ordering::AcqRel) == 1 {
                inner.q_batch.close();
            }
        })
        .expect("spawn drain stage")
}

fn spawn_batch(inner: Arc<Inner>, config: PipelineConfig) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("btrace-stream-batch".into())
        .spawn(move || {
            let stage = &inner.stages[1];
            let mut pending: Vec<FullEvent> = Vec::new();
            let mut pending_bytes = 0usize;
            // The span the pending batch will carry (its oldest
            // contributor's) and when that contributor entered the stage,
            // for fold latency.
            let mut pending_span = 0u64;
            let mut pending_since_ns = 0u64;
            let flush = |pending: &mut Vec<FullEvent>,
                         pending_bytes: &mut usize,
                         span: u64,
                         since_ns: u64| {
                if pending.is_empty() {
                    return;
                }
                let batch = std::mem::take(pending);
                *pending_bytes = 0;
                let enqueued_ns = inner.recorder.now_ns();
                let pushed = inner
                    .q_encode
                    .push(Spanned { span, enqueued_ns, item: batch }, config.backpressure);
                let now = inner.recorder.now_ns();
                inner.note_backpressure(1, span, now.saturating_sub(enqueued_ns));
                if pushed {
                    stage.out_items.fetch_add(1, Ordering::Relaxed);
                    inner.exit(1, span, now.saturating_sub(since_ns));
                } else {
                    stage.dropped.fetch_add(1, Ordering::Relaxed);
                    inner.shed(1, span, 1);
                }
            };
            let idle = config.poll_interval.max(Duration::from_millis(10));
            loop {
                match inner.q_batch.pop(idle) {
                    Some(spanned) => {
                        let now = inner.recorder.now_ns();
                        inner.enter(1, spanned.span, now.saturating_sub(spanned.enqueued_ns));
                        stage.in_items.fetch_add(spanned.item.len() as u64, Ordering::Relaxed);
                        for e in spanned.item {
                            if pending.is_empty() {
                                pending_span = spanned.span;
                                pending_since_ns = inner.recorder.now_ns();
                            }
                            pending_bytes += e.payload.len();
                            pending.push(e);
                            if pending.len() >= config.batch_max_events
                                || pending_bytes >= config.batch_max_bytes
                            {
                                flush(
                                    &mut pending,
                                    &mut pending_bytes,
                                    pending_span,
                                    pending_since_ns,
                                );
                            }
                        }
                    }
                    None => {
                        // Timeout or upstream closed: ship the partial
                        // batch so low-rate streams still make progress.
                        flush(&mut pending, &mut pending_bytes, pending_span, pending_since_ns);
                        if inner.q_batch.drained() {
                            break;
                        }
                    }
                }
            }
            inner.q_encode.close();
        })
        .expect("spawn batch stage")
}

fn spawn_encode(inner: Arc<Inner>, config: PipelineConfig) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("btrace-stream-encode".into())
        .spawn(move || {
            let stage = &inner.stages[2];
            let mut seq = 0u64;
            loop {
                match inner.q_encode.pop(Duration::from_millis(50)) {
                    Some(spanned) => {
                        let t0 = inner.recorder.now_ns();
                        inner.enter(2, spanned.span, t0.saturating_sub(spanned.enqueued_ns));
                        stage.in_items.fetch_add(spanned.item.len() as u64, Ordering::Relaxed);
                        let frame = encode_frame(seq, &spanned.item);
                        seq += 1;
                        let enqueued_ns = inner.recorder.now_ns();
                        let pushed = inner.q_sink.push(
                            Spanned { span: spanned.span, enqueued_ns, item: frame },
                            config.backpressure,
                        );
                        let now = inner.recorder.now_ns();
                        inner.note_backpressure(2, spanned.span, now.saturating_sub(enqueued_ns));
                        if pushed {
                            stage.out_items.fetch_add(1, Ordering::Relaxed);
                            inner.exit(2, spanned.span, now.saturating_sub(t0));
                        } else {
                            stage.dropped.fetch_add(1, Ordering::Relaxed);
                            inner.shed(2, spanned.span, 1);
                        }
                    }
                    None => {
                        if inner.q_encode.drained() {
                            break;
                        }
                    }
                }
            }
            inner.q_sink.close();
        })
        .expect("spawn encode stage")
}

fn spawn_sink(
    inner: Arc<Inner>,
    mut sink: Box<dyn FrameSink>,
    config: PipelineConfig,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("btrace-stream-sink".into())
        .spawn(move || {
            let stage = &inner.stages[3];
            loop {
                match inner.q_sink.pop(Duration::from_millis(50)) {
                    Some(spanned) => {
                        let t0 = inner.recorder.now_ns();
                        inner.enter(3, spanned.span, t0.saturating_sub(spanned.enqueued_ns));
                        stage.in_items.fetch_add(1, Ordering::Relaxed);
                        let frame = &spanned.item;
                        let mut io = ExportIoStats::default();
                        let wrote = config.retry.run(&mut io, || sink.write_frame(frame));
                        let retries =
                            inner.io_retries.fetch_add(io.retries, Ordering::Relaxed) + io.retries;
                        let drops =
                            inner.io_drops.fetch_add(io.drops, Ordering::Relaxed) + io.drops;
                        if io.retries > 0 {
                            inner.recorder.emit(
                                inner.recorder.stage_shard(3),
                                EventKind::ExportRetry,
                                3,
                                retries,
                                io.retries,
                            );
                        }
                        if io.drops > 0 {
                            inner.recorder.emit(
                                inner.recorder.stage_shard(3),
                                EventKind::ExportDrop,
                                3,
                                drops,
                                io.drops,
                            );
                        }
                        if wrote.is_ok() {
                            stage.out_items.fetch_add(1, Ordering::Relaxed);
                            inner.bytes_written.fetch_add(frame.len() as u64, Ordering::Relaxed);
                            inner.exit(3, spanned.span, inner.recorder.now_ns().saturating_sub(t0));
                        } else {
                            // Retries exhausted: the frame is dropped and
                            // counted, the pipeline never wedges.
                            stage.dropped.fetch_add(1, Ordering::Relaxed);
                            inner.shed(3, spanned.span, 1);
                        }
                    }
                    None => {
                        if inner.q_sink.drained() {
                            break;
                        }
                    }
                }
            }
            let _ = sink.flush();
        })
        .expect("spawn sink stage")
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrace_core::Config;

    fn tracer() -> Arc<BTrace> {
        // 512 blocks: the full-fidelity tests fit without wrap-around, so
        // exactly-once is checkable without a miss budget.
        Arc::new(
            BTrace::new(Config::new(2).active_blocks(8).block_bytes(512).buffer_bytes(512 * 512))
                .expect("valid configuration"),
        )
    }

    fn quick() -> PipelineConfig {
        PipelineConfig { poll_interval: Duration::from_millis(1), ..PipelineConfig::default() }
    }

    fn sample_events(n: u64) -> Vec<FullEvent> {
        (0..n)
            .map(|i| FullEvent {
                stamp: i,
                core: (i % 4) as u16,
                tid: (i % 7) as u32,
                payload: format!("payload-{i}").into_bytes(),
            })
            .collect()
    }

    #[test]
    fn frame_roundtrip() {
        let events = sample_events(100);
        let mut bytes = encode_frame(3, &events[..60]);
        bytes.extend_from_slice(&encode_frame(4, &events[60..]));
        let frames = decode_frames(&bytes).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].seq, 3);
        assert_eq!(frames[0].events, events[..60]);
        assert_eq!(frames[1].events, events[60..]);
    }

    #[test]
    fn frame_corruption_is_detected() {
        let mut bytes = encode_frame(0, &sample_events(10));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert_eq!(decode_frames(&bytes).unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(decode_frames(b"junk!").unwrap_err().kind(), io::ErrorKind::InvalidData);
        let whole = encode_frame(0, &sample_events(10));
        assert_eq!(
            decode_frames(&whole[..whole.len() - 3]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn pipeline_exports_every_event_exactly_once() {
        let t = tracer();
        let (sink, frames) = collecting_sink();
        let pipeline = StreamPipeline::spawn(Arc::clone(&t), Box::new(sink), quick());
        let writers: Vec<_> = (0..2)
            .map(|core| {
                let p = t.producer(core).unwrap();
                std::thread::spawn(move || {
                    for i in 0..3_000u64 {
                        p.record_with(core as u64 * 100_000 + i, 0, b"streamed payload").unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let stats = pipeline.stop();
        assert_eq!(stats.missed_blocks, 0, "512-block buffer holds the whole run");
        assert_eq!(stats.io, ExportIoStats::default());

        let mut stamps: Vec<u64> = Vec::new();
        for frame in decode_frames(&frames.lock().unwrap()).unwrap() {
            stamps.extend(frame.events.iter().map(|e| e.stamp));
        }
        let total = stamps.len();
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), total, "no duplicates across frames");
        let expected: Vec<u64> = (0..3_000u64).chain(100_000..103_000).collect();
        assert_eq!(stamps, expected, "every confirmed record exported exactly once");
        assert_eq!(stats.events_drained, 6_000);
    }

    #[test]
    fn drop_and_count_sheds_load_without_wedging() {
        let t = tracer();
        let p = t.producer(0).unwrap();
        let config = PipelineConfig {
            poll_interval: Duration::from_millis(1),
            queue_depth: 1,
            backpressure: Backpressure::DropAndCount,
            retry: RetryPolicy { attempts: 1, backoff: Duration::from_micros(1) },
            ..PipelineConfig::default()
        };
        let pipeline = StreamPipeline::spawn(Arc::clone(&t), Box::new(StallingSink), config);
        for i in 0..20_000u64 {
            p.record_with(i, 0, b"pressure").unwrap();
        }
        let stats = pipeline.stop();
        let total_dropped: u64 = stats.stages.iter().map(|s| s.dropped).sum();
        // The stalling sink forces shedding somewhere upstream; the exact
        // stage depends on timing, but the pipeline must terminate and
        // account for what it shed.
        assert!(total_dropped + stats.io.drops > 0, "stalled sink must shed: {stats:?}");
    }

    #[test]
    fn stage_health_names_and_bounds() {
        let t = tracer();
        let pipeline =
            StreamPipeline::spawn(Arc::clone(&t), Box::new(NullFrameSink::default()), quick());
        let health = pipeline.stage_health();
        assert_eq!(
            health.iter().map(|s| s.stage.as_str()).collect::<Vec<_>>(),
            vec!["drain", "batch", "encode", "sink"]
        );
        assert!(health.iter().skip(1).all(|s| s.capacity == 8));
        pipeline.stop();
    }

    #[test]
    fn sharded_pipeline_exports_every_event_exactly_once() {
        let t = tracer();
        let (sink, frames) = collecting_sink();
        let config = PipelineConfig { drain_threads: 4, ..quick() };
        let pipeline = StreamPipeline::spawn(Arc::clone(&t), Box::new(sink), config);
        let writers: Vec<_> = (0..2)
            .map(|core| {
                let p = t.producer(core).unwrap();
                std::thread::spawn(move || {
                    for i in 0..3_000u64 {
                        p.record_with(core as u64 * 100_000 + i, 0, b"streamed payload").unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let stats = pipeline.stop();
        assert_eq!(stats.missed_blocks, 0, "512-block buffer holds the whole run");

        let mut stamps: Vec<u64> = Vec::new();
        for frame in decode_frames(&frames.lock().unwrap()).unwrap() {
            stamps.extend(frame.events.iter().map(|e| e.stamp));
        }
        let total = stamps.len();
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), total, "no duplicates across stripes or frames");
        let expected: Vec<u64> = (0..3_000u64).chain(100_000..103_000).collect();
        assert_eq!(stamps, expected, "union of stripes exports every record exactly once");
        assert_eq!(stats.events_drained, 6_000);
    }

    #[test]
    fn sharded_stage_health_appends_per_stripe_rows() {
        let t = tracer();
        let p = t.producer(0).unwrap();
        let config = PipelineConfig { drain_threads: 3, ..quick() };
        let pipeline =
            StreamPipeline::spawn(Arc::clone(&t), Box::new(NullFrameSink::default()), config);
        for i in 0..2_000u64 {
            p.record_with(i, 0, b"sharded health").unwrap();
        }
        let stats = pipeline.stop();
        let names: Vec<&str> = stats.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            names,
            vec!["drain", "batch", "encode", "sink", "drain/0", "drain/1", "drain/2"],
            "aggregate stages first, then one row per stripe"
        );
        let aggregate_in = stats.stages[0].in_items;
        let striped_in: u64 =
            stats.stages.iter().filter(|s| s.stage.starts_with("drain/")).map(|s| s.in_items).sum();
        assert_eq!(striped_in, aggregate_in, "stripe rows partition the aggregate drain");
        assert_eq!(aggregate_in, 2_000);
    }

    #[test]
    fn pipeline_records_span_events_for_every_stage() {
        let t = tracer();
        let p = t.producer(0).unwrap();
        let pipeline =
            StreamPipeline::spawn(Arc::clone(&t), Box::new(NullFrameSink::default()), quick());
        for i in 0..2_000u64 {
            p.record_with(i, 0, b"span me").unwrap();
        }
        let stats = pipeline.stop();
        assert!(stats.frames_written > 0);

        let snap = t.flight_recorder().snapshot();
        for stage in 0..4u32 {
            let enters = snap
                .events
                .iter()
                .filter(|e| e.kind == EventKind::StageEnter && e.source == stage)
                .count();
            let exits: Vec<u64> = snap
                .events
                .iter()
                .filter(|e| e.kind == EventKind::StageExit && e.source == stage)
                .map(|e| e.a)
                .collect();
            assert!(enters > 0, "stage {stage} recorded no StageEnter events");
            assert!(!exits.is_empty(), "stage {stage} recorded no StageExit events");
            assert!(exits.iter().all(|&span| span > 0), "span ids start at 1");
        }
        // Every frame the sink wrote exited the sink stage under a span.
        let sink_exits =
            snap.events.iter().filter(|e| e.kind == EventKind::StageExit && e.source == 3).count()
                as u64;
        assert_eq!(sink_exits, stats.frames_written);

        // The fold latencies surfaced in stage health.
        for s in &stats.stages {
            assert!(s.latency.count > 0, "stage {} has no latency samples", s.stage);
        }
        // Queued stages (everything after drain) saw queue waits.
        for s in stats.stages.iter().skip(1) {
            assert!(s.queue_wait.count > 0, "stage {} has no queue-wait samples", s.stage);
        }
    }

    #[test]
    fn file_sink_roundtrips_through_read_frames() {
        let dir = std::env::temp_dir().join(format!("btrace-stream-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.btsf");
        let t = tracer();
        let p = t.producer(0).unwrap();
        let pipeline = StreamPipeline::spawn(
            Arc::clone(&t),
            Box::new(FileFrameSink::create(&path).unwrap()),
            quick(),
        );
        for i in 0..500u64 {
            p.record_with(i, 7, b"to disk").unwrap();
        }
        let stats = pipeline.stop();
        assert!(stats.frames_written > 0);
        let frames = read_frames(&path).unwrap();
        let events: Vec<&FullEvent> = frames.iter().flat_map(|f| f.events.iter()).collect();
        assert_eq!(events.len(), 500);
        assert!(events.iter().all(|e| e.payload == b"to disk" && e.tid == 7));
        // Frame sequence numbers are contiguous from zero.
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sink that appends raw frame bytes to shared memory.
    fn collecting_sink() -> (VecSink, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (VecSink { buf: Arc::clone(&buf) }, buf)
    }

    struct VecSink {
        buf: Arc<Mutex<Vec<u8>>>,
    }

    impl FrameSink for VecSink {
        fn write_frame(&mut self, frame: &[u8]) -> io::Result<()> {
            self.buf.lock().unwrap().extend_from_slice(frame);
            Ok(())
        }
    }

    /// A sink that always fails, simulating an unwritable device.
    struct StallingSink;

    impl FrameSink for StallingSink {
        fn write_frame(&mut self, _frame: &[u8]) -> io::Result<()> {
            Err(io::Error::other("device unavailable"))
        }
    }
}
