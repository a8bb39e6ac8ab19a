//! The flight recorder: a bounded, lock-free ring of control-plane events.
//!
//! `HealthSnapshot` answers *what is the tracer's state now*; the flight
//! recorder answers *what happened and when*. Every interesting state
//! transition — resize begin/retry/fallback/commit, injected faults,
//! `TracerState` bit flips, skip storms, stream-stage spans
//! and drops, export retries — is emitted as a fixed-size typed event
//! into a per-shard ring that overwrites oldest, so the last few thousand
//! control-plane events are always available for forensics at a fixed
//! memory cost and without ever blocking the paths being observed.
//!
//! # Ring protocol
//!
//! Each shard is a power-of-two ring of 40-byte slots claimed by a
//! monotonically increasing ticket (`head.fetch_add`). The ticket doubles
//! as the event's **sequence number**, so a reader can prove that the
//! only missing events in a shard are the oldest, overwritten ones:
//! surviving sequence numbers are a contiguous tail (gap-only-on-
//! overwrite). Each slot carries a seqlock-style version word,
//! `2*ticket + 1` while the writer fills the payload and `2*ticket + 2`
//! once it is published, and readers validate the version before and
//! after copying the payload — a torn or in-flight event is skipped, never
//! returned. Writers whose slot was already reclaimed by a ticket a full
//! lap ahead abandon the write (their event is by definition the oldest
//! in the shard and would be overwritten immediately anyway); writers that
//! catch the *previous* lap's owner mid-publish spin for the remainder of
//! its four payload stores, which requires the ring to wrap entirely
//! within that window and does not occur outside adversarial tests.
//!
//! # Shard layout
//!
//! Rare control events (a resize takes milliseconds) and high-rate span
//! events (a pipeline stage can turn over thousands of batches per
//! second) must not share a ring, or the spans would evict the very
//! events `btrace doctor` needs. [`FlightRecorder::new`] therefore lays
//! out `cores` per-core shards, one control shard, and
//! [`STAGE_SHARDS`] pipeline-stage shards.

use core::sync::atomic::{
    fence, AtomicU64, Ordering::Acquire, Ordering::Relaxed, Ordering::Release,
};
use std::time::Instant;

use crate::CachePadded;

use crate::json::Json;

/// Number of dedicated pipeline-stage shards (drain, batch, encode, sink).
pub const STAGE_SHARDS: usize = 4;

/// Stage names matching the shard order used by [`FlightRecorder::stage_shard`]
/// and the `btrace-persist` stream pipeline.
pub const STAGE_NAMES: [&str; STAGE_SHARDS] = ["drain", "batch", "encode", "sink"];

/// Default ring capacity per shard, in events.
pub const DEFAULT_SLOTS: usize = 1024;

/// The typed control-plane events the recorder understands.
///
/// Each event carries two `u64` payload words `a`/`b` whose meaning is
/// per-kind (documented on the variant) plus a `source` id: the core for
/// per-core events, the stage index for pipeline events, 0 otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum EventKind {
    /// Payload words did not decode to a known kind (forward compat).
    Unknown = 0,
    /// A resize began: `a` = current capacity (blocks), `b` = target.
    ResizeBegin = 1,
    /// A backing-store op failed and will be retried: `a` = attempt
    /// number (1-based), `b` = backoff before the retry, in µs.
    ResizeRetry = 2,
    /// A grow commit exhausted its retries and fell back to the largest
    /// committed prefix: `a` = wanted capacity (blocks), `b` = kept.
    ResizeFallback = 3,
    /// A resize completed: `a` = new capacity (blocks), `b` = elapsed ns.
    ResizeCommit = 4,
    /// An injected backing fault fired: `a` = cumulative commit failures,
    /// `b` = attempt number the fault hit.
    FaultInjected = 5,
    /// A `TracerState` degradation bit was set: `a` = the bit, `b` = the
    /// full bitset after the transition.
    StateSet = 6,
    /// A degradation bit was cleared (self-healing): `a` = the bit,
    /// `b` = the full bitset after the transition.
    StateClear = 7,
    /// A rate window observed an abnormal skip burst: `a` = skips in the
    /// window, `b` = window length in ns.
    SkipStorm = 8,
    // Wire code 9 is retired (a reader-reclamation stall, whose wait is
    // gone) and decodes as `Unknown`; the codes after it keep their values.
    /// A pipeline stage dequeued work: `source` = stage, `a` = span id,
    /// `b` = queue wait in ns.
    StageEnter = 10,
    /// A pipeline stage finished work: `source` = stage, `a` = span id,
    /// `b` = stage latency in ns.
    StageExit = 11,
    /// A stage dropped work under `DropAndCount`: `source` = stage,
    /// `a` = span id, `b` = items dropped.
    StageDrop = 12,
    /// A stage blocked on a full downstream queue under `Block`:
    /// `source` = stage, `a` = span id, `b` = wait in ns.
    Backpressure = 13,
    /// An exporter retried a failed sink write: `a` = cumulative retries.
    ExportRetry = 14,
    /// An exporter dropped a snapshot after exhausting its retry budget:
    /// `a` = cumulative drops.
    ExportDrop = 15,
    /// The adaptive-sizing controller observed a snapshot: `a` = measured
    /// loss rate in ppm over the window, `b` = mean occupancy in
    /// thousandths. `source` = 1 when the observation was skipped as
    /// stale, 0 otherwise.
    CtrlObserve = 16,
    /// The controller drove a resize: `a` = target capacity in bytes,
    /// `b` = capacity in bytes before the resize. `source` = 1 for a
    /// grow, 2 for a shrink.
    CtrlResize = 17,
    /// A controller resize failed (fault fallback or protocol error) and
    /// the controller entered exponential back-off: `a` = cooldown ticks
    /// it will now wait, `b` = consecutive failures so far.
    CtrlBackoff = 18,
    /// The controller wanted more memory than the budget allows and
    /// clamped: `a` = wanted bytes, `b` = clamped bytes actually asked.
    CtrlBudgetClamp = 19,
}

impl EventKind {
    /// Wire value, stored in the slot's packed word.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a wire value; unknown values map to [`EventKind::Unknown`].
    pub fn from_u16(v: u16) -> EventKind {
        use EventKind::*;
        match v {
            1 => ResizeBegin,
            2 => ResizeRetry,
            3 => ResizeFallback,
            4 => ResizeCommit,
            5 => FaultInjected,
            6 => StateSet,
            7 => StateClear,
            8 => SkipStorm,
            10 => StageEnter,
            11 => StageExit,
            12 => StageDrop,
            13 => Backpressure,
            14 => ExportRetry,
            15 => ExportDrop,
            16 => CtrlObserve,
            17 => CtrlResize,
            18 => CtrlBackoff,
            19 => CtrlBudgetClamp,
            _ => Unknown,
        }
    }

    /// Stable snake_case name, used in reports and `--json` output.
    pub fn name(self) -> &'static str {
        use EventKind::*;
        match self {
            Unknown => "unknown",
            ResizeBegin => "resize_begin",
            ResizeRetry => "resize_retry",
            ResizeFallback => "resize_fallback",
            ResizeCommit => "resize_commit",
            FaultInjected => "fault_injected",
            StateSet => "state_set",
            StateClear => "state_clear",
            SkipStorm => "skip_storm",
            StageEnter => "stage_enter",
            StageExit => "stage_exit",
            StageDrop => "stage_drop",
            Backpressure => "backpressure",
            ExportRetry => "export_retry",
            ExportDrop => "export_drop",
            CtrlObserve => "ctrl_observe",
            CtrlResize => "ctrl_resize",
            CtrlBackoff => "ctrl_backoff",
            CtrlBudgetClamp => "ctrl_budget_clamp",
        }
    }
}

/// One decoded recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Per-shard sequence number (the writer's ticket). Within a shard,
    /// surviving events form a contiguous tail of the ticket space.
    pub seq: u64,
    /// Shard the event was recorded on.
    pub shard: u32,
    /// Nanoseconds since the recorder was created (monotonic).
    pub t_ns: u64,
    /// Event type.
    pub kind: EventKind,
    /// Kind-specific source id: core, stage index, or 0.
    pub source: u32,
    /// First kind-specific payload word.
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

impl RecordedEvent {
    /// Renders a single human-readable timeline line, e.g.
    /// `[  1.203s] resize_fallback src=0 wanted=4096 kept=1024`.
    pub fn describe(&self) -> String {
        let secs = self.t_ns as f64 / 1e9;
        let detail = match self.kind {
            EventKind::ResizeBegin => format!("from={} to={} blocks", self.a, self.b),
            EventKind::ResizeRetry => format!("attempt={} backoff_us={}", self.a, self.b),
            EventKind::ResizeFallback => format!("wanted={} kept={} blocks", self.a, self.b),
            EventKind::ResizeCommit => format!("capacity={} blocks elapsed_ns={}", self.a, self.b),
            EventKind::FaultInjected => format!("commit_failures={} attempt={}", self.a, self.b),
            EventKind::StateSet | EventKind::StateClear => {
                format!("bit={:#x} bits={:#x}", self.a, self.b)
            }
            EventKind::SkipStorm => format!("skips={} window_ns={}", self.a, self.b),
            EventKind::StageEnter => format!("span={} queue_wait_ns={}", self.a, self.b),
            EventKind::StageExit => format!("span={} stage_ns={}", self.a, self.b),
            EventKind::StageDrop => format!("span={} dropped={}", self.a, self.b),
            EventKind::Backpressure => format!("span={} wait_ns={}", self.a, self.b),
            EventKind::ExportRetry => format!("retries={}", self.a),
            EventKind::ExportDrop => format!("drops={}", self.a),
            EventKind::CtrlObserve => format!(
                "loss_ppm={} occupancy={}{}",
                self.a,
                self.b as f64 / 1000.0,
                if self.source == 1 { " (stale, skipped)" } else { "" }
            ),
            EventKind::CtrlResize => format!(
                "{} {} -> {} bytes",
                if self.source == 2 { "shrink" } else { "grow" },
                self.b,
                self.a
            ),
            EventKind::CtrlBackoff => format!("cooldown_ticks={} failures={}", self.a, self.b),
            EventKind::CtrlBudgetClamp => format!("wanted={} clamped={} bytes", self.a, self.b),
            EventKind::Unknown => format!("a={} b={}", self.a, self.b),
        };
        let src = match self.kind {
            EventKind::StageEnter
            | EventKind::StageExit
            | EventKind::StageDrop
            | EventKind::Backpressure => {
                format!("stage={}", STAGE_NAMES.get(self.source as usize).unwrap_or(&"?"))
            }
            _ => format!("src={}", self.source),
        };
        format!("[{secs:>9.4}s] {:<15} {src} {detail}", self.kind.name())
    }

    /// Structured form for `--json` output.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seq".into(), Json::from_u64(self.seq)),
            ("shard".into(), Json::from_u64(self.shard as u64)),
            ("t_ns".into(), Json::from_u64(self.t_ns)),
            ("kind".into(), Json::Str(self.kind.name().into())),
            ("source".into(), Json::from_u64(self.source as u64)),
            ("a".into(), Json::from_u64(self.a)),
            ("b".into(), Json::from_u64(self.b)),
        ])
    }
}

/// Slot state: a seqlock version word plus four payload words
/// (timestamp, packed kind/source, `a`, `b`).
struct Slot {
    version: AtomicU64,
    words: [AtomicU64; 4],
}

struct Shard {
    head: AtomicU64,
    /// Writers that found their slot already reclaimed by a newer lap.
    abandoned: AtomicU64,
    slots: Box<[Slot]>,
    mask: u64,
}

impl Shard {
    fn new(slots: usize) -> Self {
        let cap = slots.next_power_of_two().max(8);
        Shard {
            head: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| Slot {
                    version: AtomicU64::new(0),
                    words: [
                        AtomicU64::new(0),
                        AtomicU64::new(0),
                        AtomicU64::new(0),
                        AtomicU64::new(0),
                    ],
                })
                .collect(),
            mask: cap as u64 - 1,
        }
    }
}

/// Lock-free bounded flight recorder; see the module docs for the ring
/// protocol and shard layout.
pub struct FlightRecorder {
    shards: Box<[CachePadded<Shard>]>,
    cores: usize,
    start: Instant,
}

impl FlightRecorder {
    /// Creates a recorder laid out for `cores` producer cores:
    /// `cores` per-core shards, one control shard, and [`STAGE_SHARDS`]
    /// pipeline shards, each a ring of `slots_per_shard` events (rounded
    /// up to a power of two, minimum 8).
    pub fn new(cores: usize, slots_per_shard: usize) -> FlightRecorder {
        let cores = cores.max(1);
        let shards = cores + 1 + STAGE_SHARDS;
        FlightRecorder {
            shards: (0..shards).map(|_| CachePadded::new(Shard::new(slots_per_shard))).collect(),
            cores,
            start: Instant::now(),
        }
    }

    /// Recorder with [`DEFAULT_SLOTS`] events per shard.
    pub fn with_default_capacity(cores: usize) -> FlightRecorder {
        FlightRecorder::new(cores, DEFAULT_SLOTS)
    }

    /// Total shard count (`cores + 1 + STAGE_SHARDS`).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard for events attributed to `core` (clamped).
    pub fn core_shard(&self, core: usize) -> usize {
        core.min(self.cores - 1)
    }

    /// Shard for global control events (resize, faults, state bits).
    pub fn control_shard(&self) -> usize {
        self.cores
    }

    /// Shard for pipeline-stage `stage` (clamped to [`STAGE_SHARDS`]).
    pub fn stage_shard(&self, stage: usize) -> usize {
        self.cores + 1 + stage.min(STAGE_SHARDS - 1)
    }

    /// Nanoseconds since the recorder was created; the timebase of every
    /// event timestamp. Monotonic across threads.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Fixed memory held by the event rings, in bytes (the recorder's
    /// retention bound: older events are overwritten, never spilled).
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.slots.len() * core::mem::size_of::<Slot>()).sum()
    }

    /// Emits one event, stamped with [`now_ns`](FlightRecorder::now_ns).
    /// Lock-free and wait-free absent a full ring wrap inside another
    /// writer's four-store publish window.
    #[inline]
    pub fn emit(&self, shard: usize, kind: EventKind, source: u32, a: u64, b: u64) {
        self.emit_at(shard, self.now_ns(), kind, source, a, b);
    }

    /// Emits one event with an explicit timestamp (tests and replayed
    /// timelines; live emitters use [`emit`](FlightRecorder::emit)).
    pub fn emit_at(&self, shard: usize, t_ns: u64, kind: EventKind, source: u32, a: u64, b: u64) {
        let shard = &self.shards[shard.min(self.shards.len() - 1)];
        let ticket = shard.head.fetch_add(1, Relaxed);
        let slot = &shard.slots[(ticket & shard.mask) as usize];
        let claimed = 2 * ticket + 1;
        let mut v = slot.version.load(Relaxed);
        loop {
            if v >= claimed {
                // A writer a full lap ahead already owns (or finished) this
                // slot; our event is the shard's oldest and is dropped as an
                // ordinary overwrite.
                shard.abandoned.fetch_add(1, Relaxed);
                return;
            }
            if v & 1 == 1 {
                // Previous lap's owner is mid-publish; its four stores are
                // imminent. Wait them out rather than tearing the slot.
                core::hint::spin_loop();
                v = slot.version.load(Relaxed);
                continue;
            }
            // Acquire: the payload stores below must not be reordered above
            // the claim, or a reader could validate a half-old payload.
            match slot.version.compare_exchange_weak(v, claimed, Acquire, Relaxed) {
                Ok(_) => break,
                Err(cur) => v = cur,
            }
        }
        slot.words[0].store(t_ns, Relaxed);
        slot.words[1].store(((kind.as_u16() as u64) << 32) | source as u64, Relaxed);
        slot.words[2].store(a, Relaxed);
        slot.words[3].store(b, Relaxed);
        // Release: publishes the payload; readers seeing the even version
        // see all four words.
        slot.version.store(claimed + 1, Release);
    }

    /// Decodes every published event across all shards, merged and sorted
    /// by timestamp. Events mid-write or overwritten during the read are
    /// skipped, never returned torn.
    pub fn snapshot(&self) -> RecorderSnapshot {
        let mut events = Vec::new();
        let mut emitted = 0u64;
        let mut overwritten = 0u64;
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let head = shard.head.load(Relaxed);
            emitted += head;
            let cap = shard.slots.len() as u64;
            overwritten += head.saturating_sub(cap) + shard.abandoned.load(Relaxed);
            for slot in shard.slots.iter() {
                // Seqlock read: validate the version on both sides of the
                // payload copy; retry once, then treat the slot as in-flux.
                for _ in 0..2 {
                    let v1 = slot.version.load(Acquire);
                    if v1 == 0 || v1 & 1 == 1 {
                        break;
                    }
                    let w: [u64; 4] = core::array::from_fn(|i| slot.words[i].load(Relaxed));
                    // The payload loads above must complete before the
                    // validating re-read below.
                    fence(Acquire);
                    let v2 = slot.version.load(Relaxed);
                    if v1 != v2 {
                        continue;
                    }
                    events.push(RecordedEvent {
                        seq: v2 / 2 - 1,
                        shard: shard_idx as u32,
                        t_ns: w[0],
                        kind: EventKind::from_u16((w[1] >> 32) as u16),
                        source: w[1] as u32,
                        a: w[2],
                        b: w[3],
                    });
                    break;
                }
            }
        }
        events.sort_by_key(|e| (e.t_ns, e.shard, e.seq));
        RecorderSnapshot { events, emitted, overwritten }
    }
}

impl core::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("shards", &self.shards.len())
            .field("memory_bytes", &self.memory_bytes())
            .finish()
    }
}

/// A merged, time-sorted copy of the recorder's retained events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderSnapshot {
    /// Retained events, sorted by `(t_ns, shard, seq)`.
    pub events: Vec<RecordedEvent>,
    /// Total events ever emitted across all shards.
    pub emitted: u64,
    /// Events lost to ring wrap (overwritten oldest plus abandoned
    /// same-slot races).
    pub overwritten: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shard_layout_is_cores_control_stages() {
        let r = FlightRecorder::new(4, 64);
        assert_eq!(r.shards(), 4 + 1 + STAGE_SHARDS);
        assert_eq!(r.core_shard(2), 2);
        assert_eq!(r.core_shard(99), 3);
        assert_eq!(r.control_shard(), 4);
        assert_eq!(r.stage_shard(0), 5);
        assert_eq!(r.stage_shard(99), 5 + STAGE_SHARDS - 1);
        assert!(r.memory_bytes() >= (4 + 1 + STAGE_SHARDS) * 64 * 40);
    }

    #[test]
    fn events_round_trip_in_order() {
        let r = FlightRecorder::new(1, 16);
        r.emit(r.control_shard(), EventKind::ResizeBegin, 0, 256, 512);
        r.emit(r.control_shard(), EventKind::ResizeCommit, 0, 512, 1_000);
        let snap = r.snapshot();
        assert_eq!(snap.emitted, 2);
        assert_eq!(snap.overwritten, 0);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].kind, EventKind::ResizeBegin);
        assert_eq!(snap.events[0].seq, 0);
        assert_eq!(snap.events[0].a, 256);
        assert_eq!(snap.events[1].kind, EventKind::ResizeCommit);
        assert_eq!(snap.events[1].seq, 1);
        assert!(snap.events[0].t_ns <= snap.events[1].t_ns);
    }

    #[test]
    fn wrap_keeps_newest_with_contiguous_sequence_tail() {
        let r = FlightRecorder::new(1, 16);
        let shard = r.control_shard();
        for i in 0..100u64 {
            r.emit_at(shard, i, EventKind::SkipStorm, 0, i, 0);
        }
        let snap = r.snapshot();
        assert_eq!(snap.emitted, 100);
        assert_eq!(snap.overwritten, 100 - 16);
        let mut seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (84..100).collect::<Vec<_>>(), "only the oldest events are lost");
        for e in &snap.events {
            assert_eq!(e.a, e.seq, "payload matches the ticket that wrote it");
        }
    }

    #[test]
    fn kind_wire_values_round_trip() {
        for v in (1..=19u16).filter(|&v| v != 9) {
            let kind = EventKind::from_u16(v);
            assert_ne!(kind, EventKind::Unknown, "code {v} must still decode");
            assert_eq!(kind.as_u16(), v);
        }
        for retired in [0, 9, 20, 999] {
            assert_eq!(EventKind::from_u16(retired), EventKind::Unknown, "code {retired}");
        }
    }

    #[test]
    fn describe_and_json_name_the_kind() {
        let e = RecordedEvent {
            seq: 7,
            shard: 0,
            t_ns: 1_500_000_000,
            kind: EventKind::ResizeFallback,
            source: 0,
            a: 4096,
            b: 1024,
        };
        let line = e.describe();
        assert!(line.contains("resize_fallback"), "{line}");
        assert!(line.contains("wanted=4096"), "{line}");
        let j = e.to_json();
        assert_eq!(j.get("kind").unwrap().as_str(), Some("resize_fallback"));
        assert_eq!(j.get("a").unwrap().as_u64(), Some(4096));
    }

    /// The satellite test: concurrent multi-core emit under heavy wrap.
    /// Every decoded event must be internally consistent (no torn reads)
    /// and per-shard sequence numbers must be unique with gaps only
    /// attributable to overwrite.
    #[test]
    fn concurrent_emit_under_wrap_yields_no_torn_events() {
        const CORES: usize = 4;
        const PER_THREAD: u64 = 20_000;
        let r = Arc::new(FlightRecorder::new(CORES, 64));
        let mut handles = Vec::new();
        for core in 0..CORES {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let shard = r.core_shard(core);
                for i in 0..PER_THREAD {
                    // a/b are derived from each other so a torn mix of two
                    // writers' payloads cannot validate.
                    let a = (core as u64) << 32 | i;
                    r.emit_at(shard, i, EventKind::StageExit, core as u32, a, !a);
                }
            }));
        }
        // A reader races the writers the whole time.
        let reader = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    for e in r.snapshot().events {
                        assert_eq!(e.b, !e.a, "torn event observed mid-run: {e:?}");
                    }
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();

        let snap = r.snapshot();
        assert_eq!(snap.emitted, CORES as u64 * PER_THREAD);
        for shard in 0..CORES as u32 {
            let mut seqs: Vec<u64> =
                snap.events.iter().filter(|e| e.shard == shard).map(|e| e.seq).collect();
            seqs.sort_unstable();
            seqs.dedup();
            assert_eq!(
                seqs.len(),
                snap.events.iter().filter(|e| e.shard == shard).count(),
                "duplicate sequence numbers on shard {shard}"
            );
            // Single writer per shard: survivors are exactly the newest
            // ring-capacity tickets — a contiguous tail.
            if let (Some(&lo), Some(&hi)) = (seqs.first(), seqs.last()) {
                assert_eq!(hi, PER_THREAD - 1);
                assert_eq!(hi - lo + 1, seqs.len() as u64, "interior gap on shard {shard}");
            }
            for e in snap.events.iter().filter(|e| e.shard == shard) {
                assert_eq!(e.b, !e.a, "torn event after quiesce: {e:?}");
                assert_eq!(e.a, (e.source as u64) << 32 | e.t_ns, "payload from wrong writer");
            }
        }
    }

    /// Two writers forced onto the same shard under wrap: events may be
    /// abandoned, but never torn, and accounting covers every emit.
    #[test]
    fn same_shard_contention_never_tears() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 30_000;
        let r = Arc::new(FlightRecorder::new(1, 8));
        let shard = r.core_shard(0);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let a = t << 40 | i;
                        r.emit_at(shard, i, EventKind::StageEnter, t as u32, a, a ^ u64::MAX);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.emitted, THREADS * PER_THREAD);
        for e in snap.events.iter().filter(|e| e.shard == 0) {
            assert_eq!(e.b, e.a ^ u64::MAX, "torn event: {e:?}");
        }
    }
}
