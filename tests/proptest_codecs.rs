//! Property tests for the serialization layers: the atrace event codec,
//! the BTSF frame codec, and the persist dump format.

use btrace::atrace::{OwnedEvent, TraceEvent};
use btrace::core::sink::FullEvent;
use btrace::persist::{decode_frames, encode_frame, scan_frames, split_fragments, TraceDump};
use proptest::prelude::*;

fn arb_trace_event() -> impl Strategy<Value = OwnedEvent> {
    prop_oneof![
        (any::<u32>(), any::<u32>(), any::<u8>())
            .prop_map(|(prev, next, prio)| OwnedEvent::SchedSwitch { prev, next, prio }),
        (any::<u32>(), any::<u8>()).prop_map(|(tid, cpu)| OwnedEvent::SchedWakeup { tid, cpu }),
        (any::<u32>(), any::<u8>(), any::<u8>())
            .prop_map(|(tid, from_cpu, to_cpu)| OwnedEvent::SchedMigrate { tid, from_cpu, to_cpu }),
        (any::<u16>(), any::<bool>()).prop_map(|(irq, enter)| OwnedEvent::Irq { irq, enter }),
        (any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(from, to, code)| OwnedEvent::BinderTxn { from, to, code }),
        (any::<u8>(), any::<u32>()).prop_map(|(cpu, khz)| OwnedEvent::FreqChange { cpu, khz }),
        (any::<u8>(), any::<u8>()).prop_map(|(cpu, state)| OwnedEvent::IdleEnter { cpu, state }),
        any::<u8>().prop_map(|cpu| OwnedEvent::IdleExit { cpu }),
        (any::<u8>(), any::<u32>())
            .prop_map(|(zone, mdeg)| OwnedEvent::ThermalThrottle { zone, mdeg }),
        (any::<u8>(), any::<u32>())
            .prop_map(|(cluster, mw)| OwnedEvent::EnergyEstimate { cluster, mw }),
        ("[a-z_]{0,20}", any::<i64>())
            .prop_map(|(name, value)| OwnedEvent::Counter { name, value }),
        "[ -~]{0,30}".prop_map(|msg| OwnedEvent::Begin { msg }),
        Just(OwnedEvent::End),
    ]
}

/// Raw events for the frame codecs: stamps are *unconstrained* (the delta
/// codec must zigzag backwards jumps), payloads range from empty to 2 KiB.
fn arb_full_events(frames: usize) -> impl Strategy<Value = Vec<Vec<FullEvent>>> {
    let payload = prop_oneof![
        Just(Vec::new()),
        proptest::collection::vec(any::<u8>(), 1..64),
        proptest::collection::vec(any::<u8>(), 2048..2049),
    ];
    let event = (any::<u64>(), any::<u16>(), any::<u32>(), payload)
        .prop_map(|(stamp, core, tid, payload)| FullEvent { stamp, core, tid, payload });
    // 0-length inner vecs are deliberate: empty frames must roundtrip too.
    proptest::collection::vec(proptest::collection::vec(event, 0..24), 1..frames + 1)
}

fn encode(event: &OwnedEvent) -> Vec<u8> {
    let borrowed: TraceEvent<'_> = match event {
        OwnedEvent::SchedSwitch { prev, next, prio } => {
            TraceEvent::SchedSwitch { prev: *prev, next: *next, prio: *prio }
        }
        OwnedEvent::SchedWakeup { tid, cpu } => TraceEvent::SchedWakeup { tid: *tid, cpu: *cpu },
        OwnedEvent::SchedMigrate { tid, from_cpu, to_cpu } => {
            TraceEvent::SchedMigrate { tid: *tid, from_cpu: *from_cpu, to_cpu: *to_cpu }
        }
        OwnedEvent::Irq { irq, enter } => TraceEvent::Irq { irq: *irq, enter: *enter },
        OwnedEvent::BinderTxn { from, to, code } => {
            TraceEvent::BinderTxn { from: *from, to: *to, code: *code }
        }
        OwnedEvent::FreqChange { cpu, khz } => TraceEvent::FreqChange { cpu: *cpu, khz: *khz },
        OwnedEvent::IdleEnter { cpu, state } => TraceEvent::IdleEnter { cpu: *cpu, state: *state },
        OwnedEvent::IdleExit { cpu } => TraceEvent::IdleExit { cpu: *cpu },
        OwnedEvent::ThermalThrottle { zone, mdeg } => {
            TraceEvent::ThermalThrottle { zone: *zone, mdeg: *mdeg }
        }
        OwnedEvent::EnergyEstimate { cluster, mw } => {
            TraceEvent::EnergyEstimate { cluster: *cluster, mw: *mw }
        }
        OwnedEvent::Counter { name, value } => TraceEvent::Counter { name, value: *value },
        OwnedEvent::Begin { msg } => TraceEvent::Begin { msg },
        OwnedEvent::End => TraceEvent::End,
        _ => unreachable!("non-exhaustive enum extension"),
    };
    let mut buf = [0u8; 64];
    let len = borrowed.encode(&mut buf);
    buf[..len].to_vec()
}

proptest! {
    #[test]
    fn codec_roundtrips_every_event(event in arb_trace_event()) {
        let bytes = encode(&event);
        let decoded = OwnedEvent::decode(&bytes).expect("decodes");
        prop_assert_eq!(decoded, event);
    }

    #[test]
    fn codec_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
        let _ = OwnedEvent::decode(&bytes); // must not panic
    }

    #[test]
    fn truncation_yields_error_not_panic(event in arb_trace_event(), cut in 0usize..64) {
        let bytes = encode(&event);
        let cut = cut % bytes.len().max(1);
        let _ = OwnedEvent::decode(&bytes[..cut]); // Err or shorter-variant Ok; never panics
    }

    #[test]
    fn dump_roundtrips(
        label in "[ -~¡-ÿ€𝄞]{0,40}",
        raw in proptest::collection::vec(
            (any::<u64>(), any::<u16>(), any::<u32>(), proptest::collection::vec(any::<u8>(), 0..64)),
            0..100,
        )
    ) {
        let events: Vec<FullEvent> = raw
            .into_iter()
            .map(|(stamp, core, tid, payload)| FullEvent { stamp, core, tid, payload })
            .collect();
        let dir = std::env::temp_dir().join(format!("btrace-prop-dump-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("prop.btd");
        let dump = TraceDump::from_events(&label, events);
        dump.write_to(&path).expect("write");
        let restored = TraceDump::read_from(&path).expect("read");
        prop_assert_eq!(restored, dump);
    }

    /// Delta/varint (revision 2) frames decode back to the exact event
    /// sequence — non-monotonic stamps, empty frames, max-size payloads
    /// and all — and re-encoding the decode is byte-identical.
    #[test]
    fn compressed_frames_roundtrip_byte_exact(
        batches in arb_full_events(4),
        seq0 in any::<u32>(),
    ) {
        let mut bytes = Vec::new();
        for (i, events) in batches.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(u64::from(seq0) + i as u64, events));
        }
        let frames = decode_frames(&bytes).expect("compressed stream decodes");
        prop_assert_eq!(frames.len(), batches.len());
        for (frame, events) in frames.iter().zip(&batches) {
            prop_assert_eq!(&frame.events, events);
        }
        // Determinism closes the loop: decode -> re-encode reproduces the
        // original bytes, so the roundtrip is exact at the byte level too.
        let mut reencoded = Vec::new();
        for frame in &frames {
            reencoded.extend_from_slice(&encode_frame(frame.seq, &frame.events));
        }
        prop_assert_eq!(reencoded, bytes);
    }

    /// `scan_frames` tiles the byte stream exactly; `split_fragments`
    /// partitions frames, bytes, and event counts without loss, and each
    /// fragment decodes to precisely its slice of the stream.
    #[test]
    fn streams_scan_and_split_cleanly(
        batches in arb_full_events(8),
        parts in 1usize..6,
    ) {
        let mut bytes = Vec::new();
        for (i, events) in batches.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(i as u64, events));
        }

        let infos = scan_frames(&bytes).expect("stream scans");
        prop_assert_eq!(infos.len(), batches.len());
        let mut cursor = 0usize;
        for (i, info) in infos.iter().enumerate() {
            prop_assert_eq!(info.offset, cursor, "frames must tile the stream");
            prop_assert_eq!(info.seq, i as u64);
            prop_assert_eq!(info.events as usize, batches[i].len());
            cursor += info.len;
        }
        prop_assert_eq!(cursor, bytes.len());

        let fragments = split_fragments(&infos, parts);
        let total_events: u64 = batches.iter().map(|b| b.len() as u64).sum();
        prop_assert_eq!(fragments.iter().map(|f| f.events).sum::<u64>(), total_events);
        let mut frame_cursor = 0usize;
        let mut byte_cursor = 0usize;
        let mut decoded = Vec::new();
        for frag in &fragments {
            prop_assert_eq!(frag.frames.start, frame_cursor, "fragments must tile the frames");
            prop_assert_eq!(frag.bytes.start, byte_cursor, "fragments must tile the bytes");
            frame_cursor = frag.frames.end;
            byte_cursor = frag.bytes.end;
            for frame in frag.decode(&bytes).expect("fragment decodes") {
                decoded.extend(frame.events);
            }
        }
        prop_assert_eq!(frame_cursor, infos.len());
        prop_assert_eq!(byte_cursor, bytes.len());
        let flat: Vec<FullEvent> = batches.into_iter().flatten().collect();
        prop_assert_eq!(decoded, flat);
    }
}

/// The frame layout is pinned: a fixed event list encodes to a known
/// length and FNV-1a digest, so any byte-level change to the codec fails
/// here first.
#[test]
fn frame_bytes_are_pinned() {
    let events: Vec<FullEvent> = (0..40u64)
        .map(|i| FullEvent {
            stamp: 1_000 + i * i * 7 - (i % 3) * 5,
            core: (i % 5) as u16 * 13,
            tid: 4_000 + (i % 7) as u32 * 300,
            payload: (0..(i % 11) as u8 * 3).map(|b| b ^ i as u8).collect(),
        })
        .collect();
    let mut bytes = encode_frame(9, &events);
    bytes.extend_from_slice(&encode_frame(10, &[]));
    let digest = bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
    assert_eq!((bytes.len(), digest), (929, 0x0be8_d322_c8c7_51f4));
}

/// A quiescent, wrapped three-core ring with uneven cores and payloads of
/// 0 to 45 bytes, recorded from one thread so its layout is deterministic.
/// It retains more than 1 024 events, so its dump spans several frames.
fn seeded_ring() -> std::sync::Arc<btrace::core::BTrace> {
    use btrace::core::{BTrace, Backing, Config};
    let tracer = BTrace::new(
        Config::new(3)
            .active_blocks(6)
            .block_bytes(512)
            .buffer_bytes(512 * 96)
            .backing(Backing::Heap),
    )
    .expect("valid configuration");
    for i in 0..8_000u64 {
        // Core 0 takes half of the events, cores 1 and 2 a quarter each.
        let core = [0, 1, 0, 2][(i % 4) as usize];
        let payload: Vec<u8> = (0..(i * 7 % 46) as u8).map(|b| b ^ i as u8).collect();
        tracer.producer(core).unwrap().record_with(i * 3, 500 + core as u32, &payload).unwrap();
    }
    std::sync::Arc::new(tracer)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The dump layout is pinned: `Collector::trigger` on a seeded ring writes
/// a known length and FNV-1a digest, so any byte-level change to the dump
/// path (walker, snapshot, frame encoder, header) fails here first.
#[test]
fn dump_bytes_are_pinned() {
    use btrace::persist::{Collector, CollectorConfig};
    let dir = std::env::temp_dir().join(format!("btrace-dump-pin-{}", std::process::id()));
    let collector = Collector::new(seeded_ring(), CollectorConfig::new(&dir)).expect("collector");
    let bytes = std::fs::read(collector.trigger("pinned").expect("dump written")).expect("read");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!((bytes.len(), fnv1a(&bytes)), (30_236, 0x9b06_bcd6_3f56_16d3));
}

/// On the same ring, the borrowed trigger path and the owned
/// `TraceDump::capture` + `write_to` path write the same bytes.
#[test]
fn trigger_bytes_equal_owned_capture() {
    use btrace::persist::{Collector, CollectorConfig};
    let tracer = seeded_ring();
    let dir = std::env::temp_dir().join(format!("btrace-dump-diff-{}", std::process::id()));
    let collector = Collector::new(std::sync::Arc::clone(&tracer), CollectorConfig::new(&dir))
        .expect("collector");
    let triggered = std::fs::read(collector.trigger("same").expect("dump written")).expect("read");
    let owned_path = dir.join("owned.btd");
    TraceDump::capture("same", tracer.as_ref()).write_to(&owned_path).expect("owned write");
    let owned = std::fs::read(&owned_path).expect("read");
    let events = TraceDump::read_from(&owned_path).expect("dump reads").into_events();
    std::fs::remove_dir_all(&dir).ok();
    // The ring wrapped, and every core and the empty payload made it in.
    assert!((1_025..8_000).contains(&events.len()), "{} events", events.len());
    assert!((0..3).all(|c| events.iter().any(|e| e.core == c)));
    assert!(events.iter().any(|e| e.payload.is_empty()));
    assert_eq!(triggered, owned);
}
