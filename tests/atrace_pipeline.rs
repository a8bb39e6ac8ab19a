//! Integration of the tracepoint front-end with the tracer, the collector
//! daemon, and the dump format — the full §2.1 pipeline: instrument, trace
//! in memory, dump on symptom, inspect offline.

use btrace::atrace::{Atrace, Category, Level, OwnedEvent, TraceEvent};
use btrace::core::sink::TraceSink;
use btrace::core::{BTrace, Config, RingSnapshot};
use btrace::persist::{Collector, CollectorConfig, TraceDump};
use std::sync::Arc;

fn tracer() -> BTrace {
    BTrace::new(Config::new(4).active_blocks(64).block_bytes(1024).buffer_bytes(1024 * 64 * 4))
        .expect("valid configuration")
}

#[test]
fn level_presets_gate_volume() {
    // The same instrumented workload at each level: higher levels record
    // strictly more (Fig. 3's volume ordering).
    let mut volumes = Vec::new();
    for level in [Level::Level1, Level::Level2, Level::Level3] {
        let a = Atrace::new(tracer(), level.categories());
        for i in 0..300u32 {
            a.event(0, i % 7, TraceEvent::BinderTxn { from: i, to: i + 1, code: 0 }); // L1
            a.event(1, i % 7, TraceEvent::SchedSwitch { prev: i, next: i + 1, prio: 0 }); // L2
            a.event(2, i % 7, TraceEvent::FreqChange { cpu: 2, khz: 1_000_000 });
            // L3
        }
        volumes.push(a.drain_decoded().len());
    }
    assert_eq!(volumes, vec![300, 600, 900]);
}

#[test]
fn decoded_events_survive_dump_roundtrip() {
    let sink = Arc::new(tracer());
    let a = Atrace::new(Arc::clone(&sink), Category::ALL);
    a.event(0, 1, TraceEvent::SchedSwitch { prev: 10, next: 20, prio: 5 });
    a.event(1, 2, TraceEvent::ThermalThrottle { zone: 1, mdeg: 47_500 });
    {
        let _scope = a.scope(2, 3, "renderFrame");
        a.event(2, 3, TraceEvent::Counter { name: "fps", value: 59 });
    }

    let dir = std::env::temp_dir().join(format!("btrace-pipeline-{}", std::process::id()));
    let collector =
        Collector::new(Arc::clone(&sink), CollectorConfig::new(&dir)).expect("collector");
    let path = collector.trigger("jank-detected").expect("dump");

    // Offline: read the file back and decode the typed payloads.
    let dump = TraceDump::read_from(&path).expect("read dump");
    assert_eq!(dump.label(), "jank-detected");
    let decoded: Vec<OwnedEvent> =
        dump.events().iter().filter_map(|e| OwnedEvent::decode(&e.payload).ok()).collect();
    assert_eq!(decoded.len(), 5);
    assert!(decoded.contains(&OwnedEvent::SchedSwitch { prev: 10, next: 20, prio: 5 }));
    assert!(decoded.contains(&OwnedEvent::Begin { msg: "renderFrame".into() }));
    assert!(decoded.contains(&OwnedEvent::End));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disabled_tracepoints_touch_no_buffer() {
    let sink = tracer();
    let a = Atrace::new(sink, Category::NONE);
    for i in 0..10_000u32 {
        a.event(0, i, TraceEvent::SchedSwitch { prev: i, next: i, prio: 0 });
    }
    assert_eq!(a.filtered(), 10_000);
    assert_eq!(a.sink().stats().records, 0, "filtered events must not reach the buffer");
}

#[test]
fn mixed_writers_on_one_buffer() {
    // An atrace session and raw producers share the tracer; the session's
    // decoder skips foreign payloads instead of failing.
    let sink = Arc::new(tracer());
    let a = Atrace::new(Arc::clone(&sink), Category::ALL);
    a.event(0, 1, TraceEvent::IdleExit { cpu: 0 });
    sink.producer(1).unwrap().record_with(900, 2, b"raw freeform log line").unwrap();
    a.event(2, 3, TraceEvent::IdleEnter { cpu: 2, state: 1 });

    let decoded = a.drain_decoded();
    assert_eq!(decoded.len(), 2, "only typed events decode");
    assert_eq!(sink.drain().len(), 3, "the raw event is still in the buffer");
}

#[test]
fn stream_delivers_typed_events_once() {
    let sink = tracer();
    let mut stream = sink.stream();
    let a = Atrace::new(sink, Category::ALL);
    a.event(0, 1, TraceEvent::FreqChange { cpu: 0, khz: 2_000_000 });
    let mut snap = RingSnapshot::new();
    stream.flush_close(&mut snap);
    let flushed = snap.to_events();
    assert_eq!(flushed.len(), 1);
    let decoded = OwnedEvent::decode(&flushed[0].payload).expect("typed payload");
    assert_eq!(decoded, OwnedEvent::FreqChange { cpu: 0, khz: 2_000_000 });
    stream.poll(&mut snap);
    assert_eq!(snap.count(), 0);
}
