//! # btrace-baselines — the buffer disciplines BTrace is evaluated against
//!
//! Faithful re-implementations of the *buffering disciplines* of the four
//! tracers in the paper's evaluation (§5, Table 1). The tracepoint
//! front-ends are irrelevant to the comparison; what matters is how each
//! tracer lays events out in memory and what it does under contention,
//! wrap-around, and mid-write preemption:
//!
//! | Type | Discipline | Availability under preemption |
//! |------|-----------|-------------------------------|
//! | [`Bbq`] | one global block queue, overwrite mode | **blocks** until the wrapped block drains |
//! | [`PerCoreOverwrite`] (ftrace-like) | per-core rings, overwrite oldest | writes are non-preemptible (preemption disabled) |
//! | [`PerCoreDropNewest`] (LTTng-like) | per-core sub-buffered rings | **drops newest** while a sub-buffer is pinned |
//! | [`PerThread`] (VTrace-like) | per-thread rings | unaffected (no sharing) but utilization is 1/T |
//!
//! All four implement [`btrace_core::sink::TraceSink`], so the replay
//! harness and benchmarks drive them through exactly the same code paths as
//! BTrace. Entries use the same on-buffer encoding as `btrace-core`
//! ([`btrace_core::event::EntryHeader`]) so byte-level accounting is
//! comparable across tracers.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod bbq;
mod lttng;
mod percore;
mod perthread;
mod ring;
mod wordbuf;

pub use bbq::Bbq;
pub use lttng::PerCoreDropNewest;
pub use percore::PerCoreOverwrite;
pub use perthread::PerThread;

#[cfg(test)]
mod tests {
    use super::*;
    use btrace_core::sink::TraceSink;

    /// `visit` returns every retained record as it was recorded, payload
    /// byte for byte, in stamp order (the documented order of all four
    /// tracers when one thread records in stamp order), through wrap-around;
    /// and `drain` is those views reduced to their metadata.
    #[test]
    fn visit_returns_recorded_payloads_and_drain_reduces_them() {
        fn check(sink: &impl TraceSink) {
            let payload =
                |i: u64| -> Vec<u8> { (0..(i * 7 % 41) as u8).map(|b| b ^ i as u8).collect() };
            let (core, tid) = (|i: u64| (i % 3) as u16, |i: u64| 10 + (i % 5) as u32);
            for i in 0..400u64 {
                sink.record(core(i).into(), tid(i), i, &payload(i));
            }
            let (mut visited, mut collected) = (Vec::new(), Vec::new());
            sink.visit(&mut |e| {
                assert_eq!((e.core, e.tid), (core(e.stamp), tid(e.stamp)), "{}", sink.name());
                assert_eq!(e.payload, payload(e.stamp), "{}: stamp {}", sink.name(), e.stamp);
                visited.push(e.stamp);
                collected.push(e.collected());
            });
            assert!(visited.len() > 10, "{}: the ring retains records", sink.name());
            assert!(visited.windows(2).all(|w| w[0] < w[1]), "{}: stamp order", sink.name());
            assert_eq!(
                visited.last(),
                Some(&399),
                "{}: the newest record is retained",
                sink.name()
            );
            assert_eq!(sink.drain(), collected, "{}", sink.name());
        }
        check(&Bbq::new(4096, 256));
        check(&PerCoreOverwrite::new(3, 4096));
        check(&PerCoreDropNewest::new(3, 4096, 4));
        check(&PerThread::new(8192, 5));
    }
}
