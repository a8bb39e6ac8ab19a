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

    /// `drain` and `drain_full` walk the same entries: the payload-free
    /// drain is the full drain's events without their payloads, in the
    /// same order, on every tracer and after wrap-around.
    #[test]
    fn drain_is_drain_full_without_payloads() {
        fn check(sink: &impl TraceSink) {
            for i in 0..400u64 {
                let payload: Vec<u8> = (0..(i * 7 % 41) as u8).collect();
                sink.record((i % 3) as usize, 10 + (i % 5) as u32, i, &payload);
            }
            let full = sink.drain_full();
            assert!(full.len() > 10, "{}: the drain holds events", sink.name());
            let collected: Vec<_> = full.iter().map(|e| e.view().collected()).collect();
            assert_eq!(sink.drain(), collected, "{}", sink.name());
        }
        check(&Bbq::new(4096, 256));
        check(&PerCoreOverwrite::new(3, 4096));
        check(&PerCoreDropNewest::new(3, 4096, 4));
        check(&PerThread::new(8192, 5));
    }
}
