//! Runtime buffer resizing with implicit reclaiming (paper §3.3, §4.4).
//!
//! Growing commits fresh pages and bumps the global ratio; producers start
//! spreading over the new blocks on their next advancement. Shrinking is the
//! interesting direction:
//!
//! 1. install the `(boundary, ratio)` entry in the ratio history, then
//!    publish the new `(ratio, position)` pair with a single CAS on the
//!    global `ratio_and_pos`, jumping the position to the next round
//!    boundary so old and new rounds never share a metadata round. The CAS
//!    is the one publication: every mapping counts the entry, and the
//!    capacity bound (`ratio × A`) changes, exactly when the word carries
//!    the new ratio;
//! 2. force every core off its current block by running the ordinary
//!    advancement procedure on its behalf;
//! 3. close every metadata block still on a pre-resize round and wait for
//!    its confirmed count to reach capacity — the allocate/confirm counters
//!    are the *implicit reference count*: a producer still writing holds the
//!    count below capacity, and its final confirm is the epoch end (§3.3).
//!    No producer-side synchronization is added anywhere;
//! 4. decommit the physical pages beyond the new extent. No reader is
//!    waited for: decommit never unmaps, and every read validates its copy
//!    after taking it (`consumer::read_block`).

use crate::buffer::{extent_bytes, BTrace, Shared};
use crate::error::TraceError;
use crate::meta::Close;
use crate::packed::RatioPos;
use crate::sync::Ordering;
use btrace_telemetry::degraded;
use std::time::{Duration, Instant};

/// How long a shrink waits for producers holding unconfirmed grants before
/// giving up with [`TraceError::ResizeTimeout`].
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Commit/decommit attempts before a resize gives up on the backing and
/// degrades (fall back to pre-resize geometry on grow, defer reclaim on
/// shrink). Transient `ENOMEM` under mobile memory pressure usually clears
/// within a few reclaim cycles; anything longer is treated as persistent.
const BACKING_ATTEMPTS: u32 = 4;

/// First retry delay; doubles per attempt (50 µs, 100 µs, 200 µs — a failed
/// resize costs well under a millisecond before falling back).
const BACKING_BACKOFF: Duration = Duration::from_micros(50);

/// Runs a backing commit/decommit with bounded exponential backoff. Every
/// failed attempt bumps `commit_failures` (so the counter equals the number
/// of injected faults observed, attempt by attempt).
fn retry_backing_op(
    shared: &Shared,
    mut op: impl FnMut() -> Result<(), btrace_vmem::RegionError>,
) -> Result<(), TraceError> {
    let mut backoff = BACKING_BACKOFF;
    let mut last = None;
    for attempt in 0..BACKING_ATTEMPTS {
        match op() {
            Ok(()) => return Ok(()),
            Err(e) => {
                shared.counters.bump(&shared.counters.commit_failures);
                #[cfg(feature = "telemetry")]
                shared.telem.control(
                    btrace_telemetry::EventKind::FaultInjected,
                    shared.counters.commit_failures.load(Ordering::Relaxed),
                    u64::from(attempt) + 1,
                );
                last = Some(e);
                if attempt + 1 < BACKING_ATTEMPTS {
                    #[cfg(feature = "telemetry")]
                    shared.telem.control(
                        btrace_telemetry::EventKind::ResizeRetry,
                        u64::from(attempt) + 1,
                        backoff.as_micros() as u64,
                    );
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
            }
        }
    }
    Err(TraceError::Region(last.expect("BACKING_ATTEMPTS >= 1")))
}

impl BTrace {
    /// Resizes the buffer to `bytes`.
    ///
    /// `bytes` must be a multiple of `block_bytes × active_blocks` (the
    /// resize granularity — the metadata mapping works in whole rounds), at
    /// least one such stride, and at most the reserved maximum
    /// ([`Config::max_bytes`](crate::Config::max_bytes)).
    ///
    /// Concurrent producers keep recording throughout; no locks are added to
    /// their path. Concurrent resizes serialize on an internal mutex.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidResize`] for an out-of-range or misaligned
    /// target, [`TraceError::ResizeTimeout`] when a producer holding an
    /// unconfirmed grant fails to drain, and [`TraceError::Region`] when the
    /// OS rejects commit/decommit.
    pub fn resize_bytes(&self, bytes: usize) -> Result<(), TraceError> {
        let stride = self.block_bytes() * self.active_blocks();
        if bytes == 0 || !bytes.is_multiple_of(stride) {
            return Err(TraceError::InvalidResize(format!(
                "target {bytes} is not a positive multiple of block_bytes * active_blocks ({stride})"
            )));
        }
        let ratio = bytes / stride;
        if ratio > self.shared.cfg.max_ratio as usize {
            return Err(TraceError::InvalidResize(format!(
                "target {bytes} exceeds the reserved maximum of {} bytes",
                self.shared.cfg.max_bytes()
            )));
        }
        // The calling thread may hold pending coalesced confirm runs (PR-7
        // discipline). They pin their blocks' rounds exactly like open
        // grants — and this thread, about to sit in the drain loop below,
        // is the only one that could ever flush them. Flush here rather
        // than stalling into `ResizeTimeout`.
        crate::producer::flush_thread_coalesced(&self.shared);
        self.resize_ratio(ratio as u16)
    }

    fn resize_ratio(&self, new_ratio: u16) -> Result<(), TraceError> {
        let shared = &self.shared;
        // A caller that panicked mid-resize poisons the lock but leaves the
        // protocol in a recoverable state (every publication step below is
        // individually consistent). Recover the guard instead of propagating
        // the panic — one dead resizer must not brick all future resizes —
        // and re-validate the derived geometry before proceeding.
        let _serialize = match shared.resize_lock.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let guard = poisoned.into_inner();
                // Un-poison so the *next* resize takes the happy path: the
                // recovery below leaves the protocol state fully consistent,
                // and we only want to count (and degrade for) one recovery
                // per dead resizer, not one per subsequent caller.
                shared.resize_lock.clear_poison();
                shared.counters.bump(&shared.counters.lock_recoveries);
                flip_degraded(shared, degraded::LOCK_RECOVERED, true);
                revalidate_geometry(shared)?;
                guard
            }
        };

        let old = shared.global_pos();
        if old.ratio == new_ratio {
            return Ok(());
        }

        #[cfg(feature = "telemetry")]
        let resize_t0 = Instant::now();
        #[cfg(feature = "telemetry")]
        shared.telem.control(
            btrace_telemetry::EventKind::ResizeBegin,
            u64::from(old.ratio) * shared.active() as u64,
            u64::from(new_ratio) * shared.active() as u64,
        );

        // Growing: commit the new pages *before* any producer can reach them.
        //
        // Ordering note (applies to every store in this function): resizes
        // are serialized by `resize_lock`, so this thread is the only writer
        // of `committed_extent`, `resize_floor`, the history, and the global
        // word's ratio. No total order across independent writers exists to
        // preserve; release stores (paired with acquire loads at the
        // readers) carry exactly the happens-before edges the protocol
        // needs, and the fast path never fences.
        let new_extent = extent_bytes(&shared.cfg, new_ratio);
        let old_extent = shared.committed_extent.load(Ordering::Acquire);
        if new_extent > old_extent {
            let region = shared.data.region();
            if let Err(e) =
                retry_backing_op(shared, || region.commit(old_extent, new_extent - old_extent))
            {
                // Fall back to the pre-resize geometry: the new ratio was
                // never published, so producers keep recording into the
                // surviving blocks, unaware a grow was ever attempted.
                shared.counters.bump(&shared.counters.resize_fallbacks);
                #[cfg(feature = "telemetry")]
                shared.telem.control(
                    btrace_telemetry::EventKind::ResizeFallback,
                    u64::from(new_ratio) * shared.active() as u64,
                    u64::from(old.ratio) * shared.active() as u64,
                );
                flip_degraded(shared, degraded::COMMIT_FAILED, true);
                return Err(e);
            }
            shared.committed_extent.store(new_extent, Ordering::Release);
        }

        // Publish the new ratio at the next round boundary (§4.4: "after
        // updating the global ratio_and_pos"). The history entry is
        // installed first, on every attempt: a failed CAS leaves it
        // unpublished, and the retry replaces it (the history keeps it).
        let a = shared.active() as u64;
        let boundary = loop {
            let cur = shared.global_pos();
            let boundary = (cur.pos / a + 1) * a;
            shared.history.install(cur.ratio, boundary, new_ratio);
            let next = RatioPos::new(new_ratio, boundary);
            // AcqRel: the release side makes the pages committed above and
            // the entry installed just now visible to anyone who loads a
            // word carrying the new ratio (with acquire); the acquire side
            // orders this CAS after the advances whose positions it read.
            if shared
                .global_raw()
                .compare_exchange(cur.to_raw(), next.to_raw(), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break boundary;
            }
        };
        // Release: pairs with the advance path's acquire floor loads. A
        // racing advance that misses this store holds a pre-boundary
        // candidate; the drain loop below waits on its confirm either way
        // (see the second floor check in `advance_inner`).
        shared.resize_floor.store(boundary, Ordering::Release);

        // Force every core off its pre-resize block by executing the
        // ordinary advancement procedure on its behalf (§4.4).
        for core in 0..shared.cfg.cores {
            loop {
                let local = shared.core_local(core);
                if local.pos >= boundary {
                    break;
                }
                shared.advance(core, local);
            }
        }

        // Close every metadata block still on a pre-resize round and wait
        // for the implicit reference counts to drain.
        let boundary_rnd = (boundary / a) as u32;
        let cap = shared.cap();
        let deadline = Instant::now() + DRAIN_DEADLINE;
        for (idx, meta) in shared.metas.iter().enumerate() {
            loop {
                let conf = meta.confirmed();
                if conf.rnd >= boundary_rnd || conf.pos >= cap {
                    break; // producers have left this metadata block
                }
                if let Close::Fill { rnd, pos } = meta.close(conf.rnd, cap) {
                    let gpos = rnd as u64 * a + idx as u64;
                    let map = shared.map(gpos);
                    shared.write_dummy_run(map.data_idx, pos, cap - pos);
                    meta.confirm(cap - pos);
                    shared.counters.bump(&shared.counters.closes);
                }
                if Instant::now() > deadline {
                    return Err(TraceError::ResizeTimeout { meta: idx });
                }
                crate::sync::spin_hint();
            }
        }

        if new_ratio < old.ratio && new_extent < old_extent {
            // Physically reclaim (§4.4) as soon as producers have drained.
            // A failed decommit leaves the shrink in effect logically (ratio,
            // capacity, floor, drain): keep `committed_extent` at the old
            // high-water mark so the next resize whose extent drops below it
            // retries, and report the deferral instead of failing a shrink
            // that producers already observe.
            let region = shared.data.region();
            let reclaimed =
                retry_backing_op(shared, || region.decommit(new_extent, old_extent - new_extent))
                    .is_ok();
            if reclaimed {
                shared.committed_extent.store(new_extent, Ordering::Release);
            }
            flip_degraded(shared, degraded::RECLAIM_DEFERRED, !reclaimed);
        }

        shared.counters.bump(&shared.counters.resizes);
        #[cfg(feature = "telemetry")]
        shared.telem.control(
            btrace_telemetry::EventKind::ResizeCommit,
            u64::from(new_ratio) * a,
            resize_t0.elapsed().as_nanos() as u64,
        );
        Ok(())
    }
}

/// Sets or clears a degradation bit and records the flip in the flight
/// recorder: every set, and a clear only of a bit that was set.
fn flip_degraded(shared: &Shared, bit: u64, set: bool) {
    let counters = &shared.counters;
    #[cfg(feature = "telemetry")]
    let was_set = counters.degraded_bits() & bit != 0;
    if set {
        counters.set_degraded(bit);
    } else {
        counters.clear_degraded(bit);
    }
    #[cfg(feature = "telemetry")]
    if set || was_set {
        let kind = if set {
            btrace_telemetry::EventKind::StateSet
        } else {
            btrace_telemetry::EventKind::StateClear
        };
        shared.telem.control(kind, bit, counters.degraded_bits());
    }
}

/// After recovering a poisoned resize lock: re-establish that the pages the
/// published ratio maps to are committed. The published ratio is the single
/// source of truth every mapping and the capacity bound read; a history
/// entry a dead resizer installed but never published is ignored, and the
/// next install replaces it.
fn revalidate_geometry(shared: &Shared) -> Result<(), TraceError> {
    let cur = shared.global_pos();
    let needed = extent_bytes(&shared.cfg, cur.ratio);
    let committed = shared.committed_extent.load(Ordering::Acquire);
    if committed < needed {
        // Cannot happen via the normal grow order (commit precedes publish),
        // but a recovered protocol re-establishes its invariants rather than
        // assuming them.
        let region = shared.data.region();
        retry_backing_op(shared, || region.commit(committed, needed - committed))?;
        shared.committed_extent.store(needed, Ordering::Release);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::BACKING_ATTEMPTS;
    use crate::consumer::tests::snapshot_of;
    use crate::{BTrace, Config, TraceError, TracerState};
    use btrace_vmem::{Backing, FaultPlan};

    fn resizable() -> BTrace {
        BTrace::new(
            Config::new(2)
                .active_blocks(4)
                .block_bytes(1024)
                .buffer_bytes(1024 * 4 * 2) // ratio 2
                .max_bytes(1024 * 4 * 8) // up to ratio 8
                .backing(Backing::Heap),
        )
        .unwrap()
    }

    #[test]
    fn grow_and_shrink_change_capacity() {
        let t = resizable();
        assert_eq!(t.capacity_blocks(), 8);
        t.resize_bytes(1024 * 4 * 8).unwrap();
        assert_eq!(t.capacity_blocks(), 32);
        t.resize_bytes(1024 * 4).unwrap();
        assert_eq!(t.capacity_blocks(), 4);
        assert_eq!(t.stats().resizes, 2);
    }

    #[test]
    fn invalid_targets_rejected() {
        let t = resizable();
        assert!(matches!(t.resize_bytes(0), Err(TraceError::InvalidResize(_))));
        assert!(matches!(t.resize_bytes(1000), Err(TraceError::InvalidResize(_))));
        assert!(matches!(t.resize_bytes(1024 * 4 * 64), Err(TraceError::InvalidResize(_))));
    }

    #[test]
    fn resize_to_current_size_is_noop() {
        let t = resizable();
        t.resize_bytes(1024 * 4 * 2).unwrap();
        assert_eq!(t.stats().resizes, 0);
    }

    #[test]
    fn events_survive_across_grow() {
        let t = resizable();
        let p = t.producer(0).unwrap();
        for i in 0..10u64 {
            p.record_with(i, 0, b"before-grow").unwrap();
        }
        t.resize_bytes(1024 * 4 * 8).unwrap();
        for i in 10..20u64 {
            p.record_with(i, 0, b"after-grow!").unwrap();
        }
        let out = snapshot_of(&t).to_events();
        let stamps: Vec<_> = out.iter().map(|e| e.stamp).collect();
        for i in 0..20 {
            assert!(stamps.contains(&i), "stamp {i} lost across grow: {stamps:?}");
        }
    }

    #[test]
    fn same_thread_resize_flushes_pending_coalesced_run() {
        // PR-7's discipline ("flush before a same-thread resize") used to be
        // convention only: the pending run pins its block's round, the drain
        // loop waits on that round, and the only thread able to flush is the
        // one inside the resize — a guaranteed stall into ResizeTimeout.
        // `resize_bytes` now flushes the calling thread's runs itself.
        let t = resizable();
        let p = t.producer(0).unwrap();
        p.set_confirm_coalescing(true);
        // A partial run: the block is not full, so nothing has flushed it.
        for i in 0..5u64 {
            p.record_with(i, 0, b"mid-run entry").unwrap();
        }
        let started = std::time::Instant::now();
        t.resize_bytes(1024 * 4 * 8).expect("same-thread resize must not time out");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(4),
            "resize stalled against the caller's own pending run"
        );
        // The flushed run is published and survives the grow; recording
        // continues coalesced afterwards.
        for i in 5..10u64 {
            p.record_with(i, 0, b"post-resize").unwrap();
        }
        p.flush_confirms();
        let out = snapshot_of(&t).to_events();
        let stamps: Vec<_> = out.iter().map(|e| e.stamp).collect();
        for i in 0..10 {
            assert!(stamps.contains(&i), "stamp {i} lost across coalesced resize: {stamps:?}");
        }
    }

    #[test]
    fn recording_continues_after_shrink() {
        let t = resizable();
        let p = t.producer(0).unwrap();
        for i in 0..200u64 {
            p.record_with(i, 0, b"some trace entry payload").unwrap();
        }
        t.resize_bytes(1024 * 4).unwrap();
        for i in 200..400u64 {
            p.record_with(i, 0, b"some trace entry payload").unwrap();
        }
        let out = snapshot_of(&t);
        assert_eq!(out.to_events().last().unwrap().stamp, 399);
        // Everything readable lives within the shrunken capacity.
        assert!(out.stored_bytes() <= t.capacity_bytes());
    }

    #[test]
    fn shrink_waits_for_open_grants() {
        use std::sync::mpsc;
        use std::time::Duration;
        let t = resizable();
        let p = t.producer(0).unwrap();
        let grant = p.begin(8).unwrap();

        let t2 = t.clone();
        let (tx, rx) = mpsc::channel();
        let shrinker = std::thread::spawn(move || {
            let result = t2.resize_bytes(1024 * 4);
            tx.send(()).unwrap();
            result
        });
        // The shrink must not complete while the grant is open.
        assert!(
            rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "shrink finished despite an unconfirmed grant"
        );
        grant.commit(1, 0, b"finally!").unwrap();
        shrinker.join().unwrap().unwrap();
    }

    #[test]
    fn poisoned_resize_lock_is_recovered_and_resize_succeeds() {
        let t = resizable();
        let p = t.producer(0).unwrap();
        for i in 0..20u64 {
            p.record_with(i, 0, b"pre-poison").unwrap();
        }
        // Panic while holding the resize lock, as a resize caller dying
        // mid-protocol would: unwinding past the guard poisons the mutex.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = t.shared.resize_lock.lock().unwrap();
            panic!("resize caller dies mid-resize");
        }));
        assert!(poison.is_err());
        assert!(t.shared.resize_lock.lock().is_err(), "lock must actually be poisoned");

        // The next resize recovers the lock instead of panicking.
        t.resize_bytes(1024 * 4 * 8).unwrap();
        assert_eq!(t.capacity_blocks(), 32);
        assert_eq!(t.stats().lock_recoveries, 1);
        match t.state() {
            TracerState::Degraded(d) => assert!(d.lock_recovered),
            TracerState::Healthy => panic!("lock recovery must be reported as degradation"),
        }
        // Producers and further resizes are unaffected.
        for i in 20..40u64 {
            p.record_with(i, 0, b"post-recov").unwrap();
        }
        t.resize_bytes(1024 * 4 * 2).unwrap();
        assert_eq!(t.stats().lock_recoveries, 1, "recovery happens once, not per resize");
    }

    #[test]
    fn failed_grow_falls_back_to_pre_resize_geometry() {
        // Every commit after construction fails: the grow must retry, give
        // up, and leave the pre-resize geometry fully intact.
        let plan = FaultPlan::new(0xBAD_C0DE).commit_failure_rate(1.0).arm_after_ops(1);
        let t = BTrace::new(
            Config::new(2)
                .active_blocks(4)
                .block_bytes(1024)
                .buffer_bytes(1024 * 4 * 2)
                .max_bytes(1024 * 4 * 8)
                .backing(Backing::Heap)
                .fault_plan(plan),
        )
        .unwrap();
        let p = t.producer(0).unwrap();
        for i in 0..50u64 {
            p.record_with(i, 0, b"pre-grow").unwrap();
        }
        let err = t.resize_bytes(1024 * 4 * 8).unwrap_err();
        assert!(matches!(err, TraceError::Region(_)), "got {err:?}");
        assert_eq!(t.capacity_blocks(), 8, "fallback must keep the old geometry");
        let s = t.stats();
        assert_eq!(s.resize_fallbacks, 1);
        assert_eq!(s.commit_failures, u64::from(BACKING_ATTEMPTS), "one bump per attempt");
        assert_eq!(s.resizes, 0, "a fallen-back resize never counts as completed");
        match t.state() {
            TracerState::Degraded(d) => {
                assert!(d.commit_failed);
                assert_eq!(d.stats.resize_fallbacks, 1);
            }
            TracerState::Healthy => panic!("fallback must surface as Degraded"),
        }
        // Producers never noticed: recording continues into surviving blocks.
        for i in 50..100u64 {
            p.record_with(i, 0, b"post-fail").unwrap();
        }
        assert_eq!(t.stats().records, 100);
        let faults = t.fault_stats().unwrap();
        assert_eq!(faults.commit_faults, u64::from(BACKING_ATTEMPTS));
    }

    #[test]
    fn failed_shrink_decommit_defers_reclaim_until_it_heals() {
        // Decommits fail exactly BACKING_ATTEMPTS times once armed, then the
        // plan goes quiet — the first shrink defers reclaim, the second
        // completes it.
        let plan = FaultPlan::new(7)
            .decommit_failure_rate(1.0)
            .arm_after_ops(2) // construction commit + grow commit
            .max_faults(u64::from(BACKING_ATTEMPTS));
        let t = BTrace::new(
            Config::new(2)
                .active_blocks(4)
                .block_bytes(1024)
                .buffer_bytes(1024 * 4 * 2)
                .max_bytes(1024 * 4 * 8)
                .backing(Backing::Heap)
                .fault_plan(plan),
        )
        .unwrap();
        t.resize_bytes(1024 * 4 * 8).unwrap();

        // Shrink: logically succeeds, physical reclaim is deferred.
        t.resize_bytes(1024 * 4).unwrap();
        assert_eq!(t.capacity_blocks(), 4, "logical shrink must take effect");
        match t.state() {
            TracerState::Degraded(d) => assert!(d.reclaim_deferred),
            TracerState::Healthy => panic!("deferred reclaim must surface as Degraded"),
        }
        assert_eq!(t.fault_stats().unwrap().decommit_faults, u64::from(BACKING_ATTEMPTS));

        // Growing back within the still-committed extent needs no commit at
        // all — the deferred pages are simply reused.
        t.resize_bytes(1024 * 4 * 8).unwrap();
        assert_eq!(t.fault_stats().unwrap().commit_faults, 0);

        // The next shrink retries the decommit (plan exhausted → succeeds)
        // and the degradation heals.
        t.resize_bytes(1024 * 4).unwrap();
        assert_eq!(t.state(), TracerState::Healthy);
        let s = t.stats();
        assert_eq!(s.commit_failures, u64::from(BACKING_ATTEMPTS));
        assert_eq!(s.resize_fallbacks, 0, "shrinks never fall back, they defer");
        assert_eq!(s.resizes, 4, "all four resizes completed, deferral included");
    }

    #[test]
    fn concurrent_producers_survive_resize_storm() {
        let t = resizable();
        let writers: Vec<_> = (0..2)
            .map(|c| {
                let p = t.producer(c).unwrap();
                std::thread::spawn(move || {
                    for i in 0..5000u64 {
                        p.record_with(i, c as u32, b"payload-under-resize").unwrap();
                    }
                })
            })
            .collect();
        for _ in 0..10 {
            t.resize_bytes(1024 * 4 * 8).unwrap();
            t.resize_bytes(1024 * 4).unwrap();
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(t.stats().records, 10_000);
        // When the final shrink lands after the last write it legitimately
        // recycles every pre-shrink block (the resize floor moves past
        // them), so an empty readout is valid. Record once more so the
        // readability assertion races with nothing.
        t.producer(0).unwrap().record_with(10_000, 0, b"payload-under-resize").unwrap();
        let out = snapshot_of(&t).to_events();
        assert!(!out.is_empty());
        for e in &out {
            assert_eq!(e.payload, b"payload-under-resize");
        }
    }
}
