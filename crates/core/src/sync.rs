//! Synchronization facade for the lock-free core.
//!
//! Every synchronization primitive the core algorithm relies on — the
//! `Allocated`/`Confirmed` metadata atomics, the global and core-local
//! `ratio_and_pos` words, the resize lock — is imported from this module
//! instead of `std::sync` directly. The facade has two personalities:
//!
//! * **Default builds** re-export the `std` types verbatim. There is no
//!   wrapper struct, no extra branch, no thread-local lookup: the facade
//!   compiles to exactly the code the core used before it existed, so the
//!   fast path pays zero overhead.
//! * **Under the `model` feature** the atomic types are replaced by
//!   instrumented wrappers whose every load/store/RMW first crosses a
//!   *yield point* ([`model_rt::yield_point`]). A deterministic scheduler
//!   (the `btrace-model` crate) installs a per-thread [`model_rt::Gate`]
//!   that blocks the thread at each yield point until the scheduler hands
//!   it the run token, which makes every interleaving of the lock-free
//!   protocol reproducible from a single `u64` seed.
//!
//! Threads with no gate installed (construction on the harness thread,
//! ordinary tests that happen to link a `model`-enabled core) fall through
//! to the plain operation, so enabling the feature never changes behavior —
//! it only adds scheduling hooks.
//!
//! What is deliberately **not** routed through the facade:
//!
//! * the data region's word atomics (`raw.rs`) — payload copies are already
//!   plain relaxed operations whose ordering is established externally by
//!   `Confirmed`; modeling every payload word would explode the schedule
//!   space without adding decision points to the protocol;
//! * the diagnostic counters (`stats.rs`) and telemetry — observability,
//!   not synchronization;
//! * the ratio history (`layout.rs`) — readers follow plain atomic
//!   pointers, and the install mutex's critical section contains no facade
//!   operation, so a modeled thread can never be parked while holding it.
//!
//! # Memory-ordering audit
//!
//! The hot-path orderings were audited and weakened to the minimum each
//! invariant needs; the justification lives as a comment at each site:
//!
//! * `MetaBlock::alloc` — `Acquire` RMW (synchronizes with the
//!   `reset_allocated` release that began the round; allocation publishes
//!   nothing, so no release side). Intermediate `fetch_add`s preserve the
//!   release sequence, so an alloc that reads from another alloc still
//!   synchronizes with the reset.
//! * `MetaBlock::confirm` — `Release` fetch-and-add (the publication point
//!   of entry bytes; readers pair with an acquire load, the next round
//!   owner with the `lock` CAS).
//! * `Shared::global_pos` / advance's claim fetch-and-add — `Acquire`
//!   (resizes are serialized by `resize_lock`; claiming publishes nothing).
//! * `core_local` — `Acquire` loads, `AcqRel` CAS: a producer maps with the
//!   word's ratio, so it must see the history entry the claimer saw.
//! * the resize CAS on the global word — `AcqRel`: its release side
//!   publishes the pages committed and the history entry installed before
//!   it. The capacity bound is the word's ratio, so it needs no store.
//! * `resize_floor`, `committed_extent` — release stores under the resize
//!   lock, acquire loads at readers; the resize drain loop is the backstop
//!   for any racing advance.
//!
//! Note the model checker (`model_rt`) explores *interleavings* at these
//! yield points but executes on the host's (x86-TSO or ARM) memory model —
//! it validates the protocol's state machine under every schedule, not the
//! relaxations themselves; those rest on the written invariant arguments.

pub(crate) use std::sync::atomic::{fence, Ordering};
pub(crate) use std::sync::Arc;

#[cfg(not(feature = "model"))]
pub(crate) use std::sync::atomic::{AtomicU64, AtomicUsize};
#[cfg(not(feature = "model"))]
pub(crate) use std::sync::Mutex;

/// Polite busy-wait pause: lets another thread run before the caller
/// re-checks a condition it cannot make progress on (the resize drain
/// loop).
#[cfg(not(feature = "model"))]
#[inline]
pub(crate) fn spin_hint() {
    std::thread::yield_now();
}

/// Pause on a lock-free retry path whose progress depends on *other*
/// threads (all advancement candidates pinned by unconfirmed writes). In
/// production this is a plain CPU pause — the retry loop is already
/// obtaining fresh candidates, so an OS yield would only add latency. Under
/// the model it must deprioritize the caller, or a priority schedule would
/// starve the very thread whose confirm the retry is waiting on.
#[cfg(not(feature = "model"))]
#[inline]
pub(crate) fn contention_hint() {
    std::hint::spin_loop();
}

/// Where a reader's §4.3 copy starts: free in production, a yield point
/// under the model, so schedules can put a whole resize between a reader's
/// checks and its copy.
#[cfg(not(feature = "model"))]
#[inline]
pub(crate) fn preemption_point() {}

#[cfg(feature = "model")]
pub(crate) use self::model_rt::{
    contention_hint, spin_hint, yield_point as preemption_point, AtomicU64, AtomicUsize, Mutex,
};

/// Model-checking runtime: the scheduler hook the instrumented facade types
/// call into, public so a deterministic-scheduler harness (the
/// `btrace-model` crate) can drive the core's interleavings.
#[cfg(feature = "model")]
pub mod model_rt {
    use std::cell::RefCell;
    use std::sync::atomic::Ordering;
    use std::sync::{Arc, LockResult, MutexGuard, TryLockError};

    /// A per-thread scheduling gate. The deterministic scheduler implements
    /// this and installs one instance per modeled thread; the facade calls
    /// it at every synchronization operation.
    pub trait Gate: Send + Sync {
        /// Called before every atomic operation: block until the scheduler
        /// grants this thread the run token.
        fn yield_point(&self);

        /// Like [`Gate::yield_point`], but hints that the thread is spinning
        /// on a condition only *another* thread can change (lock acquisition,
        /// drain loops). Priority-based schedules must deprioritize the
        /// caller here or the spin would starve the thread it waits on.
        fn yield_spin(&self);
    }

    thread_local! {
        static GATE: RefCell<Option<Arc<dyn Gate>>> = const { RefCell::new(None) };
    }

    /// Installs `gate` as the current thread's scheduler hook.
    pub fn install(gate: Arc<dyn Gate>) {
        GATE.with(|g| *g.borrow_mut() = Some(gate));
    }

    /// Removes the current thread's scheduler hook (no-op when none is
    /// installed).
    pub fn uninstall() {
        GATE.with(|g| *g.borrow_mut() = None);
    }

    /// Crosses a yield point: blocks until the installed gate schedules this
    /// thread. Threads without a gate pass straight through.
    #[inline]
    pub fn yield_point() {
        let gate = GATE.with(|g| g.borrow().as_ref().cloned());
        if let Some(gate) = gate {
            gate.yield_point();
        }
    }

    /// Crosses a spinning yield point (see [`Gate::yield_spin`]).
    #[inline]
    pub fn yield_spin() {
        let gate = GATE.with(|g| g.borrow().as_ref().cloned());
        match gate {
            Some(gate) => gate.yield_spin(),
            None => std::thread::yield_now(),
        }
    }

    /// Facade spin pause under the model: a deprioritizing yield.
    #[inline]
    pub(crate) fn spin_hint() {
        yield_spin();
    }

    /// Lock-free contention pause under the model: also a deprioritizing
    /// yield (see the non-model twin for why the production version is a
    /// plain CPU pause instead).
    #[inline]
    pub(crate) fn contention_hint() {
        yield_spin();
    }

    /// Instrumented drop-in for [`std::sync::atomic::AtomicU64`]: every
    /// operation is a scheduler yield point.
    ///
    /// `compare_exchange_weak` is strengthened to the strong variant so a
    /// spurious hardware failure can never desynchronize a seed replay.
    #[derive(Debug, Default)]
    pub struct AtomicU64 {
        inner: std::sync::atomic::AtomicU64,
    }

    impl AtomicU64 {
        /// Creates a new instrumented atomic.
        pub const fn new(v: u64) -> Self {
            Self { inner: std::sync::atomic::AtomicU64::new(v) }
        }

        /// Atomic load, preceded by a yield point.
        #[inline]
        pub fn load(&self, order: Ordering) -> u64 {
            yield_point();
            self.inner.load(order)
        }

        /// Atomic store, preceded by a yield point.
        #[inline]
        pub fn store(&self, val: u64, order: Ordering) {
            yield_point();
            self.inner.store(val, order);
        }

        /// Atomic fetch-and-add, preceded by a yield point.
        #[inline]
        pub fn fetch_add(&self, val: u64, order: Ordering) -> u64 {
            yield_point();
            self.inner.fetch_add(val, order)
        }

        /// Atomic compare-exchange, preceded by a yield point.
        #[inline]
        pub fn compare_exchange(
            &self,
            current: u64,
            new: u64,
            success: Ordering,
            failure: Ordering,
        ) -> Result<u64, u64> {
            yield_point();
            self.inner.compare_exchange(current, new, success, failure)
        }

        /// Atomic compare-exchange, preceded by a yield point. Deliberately
        /// the strong variant (no spurious failures) for replay determinism.
        #[inline]
        pub fn compare_exchange_weak(
            &self,
            current: u64,
            new: u64,
            success: Ordering,
            failure: Ordering,
        ) -> Result<u64, u64> {
            yield_point();
            self.inner.compare_exchange(current, new, success, failure)
        }
    }

    /// Instrumented drop-in for [`std::sync::atomic::AtomicUsize`].
    #[derive(Debug, Default)]
    pub struct AtomicUsize {
        inner: std::sync::atomic::AtomicUsize,
    }

    impl AtomicUsize {
        /// Creates a new instrumented atomic.
        pub const fn new(v: usize) -> Self {
            Self { inner: std::sync::atomic::AtomicUsize::new(v) }
        }

        /// Atomic load, preceded by a yield point.
        #[inline]
        pub fn load(&self, order: Ordering) -> usize {
            yield_point();
            self.inner.load(order)
        }

        /// Atomic store, preceded by a yield point.
        #[inline]
        pub fn store(&self, val: usize, order: Ordering) {
            yield_point();
            self.inner.store(val, order);
        }
    }

    /// Instrumented drop-in for [`std::sync::Mutex`]: acquisition spins on
    /// `try_lock` with deprioritizing yields instead of blocking in the OS,
    /// so a modeled thread parked at a yield point while holding the lock
    /// can always be scheduled to release it.
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Creates a new instrumented mutex.
        pub const fn new(t: T) -> Self {
            Self { inner: std::sync::Mutex::new(t) }
        }

        /// Acquires the lock, yielding to the scheduler between attempts.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            loop {
                yield_point();
                match self.inner.try_lock() {
                    Ok(guard) => return Ok(guard),
                    Err(TryLockError::Poisoned(poisoned)) => return Err(poisoned),
                    Err(TryLockError::WouldBlock) => yield_spin(),
                }
            }
        }

        /// Clears the poison flag, mirroring
        /// [`std::sync::Mutex::clear_poison`].
        pub fn clear_poison(&self) {
            self.inner.clear_poison();
        }
    }
}
