//! # btrace-smr — epoch-based reclamation for trace consumers
//!
//! BTrace's *producers* never need a safe-memory-reclamation scheme: filling
//! a block is itself the end of an epoch, and the allocate/confirm counters
//! double as reference counts (*implicit reclaiming*, paper §3.3). Consumers,
//! however, are off the critical path, so the paper gives them "a simple EBR
//! directly" (§3.3) and the shrinker "traverses all consumers to ensure they
//! are not in the shrinking epoch and have left" (§4.4). This crate is that
//! simple EBR.
//!
//! * A consumer registers a [`Participant`] with the buffer's [`Domain`] and
//!   wraps every speculative block read in a [`Participant::pin`] guard.
//! * The shrinker calls [`Domain::synchronize`], which advances the global
//!   epoch and waits until every participant has either unpinned or observed
//!   the new epoch — after which no consumer can still hold a reference into
//!   the pages being decommitted.
//!
//! ```rust
//! use btrace_smr::Domain;
//!
//! let domain = Domain::new();
//! let consumer = domain.register();
//! {
//!     let _guard = consumer.pin();
//!     // ... speculatively read trace blocks ...
//! } // unpinned here
//! domain.synchronize(); // returns immediately: nobody is pinned
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use crossbeam_utils::CachePadded;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Slot value meaning "not currently pinned".
const QUIESCENT: u64 = 0;

struct Slot {
    /// `QUIESCENT`, or the epoch the participant pinned at.
    pinned_at: CachePadded<AtomicU64>,
}

struct Inner {
    /// Global epoch. Starts at 1 so that `QUIESCENT` (0) never collides with
    /// a real epoch value stored in a slot.
    epoch: CachePadded<AtomicU64>,
    participants: Mutex<Vec<Arc<Slot>>>,
    /// Epoch advances performed ([`Domain::advance`] / [`Domain::synchronize`]).
    advances: AtomicU64,
    /// Bounded grace waits started ([`Domain::wait_quiescent_bounded`]).
    grace_waits: AtomicU64,
    /// Bounded grace waits that gave up at their deadline with a participant
    /// still pinned in a pre-target epoch.
    grace_timeouts: AtomicU64,
}

/// A snapshot of a [`Domain`]'s reclamation counters.
///
/// The interesting invariant for callers is that `grace_timeouts` bounds how
/// often a stalled reader forced reclamation to be deferred: a shrinker that
/// uses [`Domain::wait_quiescent_bounded`] never spins past its deadline, so
/// `grace_timeouts <= grace_waits` and each timeout corresponds to exactly one
/// bounded (deadline-long) wait rather than an unbounded stall.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DomainStats {
    /// Number of epoch advances.
    pub advances: u64,
    /// Number of bounded grace waits started.
    pub grace_waits: u64,
    /// Number of bounded grace waits that hit their deadline.
    pub grace_timeouts: u64,
    /// Registered participants at snapshot time (including quiescent ones).
    pub participants: usize,
}

/// A reclamation domain: one per resizable buffer.
///
/// `Domain` is cheaply cloneable (it is an `Arc` internally); clones share
/// the same epoch and participant registry.
#[derive(Clone)]
pub struct Domain {
    inner: Arc<Inner>,
}

impl Domain {
    /// Creates an empty domain at epoch 1.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                epoch: CachePadded::new(AtomicU64::new(1)),
                participants: Mutex::new(Vec::new()),
                advances: AtomicU64::new(0),
                grace_waits: AtomicU64::new(0),
                grace_timeouts: AtomicU64::new(0),
            }),
        }
    }

    /// Registers a new participant (one per consumer thread).
    ///
    /// Participants may be dropped at any time; their slot is garbage
    /// collected during subsequent [`Domain::synchronize`] calls.
    pub fn register(&self) -> Participant {
        let slot = Arc::new(Slot { pinned_at: CachePadded::new(AtomicU64::new(QUIESCENT)) });
        self.inner
            .participants
            .lock()
            .expect("participant registry poisoned")
            .push(Arc::clone(&slot));
        Participant { slot, inner: Arc::clone(&self.inner) }
    }

    /// Current global epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// Advances the global epoch and blocks until every participant has left
    /// the previous epoch.
    ///
    /// On return, any memory made unreachable *before* this call can no
    /// longer be referenced by a pinned consumer: each participant is either
    /// quiescent or pinned at the new epoch (and therefore re-read the
    /// buffer's metadata after the caller's updates).
    ///
    /// This never blocks producers; only the (rare) shrinker waits here.
    pub fn synchronize(&self) {
        let target = self.advance();
        let mut spins = 0u32;
        while !self.sweep_quiescent_at(target) {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Non-blocking variant of [`Domain::synchronize`]: advances the epoch
    /// and returns a target to poll with [`Domain::quiescent_at`].
    pub fn advance(&self) -> u64 {
        self.inner.advances.fetch_add(1, Ordering::Relaxed);
        self.inner.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Polls [`Domain::sweep_quiescent_at`] until it succeeds or `deadline`
    /// passes, calling `pause` between polls. Returns `true` when the grace
    /// period completed, `false` on timeout (a participant is still pinned in
    /// a pre-`target` epoch).
    ///
    /// This is the *bounded* grace period a shrinker should use before
    /// physical reclamation: a reader that stalls while pinned (the classic
    /// EBR failure mode — see the neutralization discussion in DESIGN.md)
    /// costs at most one deadline per shrink instead of wedging the resize
    /// path forever. Outcomes are tallied in [`Domain::stats`] so tests can
    /// assert the bound.
    ///
    /// `pause` is a caller-supplied yield point so cooperative schedulers
    /// (e.g. the model runtime) get a scheduling opportunity per iteration.
    pub fn wait_quiescent_bounded(
        &self,
        target: u64,
        deadline: std::time::Instant,
        mut pause: impl FnMut(),
    ) -> bool {
        self.inner.grace_waits.fetch_add(1, Ordering::Relaxed);
        loop {
            if self.sweep_quiescent_at(target) {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                self.inner.grace_timeouts.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            pause();
        }
    }

    /// Snapshot of this domain's reclamation counters.
    pub fn stats(&self) -> DomainStats {
        DomainStats {
            advances: self.inner.advances.load(Ordering::Relaxed),
            grace_waits: self.inner.grace_waits.load(Ordering::Relaxed),
            grace_timeouts: self.inner.grace_timeouts.load(Ordering::Relaxed),
            participants: self.participants(),
        }
    }

    /// Whether every participant has left all epochs before `target`.
    pub fn quiescent_at(&self, target: u64) -> bool {
        let participants = self.inner.participants.lock().expect("participant registry poisoned");
        participants.iter().all(|slot| {
            let pinned = slot.pinned_at.load(Ordering::SeqCst);
            pinned == QUIESCENT || pinned >= target
        })
    }

    /// Like [`Domain::quiescent_at`], but also drops registry entries whose
    /// [`Participant`] has been dropped, so leaked threads cannot wedge the
    /// shrinker.
    ///
    /// Public so callers that must not block inside this crate (e.g. a
    /// cooperative scheduler that needs every wait iteration to be a yield
    /// point) can spell [`Domain::synchronize`] as `advance` + their own
    /// polling loop around this check.
    pub fn sweep_quiescent_at(&self, target: u64) -> bool {
        let mut participants =
            self.inner.participants.lock().expect("participant registry poisoned");
        participants.retain(|slot| Arc::strong_count(slot) > 1);
        participants.iter().all(|slot| {
            let pinned = slot.pinned_at.load(Ordering::SeqCst);
            pinned == QUIESCENT || pinned >= target
        })
    }

    /// Number of currently registered participants (including quiescent
    /// ones). Intended for diagnostics and tests.
    pub fn participants(&self) -> usize {
        self.inner.participants.lock().expect("participant registry poisoned").len()
    }
}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Domain")
            .field("epoch", &self.epoch())
            .field("participants", &self.participants())
            .finish()
    }
}

/// A registered consumer. Create with [`Domain::register`].
pub struct Participant {
    slot: Arc<Slot>,
    inner: Arc<Inner>,
}

impl Participant {
    /// Pins this participant at the current epoch. While the returned
    /// [`Guard`] lives, [`Domain::synchronize`] calls that advanced the epoch
    /// after this pin will wait for the guard to drop.
    ///
    /// Nested pins are allowed and keep the outermost epoch.
    pub fn pin(&self) -> Guard<'_> {
        if self.slot.pinned_at.load(Ordering::Relaxed) != QUIESCENT {
            return Guard { participant: self, nested: true };
        }
        loop {
            // Publish a pin at the current epoch, then re-check: if the epoch
            // advanced concurrently we must not appear pinned at an epoch the
            // shrinker may already have waited out.
            let epoch = self.inner.epoch.load(Ordering::SeqCst);
            self.slot.pinned_at.store(epoch, Ordering::SeqCst);
            if self.inner.epoch.load(Ordering::SeqCst) == epoch {
                return Guard { participant: self, nested: false };
            }
            self.slot.pinned_at.store(QUIESCENT, Ordering::SeqCst);
        }
    }

    /// Whether this participant currently holds a pin.
    pub fn is_pinned(&self) -> bool {
        self.slot.pinned_at.load(Ordering::SeqCst) != QUIESCENT
    }
}

impl fmt::Debug for Participant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Participant").field("pinned", &self.is_pinned()).finish()
    }
}

/// RAII pin token returned by [`Participant::pin`].
#[must_use = "dropping the guard immediately unpins the participant"]
pub struct Guard<'a> {
    participant: &'a Participant,
    nested: bool,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if !self.nested {
            self.participant.slot.pinned_at.store(QUIESCENT, Ordering::SeqCst);
        }
    }
}

impl fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard").field("nested", &self.nested).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn unpinned_synchronize_is_immediate() {
        let domain = Domain::new();
        let _p = domain.register();
        let before = domain.epoch();
        domain.synchronize();
        assert_eq!(domain.epoch(), before + 1);
    }

    #[test]
    fn pin_records_epoch_and_guard_clears_it() {
        let domain = Domain::new();
        let p = domain.register();
        assert!(!p.is_pinned());
        {
            let _g = p.pin();
            assert!(p.is_pinned());
        }
        assert!(!p.is_pinned());
    }

    #[test]
    fn nested_pins_keep_outer_epoch() {
        let domain = Domain::new();
        let p = domain.register();
        let g1 = p.pin();
        let g2 = p.pin();
        drop(g2);
        assert!(p.is_pinned(), "inner guard must not unpin the outer one");
        drop(g1);
        assert!(!p.is_pinned());
    }

    #[test]
    fn synchronize_waits_for_pinned_reader() {
        let domain = Domain::new();
        let p = domain.register();
        let released = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));

        let guard_flag = Arc::clone(&released);
        let reader = std::thread::spawn(move || {
            let g = p.pin();
            while !guard_flag.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            drop(g);
        });

        // Give the reader time to pin.
        while domain.participants() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));

        let d2 = domain.clone();
        let done2 = Arc::clone(&done);
        let shrinker = std::thread::spawn(move || {
            d2.synchronize();
            done2.store(true, Ordering::SeqCst);
        });

        std::thread::sleep(Duration::from_millis(50));
        assert!(!done.load(Ordering::SeqCst), "synchronize must wait for the pinned reader");
        released.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        shrinker.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn pin_after_advance_does_not_block_that_target() {
        let domain = Domain::new();
        let p = domain.register();
        let target = domain.advance();
        let _g = p.pin(); // pinned at the *new* epoch
        assert!(
            domain.quiescent_at(target),
            "a pin at the new epoch must not block the old target"
        );
    }

    #[test]
    fn dropped_participants_are_swept() {
        let domain = Domain::new();
        let p = domain.register();
        drop(p);
        assert_eq!(domain.participants(), 1, "sweep is lazy");
        domain.synchronize();
        assert_eq!(domain.participants(), 0, "synchronize sweeps dead participants");
    }

    #[test]
    fn many_readers_stress() {
        let domain = Domain::new();
        let stop = Arc::new(AtomicBool::new(false));
        // Every reader is live before the first synchronize.
        let start = Arc::new(std::sync::Barrier::new(5));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let p = domain.register();
                let stop = Arc::clone(&stop);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let mut pins = 0u64;
                    start.wait();
                    loop {
                        let _g = p.pin();
                        pins += 1;
                        std::hint::spin_loop();
                        if stop.load(Ordering::Relaxed) {
                            return pins;
                        }
                    }
                })
            })
            .collect();
        start.wait();
        for _ in 0..50 {
            domain.synchronize();
        }
        stop.store(true, Ordering::SeqCst);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0);
    }

    #[test]
    fn bounded_wait_times_out_under_a_stalled_reader() {
        let domain = Domain::new();
        let p = domain.register();
        let _g = p.pin(); // deliberately never released
        let target = domain.advance();
        let deadline = std::time::Instant::now() + Duration::from_millis(20);
        let ok = domain.wait_quiescent_bounded(target, deadline, std::thread::yield_now);
        assert!(!ok, "a stalled pre-target pin must time the wait out");
        let stats = domain.stats();
        assert_eq!(stats.grace_waits, 1);
        assert_eq!(stats.grace_timeouts, 1);
        assert!(stats.advances >= 1);
    }

    #[test]
    fn bounded_wait_succeeds_without_counting_a_timeout() {
        let domain = Domain::new();
        let _p = domain.register();
        let target = domain.advance();
        let deadline = std::time::Instant::now() + Duration::from_millis(20);
        assert!(domain.wait_quiescent_bounded(target, deadline, std::thread::yield_now));
        let stats = domain.stats();
        assert_eq!(stats.grace_waits, 1);
        assert_eq!(stats.grace_timeouts, 0);
    }

    #[test]
    fn domain_and_participant_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Domain>();
        assert_send::<Participant>();
    }
}
