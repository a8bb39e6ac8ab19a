//! Per-metadata-block state and its lock-free transitions (paper §4.1–§4.2).
//!
//! A [`MetaBlock`] holds the two variables of Fig. 8: `Allocated` and
//! `Confirmed`, each packing `(rnd, pos)` ([`RndPos`]). The transitions are:
//!
//! * **allocate** — fetch-and-add on `Allocated.pos` (fast path);
//! * **confirm** — fetch-and-add on `Confirmed.pos` (out-of-order, §3.4);
//! * **close** — CAS `Allocated.pos` up to capacity so no further space can
//!   be handed out (§3.2), returning the dummy range to fill;
//! * **lock** — CAS `Confirmed` from `(r_prev, cap)` to `(r_new, 0)` to take
//!   exclusive ownership of the data block for a new round (§4.2 step ④);
//! * **reset** — CAS `Allocated` to `(r_new, header)` to begin the round
//!   (§4.2 step ⑥).
//!
//! Invariants maintained across these transitions:
//!
//! 1. `Confirmed.pos` counts bytes confirmed in the current round and never
//!    exceeds the block capacity.
//! 2. The round of `Confirmed` only advances through **lock**, which
//!    requires `Confirmed.pos == cap`; therefore any producer holding an
//!    unconfirmed in-capacity allocation *pins* the round — this is the
//!    implicit reference counting of §3.3.
//! 3. `Allocated.pos` may overshoot capacity; positions at or beyond
//!    capacity never correspond to writable space.

use crate::packed::RndPos;
use crate::sync::{AtomicU64, Ordering};
use btrace_telemetry::CachePadded;

/// Result of a fast-path allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Alloc {
    /// Space `[pos, pos + need)` granted within the expected round.
    Fits {
        /// Start offset of the granted range.
        pos: u32,
    },
    /// The allocation crossed the capacity boundary: the caller owns the
    /// tail `[pos, cap)` and must dummy-fill and confirm it, then advance.
    Tail {
        /// Start of the tail the caller must dummy-fill.
        pos: u32,
    },
    /// The block was already exhausted (`pos >= cap`); advance.
    Exhausted,
    /// The allocation landed in a different round than expected (the caller
    /// is a straggler, §3.4); the actual round and position are returned so
    /// the caller can repair.
    Stale(RndPos),
}

/// Outcome of [`MetaBlock::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Close {
    /// The closer owns `[pos, cap)` of round `rnd` and must dummy-fill and
    /// confirm it.
    Fill {
        /// Round that was closed.
        rnd: u32,
        /// Start of the range to dummy-fill.
        pos: u32,
    },
    /// Nothing to do: allocation had already reached capacity.
    AlreadyFull,
}

/// One metadata block (128 bytes: two cache-padded atomics), managing
/// `Ratio` data blocks over its lifetime.
#[derive(Debug)]
pub(crate) struct MetaBlock {
    allocated: CachePadded<AtomicU64>,
    confirmed: CachePadded<AtomicU64>,
}

impl MetaBlock {
    /// Creates a metadata block that looks like it finished round 0 of an
    /// empty history: `Confirmed == (0, cap)`, so the first real round (>= 1)
    /// can lock it immediately.
    pub(crate) fn genesis(cap: u32) -> Self {
        Self {
            allocated: CachePadded::new(AtomicU64::new(RndPos::new(0, cap).to_raw())),
            confirmed: CachePadded::new(AtomicU64::new(RndPos::new(0, cap).to_raw())),
        }
    }

    pub(crate) fn allocated(&self) -> RndPos {
        RndPos::from_raw(self.allocated.load(Ordering::Acquire))
    }

    pub(crate) fn confirmed(&self) -> RndPos {
        RndPos::from_raw(self.confirmed.load(Ordering::Acquire))
    }

    /// Fast-path allocation: fetch-and-add `need` bytes expecting round
    /// `rnd` in a block of `cap` bytes.
    ///
    /// Ordering: `Acquire`, not `AcqRel`. The acquire side is load-bearing —
    /// it synchronizes with the `reset_allocated` release that began this
    /// round, so the granted range is known to lie past the prior round's
    /// contents (the block header and reset happen-before every allocation
    /// that observes the new round; a mismatch is caught as `Stale`). The
    /// release side is *not* needed: an allocation publishes nothing — the
    /// entry bytes written into the granted range are published by the
    /// subsequent [`MetaBlock::confirm`] release, never by the allocate.
    #[inline]
    pub(crate) fn alloc(&self, rnd: u32, need: u32, cap: u32) -> Alloc {
        let old = RndPos::from_raw(self.allocated.fetch_add(need as u64, Ordering::Acquire));
        if old.rnd != rnd {
            return Alloc::Stale(old);
        }
        if old.pos >= cap {
            Alloc::Exhausted
        } else if old.pos as u64 + need as u64 <= cap as u64 {
            Alloc::Fits { pos: old.pos }
        } else {
            Alloc::Tail { pos: old.pos }
        }
    }

    /// Confirms `len` bytes of the current round.
    ///
    /// Safe as a plain fetch-and-add because the caller holds an unconfirmed
    /// in-capacity allocation of the same round, which pins the round
    /// (invariant 2 above).
    ///
    /// Ordering: `Release`, not `AcqRel`. This is the *publication point* of
    /// the entry bytes: the consumer's acquire load of `Confirmed` (and the
    /// next round owner's `lock` CAS, which reads `Confirmed == (rnd, cap)`)
    /// synchronize with it, ordering the payload writes before any reuse or
    /// read. The acquire side is not needed: the confirmer takes no action
    /// based on the returned value and reads nothing another confirm
    /// published.
    #[inline]
    pub(crate) fn confirm(&self, len: u32) {
        self.confirmed.fetch_add(len as u64, Ordering::Release);
    }

    /// Closes the current allocation round `rnd`: raises `Allocated.pos` to
    /// `cap` so no new space is granted (§3.2).
    ///
    /// Returns the dummy range the **caller** must fill and confirm. If a
    /// concurrent allocation interleaves, the CAS retries; if the round has
    /// already moved past `rnd`, there is nothing to close.
    pub(crate) fn close(&self, rnd: u32, cap: u32) -> Close {
        let mut cur = RndPos::from_raw(self.allocated.load(Ordering::Acquire));
        loop {
            if cur.rnd != rnd || cur.pos >= cap {
                return Close::AlreadyFull;
            }
            match self.allocated.compare_exchange_weak(
                cur.to_raw(),
                RndPos::new(rnd, cap).to_raw(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Close::Fill { rnd, pos: cur.pos },
                Err(actual) => cur = RndPos::from_raw(actual),
            }
        }
    }

    /// Attempts to lock the data block for round `rnd_new` (§4.2 step ④):
    /// CAS `Confirmed` from `(expected_prev_rnd, cap)` to `(rnd_new, 0)`.
    pub(crate) fn lock(&self, expected: RndPos, rnd_new: u32) -> bool {
        self.confirmed
            .compare_exchange(
                expected.to_raw(),
                RndPos::new(rnd_new, 0).to_raw(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Resets `Allocated` for the freshly locked round (§4.2 step ⑥). The
    /// CAS loop absorbs straggler inflation of the stale value; it cannot
    /// race another reset because the lock serializes round owners.
    pub(crate) fn reset_allocated(&self, rnd_new: u32, header_len: u32) {
        let mut cur = self.allocated.load(Ordering::Acquire);
        loop {
            match self.allocated.compare_exchange_weak(
                cur,
                RndPos::new(rnd_new, header_len).to_raw(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: u32 = 256;

    #[test]
    fn genesis_is_lockable() {
        let m = MetaBlock::genesis(CAP);
        assert!(m.lock(RndPos::new(0, CAP), 1));
        assert_eq!(m.confirmed(), RndPos::new(1, 0));
        m.reset_allocated(1, 16);
        assert_eq!(m.allocated(), RndPos::new(1, 16));
    }

    #[test]
    fn alloc_fits_then_tail_then_exhausted() {
        let m = MetaBlock::genesis(CAP);
        assert!(m.lock(RndPos::new(0, CAP), 1));
        m.reset_allocated(1, 0);
        assert_eq!(m.alloc(1, 200, CAP), Alloc::Fits { pos: 0 });
        assert_eq!(m.alloc(1, 100, CAP), Alloc::Tail { pos: 200 });
        assert_eq!(m.alloc(1, 8, CAP), Alloc::Exhausted);
    }

    #[test]
    fn alloc_detects_stale_round() {
        let m = MetaBlock::genesis(CAP);
        assert!(m.lock(RndPos::new(0, CAP), 1));
        m.reset_allocated(1, 0);
        match m.alloc(7, 16, CAP) {
            Alloc::Stale(actual) => {
                assert_eq!(actual.rnd, 1);
                assert_eq!(actual.pos, 0);
            }
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    #[test]
    fn close_returns_fill_range_once() {
        let m = MetaBlock::genesis(CAP);
        assert!(m.lock(RndPos::new(0, CAP), 1));
        m.reset_allocated(1, 16);
        assert_eq!(m.close(1, CAP), Close::Fill { rnd: 1, pos: 16 });
        assert_eq!(m.close(1, CAP), Close::AlreadyFull);
        assert_eq!(m.close(2, CAP), Close::AlreadyFull); // wrong round
        assert_eq!(m.alloc(1, 8, CAP), Alloc::Exhausted);
    }

    #[test]
    fn lock_requires_full_confirmation() {
        let m = MetaBlock::genesis(CAP);
        assert!(m.lock(RndPos::new(0, CAP), 1));
        m.reset_allocated(1, 0);
        assert_eq!(m.alloc(1, 64, CAP), Alloc::Fits { pos: 0 });
        m.confirm(32); // only half confirmed
        assert!(!m.lock(RndPos::new(1, CAP), 2), "must not lock with unconfirmed bytes");
        m.confirm(32);
        // Block is not full (only 64 of 256 confirmed): still not lockable.
        assert!(!m.lock(RndPos::new(1, CAP), 2));
        // Close and fill the rest, confirming it.
        if let Close::Fill { pos, .. } = m.close(1, CAP) {
            m.confirm(CAP - pos);
        } else {
            panic!("expected fill");
        }
        assert!(m.lock(RndPos::new(1, CAP), 2));
    }

    #[test]
    fn unconfirmed_allocation_pins_the_round() {
        let m = MetaBlock::genesis(CAP);
        assert!(m.lock(RndPos::new(0, CAP), 1));
        m.reset_allocated(1, 0);
        assert_eq!(m.alloc(1, 64, CAP), Alloc::Fits { pos: 0 });
        // Close the block around the unconfirmed allocation.
        if let Close::Fill { pos, .. } = m.close(1, CAP) {
            m.confirm(CAP - pos);
        }
        // confirmed = CAP - 64: lock must fail until the straggler confirms.
        assert!(!m.lock(RndPos::new(1, CAP), 2));
        m.confirm(64);
        assert!(m.lock(RndPos::new(1, CAP), 2));
    }

    #[test]
    fn concurrent_alloc_confirm_converges() {
        use std::sync::Arc;
        let m = Arc::new(MetaBlock::genesis(1 << 20));
        assert!(m.lock(RndPos::new(0, 1 << 20), 1));
        m.reset_allocated(1, 0);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        if let Alloc::Fits { .. } = m.alloc(1, 16, 1 << 20) {
                            m.confirm(16);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.allocated().pos, 4 * 1000 * 16);
        assert_eq!(m.confirmed().pos, 4 * 1000 * 16);
    }
}
