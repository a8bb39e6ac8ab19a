use crate::bitmap::PageBitmap;
use crate::error::{CommitFault, RegionError};
use crate::fault::{
    CommitDecision, DecommitDecision, FaultInjector, FaultPlan, FaultStats, ENOMEM,
};
use crate::heap::HeapBacking;
use crate::PAGE_SIZE;

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
use crate::mmap::MmapBacking;

/// Which mechanism backs a [`Region`]'s reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Backing {
    /// Anonymous `mmap` reservation with `madvise(MADV_DONTNEED)` decommit.
    /// Only available on Linux `x86_64`/`aarch64`; falls back to [`Heap`]
    /// elsewhere.
    ///
    /// [`Heap`]: Backing::Heap
    Mmap,
    /// A plain heap allocation; decommit poisons the range (`0xDE` bytes)
    /// and updates bookkeeping, in every build. Fully portable and
    /// deterministic for tests.
    Heap,
}

impl Default for Backing {
    /// The platform's best available backing: [`Backing::Mmap`] where
    /// supported, otherwise [`Backing::Heap`].
    fn default() -> Self {
        if cfg!(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))) {
            Backing::Mmap
        } else {
            Backing::Heap
        }
    }
}

enum BackingImpl {
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    Mmap(MmapBacking),
    Heap(HeapBacking),
}

/// A contiguous reserved address range whose pages can be committed and
/// decommitted at [`PAGE_SIZE`] granularity.
///
/// The region's base address is stable for its whole lifetime, which is what
/// allows BTrace to resize the trace buffer by only changing a ratio in its
/// global metadata (§3.3/§4.4) while producers keep using plain offsets.
///
/// # Concurrency
///
/// `Region` is `Send + Sync`; committed bytes are raw shared memory and the
/// *caller* is responsible for data-race freedom (BTrace guarantees it by
/// handing each byte range to exactly one producer via fetch-and-add).
///
/// # Decommitted ranges may be read, never written
///
/// Decommit never unmaps: a decommitted range reads as zeros (mmap) or
/// poison bytes (heap), never faults, and must not be written until
/// [`Region::commit`] zeroes it again. The heap backend fills with
/// `Release` word stores in address order, so a reader racing a commit or
/// decommit with word-atomic loads is not a data race.
///
/// # Examples
///
/// ```rust
/// use btrace_vmem::{Backing, Region, PAGE_SIZE};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let region = Region::reserve_with(8 * PAGE_SIZE, Backing::Heap)?;
/// region.commit(0, 8 * PAGE_SIZE)?;
/// assert_eq!(region.committed_bytes(), 8 * PAGE_SIZE);
/// # Ok(())
/// # }
/// ```
pub struct Region {
    backing: BackingImpl,
    bitmap: PageBitmap,
    max_bytes: usize,
    faults: Option<FaultInjector>,
}

impl Region {
    /// Reserves `max_bytes` of address space using the default backing for
    /// the platform. No pages are committed yet.
    ///
    /// # Errors
    ///
    /// Returns [`RegionError::InvalidSize`] when `max_bytes` is zero or not a
    /// multiple of [`PAGE_SIZE`], and [`RegionError::ReserveFailed`] when the
    /// OS refuses the reservation.
    pub fn reserve(max_bytes: usize) -> Result<Self, RegionError> {
        Self::reserve_with(max_bytes, Backing::default())
    }

    /// Reserves `max_bytes` with an explicit [`Backing`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Region::reserve`].
    pub fn reserve_with(max_bytes: usize, backing: Backing) -> Result<Self, RegionError> {
        Self::reserve_inner(max_bytes, backing, None)
    }

    /// Reserves `max_bytes` with a deterministic [`FaultPlan`] wrapped around
    /// the backing: commits and decommits consult the plan's seed-replayable
    /// schedule and may fail, partially commit, or defer, exactly as the OS
    /// can under memory pressure. See [`crate::fault`] for the schedule
    /// semantics and [`Region::fault_stats`] for the injection counts.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Region::reserve`] (reservation itself is never
    /// fault-injected — a tracer that cannot reserve has nothing to degrade).
    pub fn reserve_with_faults(
        max_bytes: usize,
        backing: Backing,
        plan: FaultPlan,
    ) -> Result<Self, RegionError> {
        Self::reserve_inner(max_bytes, backing, Some(FaultInjector::new(plan)))
    }

    fn reserve_inner(
        max_bytes: usize,
        backing: Backing,
        faults: Option<FaultInjector>,
    ) -> Result<Self, RegionError> {
        if max_bytes == 0 || !max_bytes.is_multiple_of(PAGE_SIZE) {
            return Err(RegionError::InvalidSize { requested: max_bytes });
        }
        let backing = match backing {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Backing::Mmap => BackingImpl::Mmap(MmapBacking::reserve(max_bytes)?),
            #[cfg(not(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            )))]
            Backing::Mmap => BackingImpl::Heap(HeapBacking::reserve(max_bytes)?),
            Backing::Heap => BackingImpl::Heap(HeapBacking::reserve(max_bytes)?),
        };
        Ok(Self { backing, bitmap: PageBitmap::new(max_bytes / PAGE_SIZE), max_bytes, faults })
    }

    /// Injection counts when the region was reserved with
    /// [`Region::reserve_with_faults`]; `None` otherwise.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(FaultInjector::stats)
    }

    /// Total reserved size in bytes.
    pub fn len(&self) -> usize {
        self.max_bytes
    }

    /// Whether the reservation is empty (never true: reservations are
    /// validated to be non-zero).
    pub fn is_empty(&self) -> bool {
        self.max_bytes == 0
    }

    /// Which backing actually materialized.
    pub fn backing(&self) -> Backing {
        match self.backing {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            BackingImpl::Mmap(_) => Backing::Mmap,
            BackingImpl::Heap(_) => Backing::Heap,
        }
    }

    /// Base pointer of the reservation.
    ///
    /// Dereferencing is only sound for committed ranges, and only under the
    /// caller's own synchronization.
    pub fn as_ptr(&self) -> *mut u8 {
        match &self.backing {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            BackingImpl::Mmap(m) => m.as_ptr(),
            BackingImpl::Heap(h) => h.as_ptr(),
        }
    }

    fn validate(&self, offset: usize, len: usize) -> Result<(), RegionError> {
        let aligned = offset.is_multiple_of(PAGE_SIZE) && len.is_multiple_of(PAGE_SIZE);
        let in_bounds =
            len != 0 && offset.checked_add(len).is_some_and(|end| end <= self.max_bytes);
        if aligned && in_bounds {
            Ok(())
        } else {
            Err(RegionError::InvalidRange { offset, len, region: self.max_bytes })
        }
    }

    /// Commits the page-aligned range `[offset, offset + len)`, making it
    /// readable and writable and guaranteeing it reads as zero until written.
    ///
    /// Committing an already-committed page is permitted and **re-zeroes**
    /// it; BTrace only commits fresh ranges during growth, so this case does
    /// not arise there.
    ///
    /// # Errors
    ///
    /// [`RegionError::InvalidRange`] on misaligned or out-of-bounds ranges;
    /// [`RegionError::CommitFailed`] when the OS call fails.
    pub fn commit(&self, offset: usize, len: usize) -> Result<(), RegionError> {
        self.validate(offset, len)?;
        if let Some(inj) = &self.faults {
            let (decision, due) = inj.on_commit(offset, len);
            self.flush_deferred(due);
            match decision {
                CommitDecision::Proceed => {}
                CommitDecision::Fail { errno } => {
                    return Err(RegionError::CommitFailed { errno });
                }
                CommitDecision::Partial { prefix } => {
                    // Materialize the prefix for real so the rollback path
                    // below has actual backing state to undo.
                    let committed = match self.backing_commit(offset, prefix) {
                        Ok(()) => prefix,
                        Err(f) => f.committed,
                    };
                    return Err(
                        self.rollback_partial(offset, CommitFault { errno: ENOMEM, committed })
                    );
                }
            }
        }
        match self.backing_commit(offset, len) {
            Ok(()) => {
                self.bitmap.set_range(offset / PAGE_SIZE, len / PAGE_SIZE, true);
                Ok(())
            }
            Err(fault) => Err(self.rollback_partial(offset, fault)),
        }
    }

    /// A mid-range commit failure leaves a committed prefix the bitmap knows
    /// nothing about; decommit it so the two views cannot diverge and commit
    /// stays observably all-or-nothing.
    fn rollback_partial(&self, offset: usize, fault: CommitFault) -> RegionError {
        if fault.committed > 0 {
            let _ = self.backing_decommit(offset, fault.committed);
        }
        RegionError::CommitFailed { errno: fault.errno }
    }

    fn backing_commit(&self, offset: usize, len: usize) -> Result<(), CommitFault> {
        match &self.backing {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            BackingImpl::Mmap(m) => m.commit(offset, len),
            BackingImpl::Heap(h) => h.commit(offset, len),
        }
    }

    fn backing_decommit(&self, offset: usize, len: usize) -> Result<(), RegionError> {
        match &self.backing {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            BackingImpl::Mmap(m) => m.decommit(offset, len),
            BackingImpl::Heap(h) => h.decommit(offset, len),
        }
    }

    /// Applies deferred decommits that have come due on the injector's
    /// operation clock. Best-effort: deferral already reported success.
    fn flush_deferred(&self, due: Vec<(usize, usize)>) {
        for (offset, len) in due {
            let _ = self.backing_decommit(offset, len);
        }
    }

    /// Decommits the page-aligned range `[offset, offset + len)`, returning
    /// physical memory to the OS (mmap backing) or poisoning it (heap
    /// backing).
    ///
    /// The caller must guarantee no thread will *write* the range until it
    /// is committed again — this is exactly what BTrace's implicit
    /// reclamation protocol (§3.3) establishes before calling this.
    ///
    /// # Errors
    ///
    /// [`RegionError::InvalidRange`] on misaligned or out-of-bounds ranges;
    /// [`RegionError::CommitFailed`] when the OS call fails.
    pub fn decommit(&self, offset: usize, len: usize) -> Result<(), RegionError> {
        self.validate(offset, len)?;
        if let Some(inj) = &self.faults {
            let (decision, due) = inj.on_decommit(offset, len);
            self.flush_deferred(due);
            match decision {
                DecommitDecision::Proceed => {}
                DecommitDecision::Fail { errno } => {
                    return Err(RegionError::CommitFailed { errno });
                }
                DecommitDecision::Defer => {
                    // Success is reported now; the backing releases the
                    // pages a few operations later (kernel lazy reclaim).
                    self.bitmap.set_range(offset / PAGE_SIZE, len / PAGE_SIZE, false);
                    return Ok(());
                }
            }
        }
        self.backing_decommit(offset, len)?;
        self.bitmap.set_range(offset / PAGE_SIZE, len / PAGE_SIZE, false);
        Ok(())
    }

    /// Whether the page containing byte `offset` is committed.
    pub fn is_committed(&self, offset: usize) -> bool {
        offset < self.max_bytes && self.bitmap.get(offset / PAGE_SIZE)
    }

    /// Whether every page overlapping `[offset, offset + len)` is committed.
    pub fn range_committed(&self, offset: usize, len: usize) -> bool {
        if len == 0 {
            return true;
        }
        let Some(end) = offset.checked_add(len) else { return false };
        if end > self.max_bytes {
            return false;
        }
        let first = offset / PAGE_SIZE;
        let last = (end - 1) / PAGE_SIZE;
        self.bitmap.all_set(first, last - first + 1)
    }

    /// Total committed bytes, for accounting and tests.
    pub fn committed_bytes(&self) -> usize {
        self.bitmap.count_set() * PAGE_SIZE
    }

    /// Number of pages in the reservation.
    pub fn pages(&self) -> usize {
        self.bitmap.pages()
    }
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Region")
            .field("max_bytes", &self.max_bytes)
            .field("committed_bytes", &self.committed_bytes())
            .field("backing", &self.backing())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backings() -> Vec<Backing> {
        let mut v = vec![Backing::Heap];
        if Backing::default() == Backing::Mmap {
            v.push(Backing::Mmap);
        }
        v
    }

    #[test]
    fn reserve_validates_size() {
        assert!(matches!(Region::reserve(0), Err(RegionError::InvalidSize { .. })));
        assert!(matches!(Region::reserve(123), Err(RegionError::InvalidSize { .. })));
        assert!(Region::reserve(PAGE_SIZE).is_ok());
    }

    #[test]
    fn commit_state_machine_both_backings() {
        for b in backings() {
            let r = Region::reserve_with(4 * PAGE_SIZE, b).unwrap();
            assert_eq!(r.committed_bytes(), 0);
            r.commit(PAGE_SIZE, 2 * PAGE_SIZE).unwrap();
            assert!(r.is_committed(PAGE_SIZE));
            assert!(r.is_committed(2 * PAGE_SIZE));
            assert!(!r.is_committed(0));
            assert!(!r.is_committed(3 * PAGE_SIZE));
            assert!(r.range_committed(PAGE_SIZE, 2 * PAGE_SIZE));
            assert!(!r.range_committed(0, 2 * PAGE_SIZE));
            r.decommit(PAGE_SIZE, PAGE_SIZE).unwrap();
            assert!(!r.is_committed(PAGE_SIZE));
            assert!(r.is_committed(2 * PAGE_SIZE));
            assert_eq!(r.committed_bytes(), PAGE_SIZE);
        }
    }

    #[test]
    fn invalid_ranges_rejected() {
        let r = Region::reserve(2 * PAGE_SIZE).unwrap();
        assert!(matches!(r.commit(1, PAGE_SIZE), Err(RegionError::InvalidRange { .. })));
        assert!(matches!(r.commit(0, PAGE_SIZE + 1), Err(RegionError::InvalidRange { .. })));
        assert!(matches!(
            r.commit(2 * PAGE_SIZE, PAGE_SIZE),
            Err(RegionError::InvalidRange { .. })
        ));
        assert!(matches!(r.commit(0, 0), Err(RegionError::InvalidRange { .. })));
        // Overflowing range must not wrap around.
        assert!(matches!(
            r.decommit(usize::MAX - PAGE_SIZE + 1, PAGE_SIZE),
            Err(RegionError::InvalidRange { .. })
        ));
    }

    #[test]
    fn committed_memory_reads_zero_then_roundtrips() {
        for b in backings() {
            let r = Region::reserve_with(2 * PAGE_SIZE, b).unwrap();
            r.commit(0, 2 * PAGE_SIZE).unwrap();
            // SAFETY: committed range, single thread.
            unsafe {
                assert_eq!(*r.as_ptr(), 0);
                r.as_ptr().add(100).write(42);
                assert_eq!(*r.as_ptr().add(100), 42);
            }
        }
    }

    #[test]
    fn decommitted_ranges_read_as_zero_or_poison() {
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        let gone = PAGE_SIZE / 8..3 * PAGE_SIZE / 8; // the words of pages 1 and 2
        for b in backings() {
            let r = Region::reserve_with(4 * PAGE_SIZE, b).unwrap();
            r.commit(0, 4 * PAGE_SIZE).unwrap();
            // SAFETY: in-bounds, 8-aligned words, only accessed atomically.
            let word = |i: usize| unsafe { &*(r.as_ptr() as *const AtomicU64).add(i) };
            (0..4 * PAGE_SIZE / 8).for_each(|i| word(i).store(!0, Relaxed));
            r.decommit(PAGE_SIZE, 2 * PAGE_SIZE).unwrap();
            let poison = if b == Backing::Heap { [crate::heap::POISON; 8] } else { [0; 8] };
            for i in 0..4 * PAGE_SIZE / 8 {
                let want = if gone.contains(&i) { u64::from_ne_bytes(poison) } else { !0 };
                assert_eq!(word(i).load(Relaxed), want, "{b:?}: word {i}");
            }
            r.commit(PAGE_SIZE, 2 * PAGE_SIZE).unwrap();
            assert!(gone.clone().all(|i| word(i).load(Relaxed) == 0), "{b:?}: recommit zeroes");
        }
    }

    #[test]
    fn region_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Region>();
    }

    #[test]
    fn range_committed_handles_edges() {
        let r = Region::reserve(4 * PAGE_SIZE).unwrap();
        r.commit(0, 4 * PAGE_SIZE).unwrap();
        assert!(r.range_committed(0, 4 * PAGE_SIZE));
        assert!(r.range_committed(4 * PAGE_SIZE - 1, 1));
        assert!(!r.range_committed(4 * PAGE_SIZE - 1, 2)); // crosses the end
        assert!(r.range_committed(123, 0)); // empty range trivially committed
    }

    #[test]
    fn fault_plan_commit_failure_then_recovery() {
        let plan = FaultPlan::new(11).commit_failure_rate(1.0).max_faults(2);
        let r = Region::reserve_with_faults(4 * PAGE_SIZE, Backing::Heap, plan).unwrap();
        assert!(matches!(r.commit(0, PAGE_SIZE), Err(RegionError::CommitFailed { .. })));
        assert!(matches!(r.commit(0, PAGE_SIZE), Err(RegionError::CommitFailed { .. })));
        r.commit(0, PAGE_SIZE).unwrap();
        assert_eq!(r.fault_stats().unwrap().commit_faults, 2);
        assert_eq!(r.committed_bytes(), PAGE_SIZE);
    }

    #[test]
    fn partial_commit_rolls_back_prefix_on_every_backing() {
        for b in backings() {
            let plan = FaultPlan::new(5).partial_commit_rate(1.0).max_faults(1);
            let r = Region::reserve_with_faults(16 * PAGE_SIZE, b, plan).unwrap();
            assert!(matches!(r.commit(0, 8 * PAGE_SIZE), Err(RegionError::CommitFailed { .. })));
            // All-or-nothing: the committed prefix was decommitted again, so
            // the bitmap (never updated) and backing agree.
            assert_eq!(r.committed_bytes(), 0, "prefix must be rolled back ({b:?})");
            assert_eq!(r.fault_stats().unwrap().partial_commits, 1);
            r.commit(0, 8 * PAGE_SIZE).unwrap();
            assert_eq!(r.committed_bytes(), 8 * PAGE_SIZE);
        }
    }

    #[test]
    fn deferred_decommit_reports_success_and_lands_later() {
        let plan = FaultPlan::new(21).delayed_decommit_rate(1.0).decommit_delay_ops(1);
        let r = Region::reserve_with_faults(8 * PAGE_SIZE, Backing::Heap, plan).unwrap();
        r.commit(0, 2 * PAGE_SIZE).unwrap();
        r.decommit(0, PAGE_SIZE).unwrap();
        assert!(!r.is_committed(0), "bookkeeping reflects the decommit immediately");
        let s = r.fault_stats().unwrap();
        assert_eq!(s.deferred_decommits, 1);
        assert_eq!(s.flushed_decommits, 0);
        // The next operation flushes the pending range to the backing.
        r.commit(4 * PAGE_SIZE, PAGE_SIZE).unwrap();
        assert_eq!(r.fault_stats().unwrap().flushed_decommits, 1);
    }

    #[test]
    fn debug_output_mentions_commit_state() {
        let r = Region::reserve(PAGE_SIZE).unwrap();
        let text = format!("{r:?}");
        assert!(text.contains("committed_bytes"));
    }
}
