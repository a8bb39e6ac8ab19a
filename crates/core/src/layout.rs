//! Mapping from global block sequence numbers to metadata and data blocks
//! (paper §3.3), including the ratio history needed after resizes.
//!
//! With `A` metadata blocks and a live ratio `R` (so `N = R · A` data
//! blocks), a global sequence number `gpos` maps to:
//!
//! ```text
//! meta_idx = gpos mod A
//! rnd      = gpos div A
//! data_idx = (rnd mod R) · A + meta_idx
//! ```
//!
//! This reproduces Fig. 7: with `A = 4, R = 2`, data blocks D3 (rnd 0) and
//! D7 (rnd 1) share metadata block M3.
//!
//! Resizing changes `R`; blocks written under an older ratio remain in the
//! buffer, so every mapping — a producer's advance and uncached
//! allocation, a reader's block read, every dummy fill — resolves
//! `gpos → data_idx` through one [`RatioHistory`] of `(first_gpos, ratio)`
//! records. Only the producers' cached descriptor skips it: a record that
//! fits its cached block maps nothing.

use crate::packed::POS_BITS;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Mutex;

/// Where a global sequence number lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mapping {
    /// Index of the managing metadata block.
    pub meta_idx: usize,
    /// Round of that metadata block.
    pub rnd: u32,
    /// Index of the data block.
    pub data_idx: u64,
}

/// Sentinel in [`Divider::shift`]: the divisor is not a power of two.
const NOT_POW2: u32 = u32::MAX;

/// Bits of the fixed-point reciprocal in [`Divider`]. With dividends below
/// `2^48` (the `RatioPos` position width) and divisors below `2^32`, 80
/// fraction bits make the reciprocal multiplication exact (proof at
/// [`Divider::new`]).
const RECIP_BITS: u32 = 80;

/// Division by a fixed divisor without a hardware divide: a shift for
/// power-of-two divisors, otherwise a Granlund–Montgomery-style reciprocal
/// multiplication. On the in-order ARM cores the paper targets, `udiv` is
/// 10+ cycles and not pipelined; the multiply path is 2 dependent `mul`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Divider {
    d: u64,
    /// `d.trailing_zeros()` when `d` is a power of two, else [`NOT_POW2`].
    shift: u32,
    /// `⌊2^80 / d⌋ + 1`; unused (zero) on the power-of-two path.
    magic: u128,
}

impl Divider {
    /// Precomputes the reciprocal of `d` (`1 <= d < 2^32`).
    ///
    /// Exactness: let `m = ⌊2^80/d⌋ + 1` and `e = m·d − 2^80`, so
    /// `0 < e <= d`. Then `m·n / 2^80 = n/d + e·n/(d·2^80)`, and the error
    /// term is at most `n/2^80 < 2^-32` for `n < 2^48`. The floor can only
    /// differ if `frac(n/d) >= 1 − 2^-32`, which needs
    /// `n mod d >= d − d·2^-32`; with `n mod d <= d − 1` that requires
    /// `d >= 2^32`. Hence `⌊m·n / 2^80⌋ = ⌊n/d⌋` exactly. The `u128`
    /// product cannot overflow: the smallest non-power-of-two divisor is 3,
    /// so `m < 2^79` and `n·m < 2^127`.
    pub(crate) fn new(d: u64) -> Self {
        assert!((1..1u64 << 32).contains(&d), "divisor out of range: {d}");
        if d.is_power_of_two() {
            // Power-of-two fast case: no magic needed, construction is free.
            Self { d, shift: d.trailing_zeros(), magic: 0 }
        } else {
            Self { d, shift: NOT_POW2, magic: ((1u128 << RECIP_BITS) / d as u128) + 1 }
        }
    }

    /// `n / d` for `n < 2^48`.
    #[inline]
    pub(crate) fn div(&self, n: u64) -> u64 {
        debug_assert!(n < 1 << POS_BITS, "dividend exceeds the 48-bit position width");
        if self.shift != NOT_POW2 {
            n >> self.shift
        } else {
            ((n as u128 * self.magic) >> RECIP_BITS) as u64
        }
    }

    /// `n % d` for `n < 2^48`.
    #[inline]
    pub(crate) fn rem(&self, n: u64) -> u64 {
        if self.shift != NOT_POW2 {
            n & (self.d - 1)
        } else {
            n - self.div(n) * self.d
        }
    }
}

/// Computes the mapping for `gpos` under `ratio` with hardware division —
/// the readable reference the division-free [`map_gpos_div`] is tested
/// against.
#[cfg(test)]
fn map_gpos(gpos: u64, active_blocks: usize, ratio: u16) -> Mapping {
    debug_assert!(ratio >= 1);
    let a = active_blocks as u64;
    let rnd64 = gpos / a;
    debug_assert!(rnd64 <= u32::MAX as u64, "round counter exceeded 32 bits");
    let meta_idx = (gpos % a) as usize;
    let data_idx = (rnd64 % ratio as u64) * a + meta_idx as u64;
    Mapping { meta_idx, rnd: rnd64 as u32, data_idx }
}

/// Division-free twin of `map_gpos`: `a_div` divides by `active_blocks`
/// and `r_div` by `ratio`, both precomputed away from the fast path.
#[inline]
fn map_gpos_div(
    gpos: u64,
    active_blocks: usize,
    a_div: &Divider,
    ratio: u16,
    r_div: &Divider,
) -> Mapping {
    debug_assert!(ratio >= 1);
    debug_assert_eq!(a_div.d, active_blocks as u64);
    debug_assert_eq!(r_div.d, ratio as u64);
    let a = active_blocks as u64;
    let rnd64 = a_div.div(gpos);
    debug_assert!(rnd64 <= u32::MAX as u64, "round counter exceeded 32 bits");
    let meta_idx = (gpos - rnd64 * a) as usize;
    let data_idx = r_div.rem(rnd64) * a + meta_idx as u64;
    Mapping { meta_idx, rnd: rnd64 as u32, data_idx }
}

/// Log of `(first_gpos, ratio)` transitions, one per published resize.
///
/// **Install, then publish.** A resize *installs* its entry here before
/// the CAS on the global `ratio_and_pos` word that publishes it: it adds
/// a new entry, or replaces the newest one if that one is unpublished (a
/// CAS retry, or a resizer that died between install and CAS). So at most
/// the newest entry is unpublished.
///
/// **The mapping rule.** A mapper loads the global word *before* it reads
/// the history, and counts the newest entry only when that word carries
/// the entry's ratio. Every `gpos` mapped was claimed before the word was
/// loaded (`gpos < word.pos`). This is sound because:
///
/// * consecutive entries differ in ratio: a same-ratio resize returns
///   early, and a failed grow returns before it installs;
/// * an entry published after the word was loaded has its boundary above
///   the word's position, because its CAS moved the word from a position
///   at least as large; the same holds for any entry installed after that
///   publication, because resizes are serialized. Such entries govern no
///   `gpos` the word covers, whether they are counted or not;
/// * otherwise the newest entry is either the one the word publishes, and
///   counts, or unpublished: then its predecessor is the entry the word
///   publishes, so its ratio differs from the word's and it is ignored —
///   rightly, since its boundary came from a position that may be stale
///   and lie at or below `gpos`.
///
/// An entry the word does carry was installed before the CAS that the
/// word's acquire load synchronizes with, so the reader sees it.
///
/// A producer maps with the word its fetch-add returned at the claim, or
/// the core-local copy of it read with acquire: every entry published
/// after the claim has its boundary above the claimed `gpos`.
///
/// Reads are lock-free, because every uncached allocation maps: the entries
/// form a list from the newest back to the initial one, and replacing an
/// unpublished entry installs a new one that links past it. No entry is
/// freed before the history is, so a reader never follows a dangling link.
/// Installs serialize on a plain `std` mutex whose critical section holds
/// no `crate::sync` facade operation, so under the model scheduler a thread
/// is never parked while holding it. Entries are freed only with the
/// history, so every resize keeps one, plus one per failed CAS attempt.
#[derive(Debug)]
pub(crate) struct RatioHistory {
    active_blocks: usize,
    a_div: Divider,
    /// The newest installed entry. Stored with `Release` once the entry is
    /// built and owned, loaded with `Acquire`, so a reader sees the fields
    /// of every entry it can reach from it.
    newest: AtomicPtr<HistEntry>,
    /// Owns every entry ever installed, replaced ones included. Readers
    /// hold pointers into the boxes, which never move when the `Vec`
    /// grows; unboxed entries would, hence the lint exception.
    #[allow(clippy::vec_box)]
    owned: Mutex<Vec<Box<HistEntry>>>,
}

/// One ratio transition, with its divider precomputed at install time
/// (resizes are rare) so every later [`RatioHistory::map`] is division-free.
/// Immutable once installed.
#[derive(Debug)]
struct HistEntry {
    from_gpos: u64,
    ratio: u16,
    r_div: Divider,
    /// The entry before this one; null for the initial entry.
    prev: *const HistEntry,
}

// SAFETY: every field is plain data except `prev`, which is null or points
// to an entry owned by the same history; entries are never mutated after
// they are built, and the history frees none before it drops.
unsafe impl Send for HistEntry {}
unsafe impl Sync for HistEntry {}

impl HistEntry {
    fn new(from_gpos: u64, ratio: u16, prev: *const HistEntry) -> Box<Self> {
        Box::new(Self { from_gpos, ratio, r_div: Divider::new(ratio as u64), prev })
    }

    fn prev(&self) -> Option<&HistEntry> {
        // SAFETY: `prev` is null or points to an entry of the history that
        // owns `self`, and the history frees its entries only together, so
        // the target outlives this borrow.
        unsafe { self.prev.as_ref() }
    }
}

impl RatioHistory {
    pub(crate) fn new(initial_ratio: u16, active_blocks: usize) -> Self {
        let initial = HistEntry::new(0, initial_ratio, std::ptr::null());
        Self {
            active_blocks,
            a_div: Divider::new(active_blocks as u64),
            newest: AtomicPtr::new(&*initial as *const HistEntry as *mut HistEntry),
            owned: Mutex::new(vec![initial]),
        }
    }

    fn newest(&self) -> &HistEntry {
        // SAFETY: `newest` always points to an entry in `owned`, which
        // lives as long as `self`.
        unsafe { &*self.newest.load(Ordering::Acquire) }
    }

    /// Installs the transition to `ratio` at `from_gpos`, ahead of the CAS
    /// that publishes it. `published` is the ratio the global word carried
    /// when the resizer loaded it; the newest entry is unpublished exactly
    /// when its ratio differs, and is then replaced.
    pub(crate) fn install(&self, published: u16, from_gpos: u64, ratio: u16) {
        debug_assert_ne!(published, ratio, "a same-ratio resize installs nothing");
        // Poison recovery, not propagation: a panicked resize caller can
        // only have completed or not completed its install, and an
        // unpublished entry it left behind is ignored and replaced.
        let mut owned = self.owned.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let newest = self.newest();
        let prev = if newest.ratio == published {
            newest
        } else {
            newest.prev().expect("the initial entry is always published")
        };
        debug_assert!(prev.ratio == published && prev.from_gpos < from_gpos);
        let entry = HistEntry::new(from_gpos, ratio, prev);
        let ptr = &*entry as *const HistEntry as *mut HistEntry;
        owned.push(entry);
        self.newest.store(ptr, Ordering::Release);
    }

    /// The entry in effect for `gpos` under a global word carrying
    /// `published` (see the mapping rule above).
    fn entry_at(&self, published: u16, gpos: u64) -> &HistEntry {
        let mut e = self.newest();
        if e.ratio != published {
            e = e.prev().expect("the initial entry is always published");
        }
        while e.from_gpos > gpos {
            e = e.prev().expect("the initial entry starts at gpos 0");
        }
        e
    }

    /// Ratio in effect for `gpos`.
    #[cfg(test)]
    pub(crate) fn ratio_at(&self, published: u16, gpos: u64) -> u16 {
        self.entry_at(published, gpos).ratio
    }

    /// Mapping for `gpos` under the ratio it was claimed under, given the
    /// ratio `published` of a global word loaded by the claim, or after it,
    /// and before this call.
    pub(crate) fn map(&self, published: u16, gpos: u64) -> Mapping {
        let e = self.entry_at(published, gpos);
        map_gpos_div(gpos, self.active_blocks, &self.a_div, e.ratio, &e.r_div)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_mapping() {
        // Eight data blocks, four metadata blocks, ratio two: D3 and D7
        // share M3.
        let m3 = map_gpos(3, 4, 2);
        assert_eq!(m3, Mapping { meta_idx: 3, rnd: 0, data_idx: 3 });
        let m7 = map_gpos(7, 4, 2);
        assert_eq!(m7, Mapping { meta_idx: 3, rnd: 1, data_idx: 7 });
        // Next round wraps back onto D3.
        let m11 = map_gpos(11, 4, 2);
        assert_eq!(m11, Mapping { meta_idx: 3, rnd: 2, data_idx: 3 });
    }

    #[test]
    fn ratio_one_reuses_same_block_every_round() {
        for gpos in 0..32u64 {
            let m = map_gpos(gpos, 4, 1);
            assert_eq!(m.data_idx, gpos % 4);
        }
    }

    #[test]
    fn data_blocks_cycle_with_period_n() {
        let (a, r) = (6usize, 4u16);
        let n = a as u64 * r as u64;
        for gpos in 0..n {
            let now = map_gpos(gpos, a, r);
            let next_cycle = map_gpos(gpos + n, a, r);
            assert_eq!(now.data_idx, next_cycle.data_idx);
            assert_eq!(now.meta_idx, next_cycle.meta_idx);
            assert_eq!(now.rnd + r as u32, next_cycle.rnd);
        }
    }

    #[test]
    fn all_data_blocks_hit_exactly_once_per_cycle() {
        let (a, r) = (4usize, 3u16);
        let n = a as u64 * r as u64;
        let mut seen = vec![false; n as usize];
        for gpos in 0..n {
            let m = map_gpos(gpos, a, r);
            assert!(!seen[m.data_idx as usize], "data block visited twice in one cycle");
            seen[m.data_idx as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn history_lookup_respects_boundaries() {
        let h = RatioHistory::new(2, 4);
        h.install(2, 16, 4);
        h.install(4, 32, 1);
        assert_eq!(h.ratio_at(1, 0), 2);
        assert_eq!(h.ratio_at(1, 15), 2);
        assert_eq!(h.ratio_at(1, 16), 4);
        assert_eq!(h.ratio_at(1, 31), 4);
        assert_eq!(h.ratio_at(1, 32), 1);
        assert_eq!(h.ratio_at(1, 1_000_000), 1);
    }

    #[test]
    fn history_map_uses_ratio_of_the_round() {
        let h = RatioHistory::new(1, 4);
        h.install(1, 8, 2); // from gpos 8 on, ratio 2 (A = 4)
                            // gpos 5 (rnd 1, ratio 1) maps within the first 4 blocks.
        assert_eq!(h.map(2, 5).data_idx, 1);
        // gpos 13 (rnd 3, ratio 2) alternates between the two banks.
        assert_eq!(h.map(2, 13).data_idx, 4 + 1);
    }

    /// The entries a reader can reach, oldest first.
    fn entries(h: &RatioHistory) -> Vec<(u64, u16)> {
        let mut out = Vec::new();
        let mut e = Some(h.newest());
        while let Some(entry) = e {
            out.push((entry.from_gpos, entry.ratio));
            e = entry.prev();
        }
        out.reverse();
        out
    }

    #[test]
    fn installed_entry_counts_only_once_the_word_carries_its_ratio() {
        let h = RatioHistory::new(2, 4);
        h.install(2, 8, 4);
        // Before the CAS the word still carries 2: gpos 9 is not claimable
        // yet, but a stale boundary must not redirect it either.
        assert_eq!(h.ratio_at(2, 9), 2);
        assert_eq!(h.map(2, 9), map_gpos(9, 4, 2));
        // The CAS lands: the word carries 4, and the entry counts.
        assert_eq!(h.ratio_at(4, 7), 2);
        assert_eq!(h.map(4, 9), map_gpos(9, 4, 4));
    }

    #[test]
    fn reinstall_on_cas_retry_keeps_only_the_last_boundary() {
        let h = RatioHistory::new(2, 4);
        h.install(2, 8, 4); // the CAS fails: advances moved the word on
        h.install(2, 12, 4); // retry at the next boundary
        assert_eq!(entries(&h), [(0, 2), (12, 4)]);
        assert_eq!(h.ratio_at(4, 11), 2, "the abandoned boundary is gone");
        assert_eq!(h.ratio_at(4, 12), 4);
    }

    #[test]
    fn unpublished_entry_left_behind_is_replaced_by_the_next_install() {
        let h = RatioHistory::new(2, 4);
        h.install(2, 8, 4); // the resizer dies before its CAS
        assert_eq!(h.ratio_at(2, 100), 2, "the orphan is ignored");
        h.install(2, 16, 3);
        assert_eq!(entries(&h), [(0, 2), (16, 3)]);
        assert_eq!(h.ratio_at(3, 15), 2);
        assert_eq!(h.ratio_at(3, 16), 3);
    }

    /// A ratio sequence 2 → 4 → 2 against a simulated global word: every
    /// claimed sequence maps through the ratio it was claimed under, under
    /// every word loaded after its claim — before and after each CAS, and
    /// while an install's CAS keeps failing.
    #[test]
    fn every_sequence_maps_through_the_ratio_it_was_claimed_under() {
        const A: u64 = 4;
        let h = RatioHistory::new(2, A as usize);
        let mut word = (2u16, A); // (ratio, pos)
        let mut claimed: Vec<(u64, u16)> = Vec::new();
        let mut loads: Vec<(u16, u64)> = Vec::new();
        let claim = |word: &mut (u16, u64), n: u64, claimed: &mut Vec<(u64, u16)>| {
            for _ in 0..n {
                claimed.push((word.1, word.0));
                word.1 += 1;
            }
        };
        let check = |h: &RatioHistory, loads: &[(u16, u64)], claimed: &[(u64, u16)]| {
            for &(published, pos) in loads {
                for &(gpos, ratio) in claimed.iter().filter(|c| c.0 < pos) {
                    assert_eq!(
                        h.map(published, gpos),
                        map_gpos(gpos, A as usize, ratio),
                        "gpos {gpos} claimed under ratio {ratio}, word ({published}, {pos})"
                    );
                }
            }
        };
        for new_ratio in [4u16, 2] {
            claim(&mut word, 6, &mut claimed);
            // The resizer loads the word and installs; the CAS then fails
            // because producers claimed past the stale boundary.
            let stale = word;
            h.install(stale.0, (stale.1 / A + 1) * A, new_ratio);
            loads.push((word.0, word.1));
            claim(&mut word, 5, &mut claimed);
            loads.push((word.0, word.1));
            check(&h, &loads, &claimed);
            // The retry installs again and its CAS lands.
            let cur = word;
            let boundary = (cur.1 / A + 1) * A;
            h.install(cur.0, boundary, new_ratio);
            loads.push((word.0, word.1));
            check(&h, &loads, &claimed);
            word = (new_ratio, boundary);
            loads.push((word.0, word.1));
            claim(&mut word, 7, &mut claimed);
            loads.push((word.0, word.1));
            check(&h, &loads, &claimed);
        }
        assert_eq!(entries(&h).iter().map(|e| e.1).collect::<Vec<_>>(), [2, 4, 2]);
    }

    #[test]
    fn divider_matches_hardware_division() {
        // Every divisor shape: powers of two, odd, even non-pow2, tiny, and
        // near the 2^32 ceiling.
        let divisors =
            [1u64, 2, 3, 4, 5, 6, 7, 12, 16, 63, 64, 192, 1000, 4096, (1 << 32) - 1, (1 << 31) + 3];
        // Deterministic LCG over the full 48-bit dividend range plus edges.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut dividends = vec![0u64, 1, (1 << 48) - 1, (1 << 48) - 2, 1 << 47];
        for _ in 0..4000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            dividends.push(x >> 16); // 48 bits
        }
        for &d in &divisors {
            let div = Divider::new(d);
            for &n in &dividends {
                assert_eq!(div.div(n), n / d, "div mismatch: {n} / {d}");
                assert_eq!(div.rem(n), n % d, "rem mismatch: {n} % {d}");
            }
        }
    }

    #[test]
    fn division_free_mapping_matches_reference() {
        for (a, r) in [(4usize, 2u16), (4, 3), (6, 4), (192, 16), (5, 1), (7, 7)] {
            let a_div = Divider::new(a as u64);
            let r_div = Divider::new(r as u64);
            // Edge dividends stay below A * 2^32 so the 32-bit round
            // counter assertion holds, matching production bounds.
            let hi = a as u64 * u32::MAX as u64;
            for gpos in (0..4 * a as u64 * r as u64).chain([hi - 1, hi / 2 + 1]) {
                assert_eq!(
                    map_gpos_div(gpos, a, &a_div, r, &r_div),
                    map_gpos(gpos, a, r),
                    "mapping diverged at gpos {gpos} (A={a}, R={r})"
                );
            }
        }
    }
}
