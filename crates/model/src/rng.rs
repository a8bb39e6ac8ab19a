//! Seed derivation and schedule fingerprints. The PRNG itself is
//! [`SplitMix64`], shared with `btrace-vmem`'s fault plans.

use btrace_vmem::SplitMix64;

/// Derives the per-schedule seed `i` of a base seed: one SplitMix64 step
/// keyed by the index, so adjacent schedules share no structure.
pub fn schedule_seed(base: u64, index: usize) -> u64 {
    SplitMix64::new(base ^ (index as u64).wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// One FNV-1a step: mixes `value` into the running `hash`. Used to
/// fingerprint the sequence of scheduling decisions.
pub fn fnv_mix(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for byte in value.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis: the initial fingerprint value.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_seeds_differ() {
        let s: Vec<u64> = (0..64).map(|i| schedule_seed(0xBEEF, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), s.len());
    }
}
