//! Tracer configuration (builder-style, per C-BUILDER).

use crate::error::TraceError;
use crate::event::{ENTRY_ALIGN, HEADER_BYTES};
use btrace_vmem::{Backing, FaultPlan};

/// Smallest permitted data block (must hold a block header plus one entry).
pub const MIN_BLOCK_BYTES: usize = 64;

/// Configuration for a [`BTrace`](crate::BTrace) instance.
///
/// The defaults mirror the paper's evaluation setup scaled to a library
/// context: 4 KiB data blocks (§5 "we set the size of each data block to be
/// one memory page") and `A = 16 × cores` active blocks (§5.1 sweet spot).
///
/// # Examples
///
/// ```rust
/// use btrace_core::Config;
///
/// // 12-core phone, 12 MiB buffer as in the paper's replay experiments.
/// let config = Config::new(12).buffer_bytes(12 << 20);
/// assert_eq!(config.cores(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    cores: usize,
    buffer_bytes: usize,
    max_bytes: Option<usize>,
    block_bytes: usize,
    active_blocks: Option<usize>,
    backing: Backing,
    fault_plan: Option<FaultPlan>,
}

impl Config {
    /// Starts a configuration for a device with `cores` cores.
    pub fn new(cores: usize) -> Self {
        Self {
            cores,
            buffer_bytes: 4 << 20,
            max_bytes: None,
            block_bytes: 4096,
            active_blocks: None,
            backing: Backing::default(),
            fault_plan: None,
        }
    }

    /// Sets the initial buffer capacity in bytes. Must be a multiple of the
    /// block size times the number of active blocks.
    pub fn buffer_bytes(mut self, bytes: usize) -> Self {
        self.buffer_bytes = bytes;
        self
    }

    /// Sets the maximum capacity the buffer can ever be resized to; address
    /// space for this much is reserved up front (§4.4). Defaults to the
    /// initial capacity.
    pub fn max_bytes(mut self, bytes: usize) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// Sets the data block size in bytes (default 4096, one page).
    pub fn block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = bytes;
        self
    }

    /// Sets the number of active blocks `A` (default `16 × cores`, the
    /// paper's empirically best setting, §5.1). Must be at least the number
    /// of cores "to ensure sufficient concurrency" (§3.2).
    pub fn active_blocks(mut self, blocks: usize) -> Self {
        self.active_blocks = Some(blocks);
        self
    }

    /// Selects the memory backing (default: platform best).
    pub fn backing(mut self, backing: Backing) -> Self {
        self.backing = backing;
        self
    }

    /// Wraps the backing in a deterministic [`FaultPlan`]: commits and
    /// decommits may fail, partially commit, or land late on the plan's
    /// seed-replayable schedule. For testing the tracer's degradation
    /// behaviour under memory pressure; see
    /// [`BTrace::fault_stats`](crate::BTrace::fault_stats).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Validates the configuration, producing the derived geometry.
    pub(crate) fn resolve(&self) -> Result<Resolved, TraceError> {
        let err = |msg: String| Err(TraceError::InvalidConfig(msg));
        if self.cores == 0 || self.cores > 256 {
            return err(format!("cores must be in 1..=256, got {}", self.cores));
        }
        if self.block_bytes < MIN_BLOCK_BYTES
            || !self.block_bytes.is_multiple_of(ENTRY_ALIGN)
            || self.block_bytes > u32::MAX as usize / 4
        {
            return err(format!(
                "block_bytes must be a multiple of {ENTRY_ALIGN} in {MIN_BLOCK_BYTES}..=2^30, got {}",
                self.block_bytes
            ));
        }
        let active = self.active_blocks.unwrap_or(16 * self.cores);
        if active < self.cores {
            return err(format!(
                "active_blocks ({active}) must be >= cores ({}) to ensure sufficient concurrency",
                self.cores
            ));
        }
        let stride = self.block_bytes * active;
        if self.buffer_bytes == 0 || !self.buffer_bytes.is_multiple_of(stride) {
            return err(format!(
                "buffer_bytes ({}) must be a non-zero multiple of block_bytes * active_blocks ({stride})",
                self.buffer_bytes
            ));
        }
        let max_bytes = self.max_bytes.unwrap_or(self.buffer_bytes);
        if max_bytes < self.buffer_bytes || !max_bytes.is_multiple_of(stride) {
            return err(format!(
                "max_bytes ({max_bytes}) must be >= buffer_bytes and a multiple of block_bytes * active_blocks ({stride})"
            ));
        }
        let ratio = self.buffer_bytes / stride;
        if max_bytes / stride > u16::MAX as usize {
            return err(format!(
                "max_bytes implies a ratio of {} which exceeds the 16-bit ratio field",
                max_bytes / stride
            ));
        }
        // A data block must fit its block header plus at least one minimal entry.
        if self.block_bytes < 2 * HEADER_BYTES + ENTRY_ALIGN {
            return err(format!(
                "block_bytes {} cannot hold a block header plus an entry",
                self.block_bytes
            ));
        }
        if active as u64 >= 1 << 32 {
            return err(format!("active_blocks ({active}) exceeds the 32-bit mapping range"));
        }
        Ok(Resolved {
            cores: self.cores,
            block_bytes: self.block_bytes,
            active_blocks: active,
            ratio: ratio as u16,
            max_ratio: (max_bytes / stride) as u16,
            backing: self.backing,
            fault_plan: self.fault_plan,
        })
    }
}

/// Validated geometry derived from a [`Config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Resolved {
    pub cores: usize,
    pub block_bytes: usize,
    pub active_blocks: usize,
    /// Initial `N / A`.
    pub ratio: u16,
    /// `N_max / A`; the reservation is `max_ratio * active_blocks * block_bytes`.
    pub max_ratio: u16,
    pub backing: Backing,
    /// Deterministic fault schedule to wrap the backing in, if any.
    pub fault_plan: Option<FaultPlan>,
}

impl Resolved {
    pub fn max_bytes(&self) -> usize {
        self.max_ratio as usize * self.active_blocks * self.block_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_resolves() {
        let r = Config::new(12).buffer_bytes(12 << 20).resolve().unwrap();
        assert_eq!(r.active_blocks, 192);
        assert_eq!(r.block_bytes, 4096);
        assert_eq!(r.ratio as usize * r.active_blocks, (12 << 20) / 4096);
        assert_eq!(r.ratio, 16);
    }

    #[test]
    fn zero_cores_rejected() {
        assert!(matches!(Config::new(0).resolve(), Err(TraceError::InvalidConfig(_))));
    }

    #[test]
    fn active_blocks_below_cores_rejected() {
        let c = Config::new(8).active_blocks(4);
        assert!(matches!(c.resolve(), Err(TraceError::InvalidConfig(_))));
    }

    #[test]
    fn buffer_must_be_multiple_of_stride() {
        let c = Config::new(2).active_blocks(4).block_bytes(256).buffer_bytes(256 * 4 + 256);
        assert!(c.resolve().is_err());
        let c = Config::new(2).active_blocks(4).block_bytes(256).buffer_bytes(256 * 8);
        assert_eq!(c.resolve().unwrap().ratio, 2);
    }

    #[test]
    fn max_bytes_reserves_headroom() {
        let c = Config::new(2)
            .active_blocks(4)
            .block_bytes(256)
            .buffer_bytes(256 * 4)
            .max_bytes(256 * 16);
        let r = c.resolve().unwrap();
        assert_eq!(r.ratio, 1);
        assert_eq!(r.max_ratio, 4);
        assert_eq!(r.max_bytes(), 256 * 16);
    }

    #[test]
    fn max_bytes_smaller_than_buffer_rejected() {
        let c = Config::new(2)
            .active_blocks(4)
            .block_bytes(256)
            .buffer_bytes(256 * 8)
            .max_bytes(256 * 4);
        assert!(c.resolve().is_err());
    }

    #[test]
    fn tiny_blocks_rejected() {
        assert!(Config::new(1).block_bytes(8).resolve().is_err());
        assert!(Config::new(1).block_bytes(100).resolve().is_err()); // unaligned
    }
}
