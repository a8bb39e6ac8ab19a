//! # btrace-vmem — reserved memory regions with commit/decommit
//!
//! BTrace resizes its trace buffer at runtime (§4.4 of the paper): the
//! *virtual* address range is reserved once at the maximum buffer size, while
//! *physical* memory is committed and decommitted as the buffer grows and
//! shrinks. This crate provides that substrate as a [`Region`]:
//!
//! * [`Region::reserve`] reserves `max_bytes` of address space;
//! * [`Region::commit`] / [`Region::decommit`] move page-aligned ranges
//!   between the committed and decommitted states;
//! * a decommitted range stays mapped and may be read, never written: it
//!   reads as zeros under the mmap backend and as poison under the
//!   [`Heap`](Backing::Heap) backend, so a reader that validates what it
//!   copied can tell it from data.
//!
//! Two backends are available (see [`Backing`]): an `mmap`-based one on
//! Linux `x86_64`/`aarch64` (raw syscalls, no libc dependency) that uses
//! `madvise(MADV_DONTNEED)` to return physical pages, and a portable
//! heap-backed one used everywhere else and in tests.
//!
//! ```rust
//! use btrace_vmem::{Region, PAGE_SIZE};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let region = Region::reserve(16 * PAGE_SIZE)?;
//! region.commit(0, 4 * PAGE_SIZE)?;          // first four pages usable
//! unsafe { region.as_ptr().write(42) };      // safe: committed + exclusive
//! region.decommit(0, 4 * PAGE_SIZE)?;        // give the pages back
//! assert!(!region.is_committed(0));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod bitmap;
mod error;
pub mod fault;
mod filemap;
mod heap;
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod mmap;
mod region;
mod rng;

pub use error::RegionError;
pub use fault::{FaultPlan, FaultStats};
pub use filemap::FileMap;
pub use region::{Backing, Region};
pub use rng::SplitMix64;

/// Granularity of commit/decommit operations, in bytes.
///
/// All offsets and lengths passed to [`Region::commit`] and
/// [`Region::decommit`] must be multiples of this value. 4 KiB matches the
/// page size of the smartphone SoCs the paper evaluates on and the data-block
/// size used throughout the evaluation (§5).
pub const PAGE_SIZE: usize = 4096;
