//! # btrace-bench — regenerating the paper's tables and figures
//!
//! The `paper` binary prints one evaluation artifact (Table 2, Figs. 1–6,
//! 10 and 11, the ablations) per subcommand; `EXPERIMENTS.md` at the
//! repository root maps each to the paper and records results. The
//! criterion benches under `benches/` measure recording latency (Table 2's
//! latency block) and consumption and resizing (§4.3/§4.4). End-to-end
//! performance is measured by `perfbench/`, not here.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod harness;
