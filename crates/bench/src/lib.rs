//! # skalla-bench — benchmark harness for every figure of the paper
//!
//! Workload definitions ([`workloads`]) and measurement utilities
//! ([`harness`]) of the `figs` binary, which prints the series each paper
//! figure plots (one table entry per figure). Beside it: `e2e` (the
//! end-to-end and per-layer performance ledger, `BENCHMARK.json`, whose
//! `skewed_star` workload is bound by its slowest site) and the
//! `probe_alloc` bench (a zero-allocation guard over the GMDJ kernel and
//! the coordinator's merge — assertions, not timings).
//!
//! Regenerate the evaluation with:
//!
//! ```text
//! cargo run -p skalla-bench --release --bin figs            # Figs. 2–5
//! cargo run -p skalla-bench --release --bin figs -- fig3    # one figure
//! ```
//!
//! It accepts `--quick` (smaller data), `--check` (assert the paper's
//! curve shapes) and `--repeats N`. Wall-clock is the ledger's job:
//!
//! ```text
//! cargo run -p skalla-bench --release --bin e2e -- run
//! ```

#![warn(missing_docs)]

pub mod harness;
pub mod workloads;
