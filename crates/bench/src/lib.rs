//! # skalla-bench — benchmark harness for every figure of the paper
//!
//! Workload definitions ([`workloads`]) and measurement utilities
//! ([`harness`]) shared by the `fig2`…`fig5` harness binaries (which print
//! the series each paper figure plots), plus the two-level
//! coordinator-tree simulation ([`topology`]) behind the `topo` binary.
//! Beside them: `e2e` (the end-to-end and per-layer performance ledger,
//! `BENCHMARK.json`, whose `skewed_star` workload is bound by its slowest
//! site) and the
//! `probe_alloc` bench (a zero-allocation guard over both GMDJ kernels —
//! assertions, not timings).
//!
//! Regenerate the evaluation with:
//!
//! ```text
//! cargo run -p skalla-bench --release --bin fig2   # group reduction
//! cargo run -p skalla-bench --release --bin fig3   # coalescing
//! cargo run -p skalla-bench --release --bin fig4   # synchronization reduction
//! cargo run -p skalla-bench --release --bin fig5   # scale-up
//! ```
//!
//! Each accepts `--quick` (smaller data), `--check` (assert the paper's
//! curve shapes) and `--repeats N`. Wall-clock is the ledger's job:
//!
//! ```text
//! cargo run -p skalla-bench --release --bin e2e -- run
//! ```

#![warn(missing_docs)]

pub mod harness;
pub mod topology;
pub mod workloads;
