//! # skalla-datagen — seeded synthetic datasets
//!
//! The paper evaluates on TPC(R) `dbgen` output and motivates with NetFlow
//! traces; neither is redistributable here, so this crate generates
//! equivalent synthetic data from scratch: a denormalized TPC-R-style fact
//! relation ([`tpcr`]), IP flow records ([`flow`]), a [`zipf`] sampler for
//! realistic skew, and [`partition`]ers that split a fact relation across
//! warehouse sites *and* describe each fragment with the φ predicates the
//! distribution-aware optimizations consume.

// missing_docs is denied workspace-wide (see [workspace.lints]).
// Bad input is answered with an error, never a panic; a local invariant
// carries `#[expect(clippy::…, reason = "…")]` (docs/STATIC_ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod flow;
pub mod partition;
pub mod tpcr;
pub mod zipf;

pub use flow::{flow_schema, generate_flows, FlowConfig};
pub use partition::{
    partition_by_hash, partition_by_int_ranges, partition_by_value_sets,
    partition_round_robin, reunite, Partition,
};
pub use tpcr::{generate_tpcr, tpcr_schema, TpcrConfig};
pub use zipf::Zipf;
