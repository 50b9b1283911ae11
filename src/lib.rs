//! # Skalla — Distributed OLAP Query Processing
//!
//! A from-scratch Rust reproduction of the Skalla system from
//! *"Efficient OLAP Query Processing in Distributed Data Warehouses"*
//! (Akinde, Böhlen, Johnson, Lakshmanan, Srivastava, 2002).
//!
//! Skalla evaluates complex OLAP queries — expressed as chains of **GMDJ**
//! (Generalized Multi-Dimensional Join) operators — over a *distributed data
//! warehouse*: a set of local warehouse sites each holding a horizontal
//! partition of a fact relation, plus a coordinator. Only aggregate
//! structures are ever shipped between sites and the coordinator, never
//! detail data, which bounds synchronization traffic by the query result
//! size rather than the database size (Theorem 2 of the paper).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`relation`] — relational substrate: values, schemas, relations,
//!   expressions, interval analysis, binary codec.
//! * [`gmdj`] — the GMDJ operator algebra and the centralized evaluator.
//! * [`net`] — coordinator/site transports (in-process channels, an
//!   emulated LAN over them, TCP) with exact byte accounting.
//! * [`obs`] — dependency-free span/event/metric recorder with
//!   Chrome-trace (Perfetto) export, wired through the planner, the
//!   cluster runtime, and the transport.
//! * [`datagen`] — seeded TPC-R-style and IP-flow data generators.
//! * [`core`] — the distributed engine: sites, coordinator,
//!   `GMDJDistribEval`, the optimization suite, and the Egil planner.
//! * [`query`] — a small OLAP query language compiled to GMDJ expressions.
//!
//! ## Quickstart
//!
//! ```
//! use skalla::core::{OptFlags, Skalla, plan::Planner};
//! use skalla::datagen::flow::{FlowConfig, generate_flows};
//! use skalla::datagen::partition::partition_by_int_ranges;
//! use skalla::gmdj::prelude::*;
//!
//! // Generate IP flow data and partition it across 4 sites by SourceAS.
//! let flows = generate_flows(&FlowConfig::small(7));
//! let parts = partition_by_int_ranges(&flows, "source_as", 4);
//!
//! // Query: per (SourceAS, DestAS), count flows and count flows whose
//! // byte volume exceeds the group average (paper Example 1).
//! let expr = GmdjExprBuilder::distinct_base("flow", &["source_as", "dest_as"])
//!     .gmdj(
//!         Gmdj::new("flow")
//!             .block(
//!                 ThetaBuilder::keys(&[("source_as", "source_as"), ("dest_as", "dest_as")]).build(),
//!                 vec![AggSpec::count("cnt1"), AggSpec::sum("num_bytes", "sum1")],
//!             ),
//!     )
//!     .gmdj(
//!         Gmdj::new("flow").block(
//!             ThetaBuilder::keys(&[("source_as", "source_as"), ("dest_as", "dest_as")])
//!                 .and_detail_ge_base_expr("num_bytes", "sum1 / cnt1")
//!                 .expect("condition parses")
//!                 .build(),
//!             vec![AggSpec::count("cnt2")],
//!         ),
//!     )
//!     .build();
//!
//! // One engine for every runtime: `partitions()` selects the in-process
//! // backend; `remote()` would dial standalone TCP site processes instead.
//! // The engine accepts concurrent `execute` calls from multiple threads.
//! let engine = Skalla::builder()
//!     .partitions("flow", parts)
//!     .build()
//!     .expect("engine builds");
//! let plan = Planner::new(engine.distribution()).optimize(&expr, OptFlags::all());
//! let out = engine.execute(&plan).expect("query runs");
//! assert_eq!(out.relation.schema().column_names(),
//!            ["source_as", "dest_as", "cnt1", "sum1", "cnt2"]);
//! ```

// Bad input is answered with an error, never a panic; a local invariant
// carries `#[expect(clippy::…, reason = "…")]` (docs/STATIC_ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub use skalla_core as core;
pub use skalla_datagen as datagen;
pub use skalla_gmdj as gmdj;
pub use skalla_net as net;
pub use skalla_obs as obs;
pub use skalla_query as query;
pub use skalla_relation as relation;
