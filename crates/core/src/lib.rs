//! # skalla-core — the Skalla distributed OLAP engine
//!
//! The paper's contribution: distributed evaluation of complex OLAP
//! queries (GMDJ expressions) over a coordinator + local-warehouse-sites
//! architecture, shipping only aggregate structures — never detail data.
//!
//! * [`warehouse::Skalla`] — the engine: admission control, the query
//!   multiplexer, and Alg. GMDJDistribEval over persistent per-site
//!   sessions, in-process (channel transport) or multi-process (TCP),
//!   behind the [`warehouse::Warehouse`] API.
//! * [`cluster::Cluster`] — partitioned tables and their φ knowledge,
//!   plus the ship-everything centralized baseline the engine is
//!   checked against.
//! * [`remote::SiteServer`] — a standalone warehouse site for real
//!   multi-process clusters (`skalla-cli site` / `skalla-cli run
//!   --sites`).
//! * [`plan::Planner`] — the Egil planner: coalescing, distribution-aware
//!   and distribution-independent group reduction, synchronization
//!   reduction (Prop 2, Thm 5/Cor 1).
//! * [`distribution::DistributionInfo`] — per-site φ knowledge and
//!   partition-attribute detection (Definition 2).
//! * [`coordinator`] — the base-result structure, the Theorem 1
//!   synchronization, and the stage loop that drives them.
//! * [`stats`] — per-round traffic/compute measurements.
//! * [`cache`] — the semantic result cache of finished answers:
//!   canonical plan fingerprints, partition epochs, and one slot per
//!   fingerprint that coalesces identical queries in flight, behind the
//!   [`warehouse::Warehouse`] API.

// missing_docs is denied workspace-wide (see [workspace.lints]).
// Bad input is answered with an error, never a panic; a local invariant
// carries `#[expect(clippy::…, reason = "…")]` (docs/STATIC_ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod cache;
pub mod cluster;
pub mod coordinator;
pub mod distribution;
pub mod plan;
pub mod plan_codec;
pub mod protocol;
pub mod remote;
pub mod scheduler;
#[cfg(test)]
mod sim;
pub mod site;
pub mod skew;
pub mod stats;
pub mod warehouse;

pub use cache::{plan_fingerprint, plan_fingerprints, CacheStats, Fingerprint, SemanticCache};
pub use cluster::Cluster;
pub use distribution::DistributionInfo;
pub use plan::{
    DistributedPlan, OptFlags, PlanDecision, Planner, SiteFilter, Stage, StageKind, Unit,
};
pub use plan_codec::{decode_plan, encode_plan};
pub use remote::SiteServer;
pub use scheduler::{AdmissionError, QueryId, QueryScheduler, SchedulerConfig};
pub use skew::{plan_routing, skew_eligible, HotReport, SkewPlan, SkewSpec};
pub use stats::{ExecStats, QueryResult, StageTimes};
pub use warehouse::{EngineConfig, Skalla, SkallaBuilder, Warehouse};
