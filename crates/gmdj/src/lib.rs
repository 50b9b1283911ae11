//! # skalla-gmdj — the GMDJ operator algebra and centralized evaluator
//!
//! Implements the Generalized Multi-Dimensional Join of Akinde & Böhlen
//! (the OLAP operator underlying the Skalla system): the operator itself
//! ([`operator::Gmdj`]), aggregate functions with sub-/super-aggregate
//! decomposition ([`agg`]), condition analysis ([`theta`]), complex GMDJ
//! expressions ([`chain`]), coalescing rewrites ([`rewrite`]), and an
//! efficient centralized evaluator ([`eval`]) with equi-key and
//! nested-loop strategies, evaluated through the vectorized columnar
//! kernel ([`columnar`]). Aggregate semantics — update, merge, finalize —
//! are stated once, in the typed accumulator states ([`state`]); the test
//! suites' reference, a `Value` fold and a serial row-at-a-time loop, is
//! written apart in the hidden `oracle` module.
//!
//! Distributed evaluation of these expressions lives in `skalla-core`.

// missing_docs is denied workspace-wide (see [workspace.lints]).
// Bad input is answered with an error, never a panic; a local invariant
// carries `#[expect(clippy::…, reason = "…")]` (docs/STATIC_ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod agg;
pub mod chain;
pub mod codec;
pub mod columnar;
pub mod eval;
pub mod operator;
#[doc(hidden)]
pub mod oracle;
pub mod patterns;
pub mod rewrite;
pub mod sketch;
pub mod state;
pub mod theta;

pub use agg::{AccLayout, AggFunc, AggSpec};
pub use chain::{BaseQuery, Catalog, GmdjExpr, GmdjExprBuilder};
pub use eval::{eval_full, eval_local, eval_shipped, EvalOptions, LocalGmdj, DEFAULT_MORSEL_ROWS};
pub use operator::{Gmdj, GmdjBlock};
pub use rewrite::{can_coalesce, coalesce, coalesce_chain, CoalesceReport};
pub use sketch::SpaceSaving;
pub use theta::{analyze_theta, ThetaAnalysis, ThetaBuilder};

/// Convenience re-exports for building GMDJ queries.
pub mod prelude {
    pub use crate::agg::{AggFunc, AggSpec};
    pub use crate::chain::{BaseQuery, Catalog, GmdjExpr, GmdjExprBuilder};
    pub use crate::eval::EvalOptions;
    pub use crate::operator::{Gmdj, GmdjBlock};
    pub use crate::theta::ThetaBuilder;
    pub use skalla_relation::{Expr, Relation, Row, Schema, Value};
}
