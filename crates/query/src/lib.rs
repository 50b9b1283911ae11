//! # skalla-query — OLAP query language front-end
//!
//! A small textual language for complex GMDJ expressions: a `BASE`
//! declaration (the base-values relation) followed by `MD` statements
//! (GMDJ operators). The front-end parses ([`parser`]), compiles to the
//! algebra ([`compile()`]), and plugs into the Egil planner and the cluster
//! runtime for one-call execution and `EXPLAIN`.
//!
//! ```
//! use skalla_query::parse_query;
//! let q = parse_query("
//!     BASE SELECT DISTINCT source_as FROM flow;
//!     MD flows = COUNT(*), traffic = SUM(num_bytes)
//!        OVER flow WHERE source_as = b.source_as;
//! ").unwrap();
//! assert_eq!(q.mds.len(), 1);
//! ```

// missing_docs is denied workspace-wide (see [workspace.lints]).
// Bad input is answered with an error, never a panic; a local invariant
// carries `#[expect(clippy::…, reason = "…")]` (docs/STATIC_ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod ast;
pub mod compile;
pub mod cube;
pub mod parser;
pub mod render;

pub use ast::{AggDef, BaseStmt, MdStmt, Query};
pub use compile::{compile, compile_text, explain, run};
pub use cube::{cube, cube_with_rollup, CubeLevel, CubeResult, LevelSource};
pub use parser::parse_query;
pub use render::{render, render_cube_levels};
