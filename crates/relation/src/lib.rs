//! # skalla-relation — relational substrate
//!
//! The storage and expression layer underneath the Skalla distributed OLAP
//! engine: scalar [`Value`]s, [`Schema`]s, [`Row`]s, in-memory
//! [`Relation`]s stored as columns ([`Column`]: typed vectors,
//! dictionary-encoded strings, validity bitmaps) with the usual
//! operators over them, rows being a view for the API edge, two-sided
//! scalar [`Expr`]essions
//! (GMDJ conditions θ(b, r)), interval/domain analysis for deriving the
//! paper's ¬ψ group-reduction filters, a binary codec with
//! exact byte accounting, and CSV import/export.
//!
//! The paper ran each warehouse site on AT&T's Daytona DBMS; this crate is
//! the equivalent local substrate, built from scratch.

// missing_docs is denied workspace-wide (see [workspace.lints]).
// Bad input is answered with an error, never a panic; a local invariant
// carries `#[expect(clippy::…, reason = "…")]` (docs/STATIC_ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

mod error;
mod value;

pub mod codec;
pub mod columns;
pub mod csv;
pub mod expr;
pub mod interval;
pub mod parse;
pub mod relation;
pub mod row;
pub mod schema;

pub use columns::{Bitmap, Column, ColumnBuilder, Columns, StrDictView};
pub use error::{Error, Result};
pub use expr::{ArithOp, BoundExpr, CmpOp, Expr, Side};
pub use parse::parse_expr;
pub use interval::{derive_base_constraint, BaseConstraint, Domain, DomainMap, Interval};
pub use relation::{Groups, Relation};
pub use row::Row;
pub use schema::{Field, Schema, SchemaRef};
pub use value::{cmp_i64_f64, f64_add, f64_is_i64, total_f64_cmp, DataType, Value, TWO_POW_63};
