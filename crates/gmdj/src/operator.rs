//! The GMDJ operator.
//!
//! `MD(B, R, (l₁, …, l_m), (θ₁, …, θ_m))` extends each base tuple `b ∈ B`
//! with aggregates over `RNG(b, R, θᵢ) = { r ∈ R | θᵢ(b, r) }` for each
//! *block* `(θᵢ, lᵢ)` (Definition 1 of the paper). Unlike SQL GROUP BY, the
//! ranges of different base tuples may overlap, which is what makes the
//! operator expressive enough for correlated aggregates, data cubes and
//! multi-feature queries — and what makes its distributed evaluation
//! interesting.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::agg::{AccLayout, AggSpec};
use skalla_relation::{Error, Expr, Field, Result, Schema, Side};
use std::collections::HashSet;
use std::fmt;

/// One `(θᵢ, lᵢ)` pair: a condition and the aggregates computed over the
/// tuples satisfying it.
#[derive(Debug, Clone, PartialEq)]
pub struct GmdjBlock {
    /// The range condition θᵢ(b, r).
    pub theta: Expr,
    /// The aggregate list lᵢ.
    pub aggs: Vec<AggSpec>,
}

/// A GMDJ operator: the detail relation name plus its blocks.
///
/// The base-values relation is supplied by the evaluation context (it is
/// the result of the previous operator in a [`crate::chain::GmdjExpr`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Gmdj {
    /// Name of the detail relation `R` in the catalog.
    pub detail: String,
    /// The `(θᵢ, lᵢ)` blocks.
    pub blocks: Vec<GmdjBlock>,
}

impl Gmdj {
    /// A GMDJ over the named detail relation, with no blocks yet.
    pub fn new(detail: impl Into<String>) -> Gmdj {
        Gmdj {
            detail: detail.into(),
            blocks: Vec::new(),
        }
    }

    /// Append a block (builder style).
    pub fn block(mut self, theta: Expr, aggs: Vec<AggSpec>) -> Gmdj {
        self.blocks.push(GmdjBlock { theta, aggs });
        self
    }

    /// All aggregates across blocks, in output order.
    pub fn all_aggs(&self) -> impl Iterator<Item = &AggSpec> {
        self.blocks.iter().flat_map(|b| b.aggs.iter())
    }

    /// The aggregate lists of the blocks, in block order.
    pub fn block_aggs(&self) -> Vec<Vec<AggSpec>> {
        self.blocks.iter().map(|b| b.aggs.clone()).collect()
    }

    /// The accumulator layout of this operator over a detail relation of
    /// schema `detail`: one slot per distinct sub-aggregate of a block.
    pub fn layout(&self, detail: &Schema) -> Result<AccLayout> {
        AccLayout::new(&self.block_aggs(), detail)
    }

    /// The names of the logical output columns this GMDJ adds.
    pub fn output_names(&self) -> Vec<&str> {
        self.all_aggs().map(|a| a.name.as_str()).collect()
    }

    /// The disjunction θ₁ ∨ … ∨ θ_m over all blocks (used by group
    /// reduction: a base tuple matters to a site iff some block matches).
    pub fn any_theta(&self) -> Expr {
        Expr::disjunction(self.blocks.iter().map(|b| b.theta.clone()).collect())
    }

    /// Validate against the base and detail schemas: θs bind, aggregate
    /// inputs are detail-only and well-typed, and the output names and
    /// physical slot names (`a__sum`, `a__cnt`, …, which a site's answer
    /// carries beside the base columns) are fresh and mutually distinct.
    pub fn validate(&self, base: &Schema, detail: &Schema) -> Result<()> {
        if self.blocks.is_empty() {
            return Err(Error::Plan("GMDJ with no blocks".into()));
        }
        let mut names: HashSet<String> = HashSet::new();
        for b in &self.blocks {
            b.theta.bind(base, Some(detail))?;
            if b.aggs.is_empty() {
                return Err(Error::Plan("GMDJ block with no aggregates".into()));
            }
            for a in &b.aggs {
                a.validate(detail)?;
                let slot_names = a.slot_suffixes().iter().map(|s| format!("{}{s}", a.name));
                for name in std::iter::once(a.name.clone()).chain(slot_names) {
                    let name = name.as_str();
                    if base.contains(name) {
                        return Err(Error::DuplicateColumn(format!(
                            "aggregate column {name:?} collides with a base column"
                        )));
                    }
                    if !names.insert(name.to_string()) {
                        return Err(Error::DuplicateColumn(name.to_string()));
                    }
                }
            }
        }
        Ok(())
    }

    /// The logical output schema: base columns followed by aggregates.
    pub fn output_schema(&self, base: &Schema, detail: &Schema) -> Result<Schema> {
        let fields: Vec<Field> = self
            .all_aggs()
            .map(|a| a.logical_field(detail))
            .collect::<Result<_>>()?;
        base.extend(&fields)
    }

    /// Base-side columns referenced by any θ (these must be shipped to
    /// sites along with the key columns).
    pub fn base_columns_used(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        for b in &self.blocks {
            out.extend(b.theta.columns(Side::Base));
        }
        out
    }
}

impl fmt::Display for Gmdj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "MD(detail={}", self.detail)?;
        for (i, b) in self.blocks.iter().enumerate() {
            write!(f, "  block {i}: θ = {}", b.theta)?;
            write!(f, "; aggs = [")?;
            for (j, a) in b.aggs.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            writeln!(f, "]")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theta::ThetaBuilder;
    use skalla_relation::DataType;

    fn schemas() -> (Schema, Schema) {
        (
            Schema::of(&[("g", DataType::Int)]),
            Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]),
        )
    }

    fn op() -> Gmdj {
        Gmdj::new("t")
            .block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("c"), AggSpec::avg("v", "a")],
            )
            .block(
                ThetaBuilder::group_by(&["g"])
                    .and(Expr::dcol("v").ge(Expr::lit(0i64)))
                    .build(),
                vec![AggSpec::sum("v", "s")],
            )
    }

    #[test]
    fn schemas_and_names() {
        let (b, d) = schemas();
        let g = op();
        g.validate(&b, &d).unwrap();
        assert_eq!(g.output_names(), ["c", "a", "s"]);
        let out = g.output_schema(&b, &d).unwrap();
        assert_eq!(out.column_names(), ["g", "c", "a", "s"]);
        let slots = Schema::new(g.layout(&d).unwrap().fields()).unwrap();
        assert_eq!(slots.column_names(), ["c", "a__sum", "a__cnt", "s"]);
    }

    #[test]
    fn validation_failures() {
        let (b, d) = schemas();
        // Duplicate output name.
        let g = Gmdj::new("t")
            .block(ThetaBuilder::group_by(&["g"]).build(), vec![AggSpec::count("c")])
            .block(ThetaBuilder::group_by(&["g"]).build(), vec![AggSpec::count("c")]);
        assert!(g.validate(&b, &d).is_err());
        // Collision with a base column.
        let g = Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![AggSpec::count("g")],
        );
        assert!(g.validate(&b, &d).is_err());
        // θ references a column the base schema lacks.
        let g = Gmdj::new("t").block(
            Expr::bcol("missing").eq(Expr::dcol("g")),
            vec![AggSpec::count("c")],
        );
        assert!(g.validate(&b, &d).is_err());
        // No blocks / no aggs.
        assert!(Gmdj::new("t").validate(&b, &d).is_err());
        let g = Gmdj::new("t").block(ThetaBuilder::group_by(&["g"]).build(), vec![]);
        assert!(g.validate(&b, &d).is_err());
    }

    /// An accumulator slot a name already holds — another aggregate's
    /// output or slot, or a base column — is refused at planning, before a
    /// site builds the physical schema.
    #[test]
    fn slot_names_collide_with_nothing() {
        let (b, d) = schemas();
        let op = |aggs: Vec<AggSpec>| Gmdj::new("t").block(ThetaBuilder::group_by(&["g"]).build(), aggs);
        let dup = |g: Gmdj, b: &Schema| matches!(g.validate(b, &d), Err(Error::DuplicateColumn(_)));
        assert!(dup(op(vec![AggSpec::avg("v", "a"), AggSpec::count("a__cnt")]), &b));
        assert!(dup(op(vec![AggSpec::count("a__sumsq"), AggSpec::var("v", "a")]), &b));
        let two_blocks = op(vec![AggSpec::avg("v", "a")]).block(Expr::True, vec![AggSpec::stddev("v", "a__sum")]);
        assert!(dup(two_blocks, &b));
        let b2 = Schema::of(&[("g", DataType::Int), ("a__sum", DataType::Int)]);
        assert!(dup(op(vec![AggSpec::avg("v", "a")]), &b2));
        // Distinct slots pass: `a__sum` of `a`, `b__sum` of `b`.
        op(vec![AggSpec::avg("v", "a"), AggSpec::var("v", "b")]).validate(&b, &d).unwrap();
    }

    #[test]
    fn any_theta_is_disjunction() {
        let g = op();
        assert!(matches!(g.any_theta(), Expr::Or(_, _)));
        let single = Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![AggSpec::count("c")],
        );
        // Single block: the disjunction is just that block's θ.
        assert_eq!(single.any_theta(), ThetaBuilder::group_by(&["g"]).build());
    }

    #[test]
    fn base_columns_used_unions_thetas() {
        let g = Gmdj::new("t")
            .block(ThetaBuilder::group_by(&["g"]).build(), vec![AggSpec::count("c")])
            .block(
                Expr::dcol("v").ge(Expr::bcol("lo")),
                vec![AggSpec::count("c2")],
            );
        let used = g.base_columns_used();
        assert!(used.contains("g") && used.contains("lo"));
        assert_eq!(used.len(), 2);
    }

    #[test]
    fn display_is_readable() {
        let s = op().to_string();
        assert!(s.contains("MD(detail=t"));
        assert!(s.contains("COUNT(*) -> c"));
    }
}
