//! Complex GMDJ expressions: chains where each operator's result is the
//! next operator's base-values relation.
//!
//! The paper restricts complex expressions to this shape (Sect. 2.2): the
//! result of an inner GMDJ — which has exactly as many tuples as its base —
//! feeds the outer GMDJ. A [`GmdjExpr`] is therefore a base query plus an
//! ordered list of [`Gmdj`] operators; evaluating it uses `m + 1` rounds in
//! the distributed setting.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::eval::{eval_full, EvalOptions};
use crate::operator::Gmdj;
use skalla_obs::Obs;
use skalla_relation::{Error, Relation, Result, Schema};
use std::collections::HashMap;

/// A name → relation resolver. Warehouse sites implement this over their
/// local partitions; tests implement it over in-memory maps.
pub trait Catalog {
    /// Look up a table by name.
    fn table(&self, name: &str) -> Result<&Relation>;
}

impl Catalog for HashMap<String, Relation> {
    fn table(&self, name: &str) -> Result<&Relation> {
        self.get(name)
            .ok_or_else(|| Error::Plan(format!("unknown table {name:?}")))
    }
}

impl Catalog for HashMap<String, std::sync::Arc<Relation>> {
    fn table(&self, name: &str) -> Result<&Relation> {
        self.get(name)
            .map(|r| r.as_ref())
            .ok_or_else(|| Error::Plan(format!("unknown table {name:?}")))
    }
}

/// How the base-values relation B₀ is obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum BaseQuery {
    /// `π^distinct_columns(table)` — the common case: groups are the
    /// distinct combinations of grouping attributes in the fact relation.
    DistinctProject {
        /// Fact relation name.
        table: String,
        /// Grouping columns.
        columns: Vec<String>,
    },
    /// An explicit relation supplied with the query (e.g. a dimension
    /// table or a literal list of groups held by the coordinator).
    Literal(Relation),
}

impl BaseQuery {
    /// The schema of B₀.
    pub fn schema(&self, catalog: &dyn Catalog) -> Result<Schema> {
        match self {
            BaseQuery::DistinctProject { table, columns } => {
                let t = catalog.table(table)?;
                let idx = t
                    .schema()
                    .indexes_of(&columns.iter().map(String::as_str).collect::<Vec<_>>())?;
                t.schema().project(&idx)
            }
            BaseQuery::Literal(rel) => Ok(rel.schema().clone()),
        }
    }

    /// Evaluate B₀ against a catalog (one site's partition, or the whole
    /// database when centralized).
    pub fn eval(&self, catalog: &dyn Catalog) -> Result<Relation> {
        match self {
            BaseQuery::DistinctProject { table, columns } => {
                let t = catalog.table(table)?;
                t.project_distinct(&columns.iter().map(String::as_str).collect::<Vec<_>>())
            }
            BaseQuery::Literal(rel) => Ok(rel.clone()),
        }
    }

    /// The fact relation this query reads, if any.
    pub fn table(&self) -> Option<&str> {
        match self {
            BaseQuery::DistinctProject { table, .. } => Some(table),
            BaseQuery::Literal(_) => None,
        }
    }
}

/// A complex GMDJ expression: base query + chain of GMDJ operators.
#[derive(Debug, Clone, PartialEq)]
pub struct GmdjExpr {
    /// How B₀ is computed.
    pub base: BaseQuery,
    /// Key attributes K of the base-values relation. `None` means all of
    /// B₀'s columns (always correct for a distinct projection).
    pub key: Option<Vec<String>>,
    /// The GMDJ operators, innermost first.
    pub ops: Vec<Gmdj>,
}

impl GmdjExpr {
    /// The key columns used for synchronization.
    pub fn key_columns(&self, catalog: &dyn Catalog) -> Result<Vec<String>> {
        match &self.key {
            Some(k) => Ok(k.clone()),
            None => Ok(self
                .base
                .schema(catalog)?
                .column_names()
                .into_iter()
                .map(str::to_string)
                .collect()),
        }
    }

    /// Validate the whole chain against a catalog, returning the schema of
    /// every intermediate result `B₀ … B_m` (so `schemas.last()` is the
    /// output schema).
    pub fn validate(&self, catalog: &dyn Catalog) -> Result<Vec<Schema>> {
        let (mut schemas, output) = self.walk(catalog)?;
        schemas.push(output);
        Ok(schemas)
    }

    /// The output schema of the full expression.
    pub fn output_schema(&self, catalog: &dyn Catalog) -> Result<Schema> {
        Ok(self.walk(catalog)?.1)
    }

    /// Validate the chain: the schemas `B₀ … B_{m-1}` and, apart, `B_m`.
    fn walk(&self, catalog: &dyn Catalog) -> Result<(Vec<Schema>, Schema)> {
        let mut cur = self.base.schema(catalog)?;
        if let Some(keys) = &self.key {
            for k in keys {
                cur.index_of(k)?;
            }
        }
        let mut earlier = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let detail = catalog.table(&op.detail)?.schema().clone();
            op.validate(&cur, &detail)?;
            let next = op.output_schema(&cur, &detail)?;
            earlier.push(std::mem::replace(&mut cur, next));
        }
        Ok((earlier, cur))
    }

    /// Evaluate the whole chain on one machine. This is the correctness
    /// oracle for distributed execution and the centralized baseline.
    pub fn eval_centralized(&self, catalog: &dyn Catalog, opts: EvalOptions) -> Result<Relation> {
        let mut b = self.base.eval(catalog)?;
        for op in &self.ops {
            let detail = catalog.table(&op.detail)?;
            b = eval_full(&b, detail, op, opts, &Obs::disabled(), 0)?;
        }
        Ok(b)
    }
}

/// Builder for [`GmdjExpr`].
#[derive(Debug, Clone)]
pub struct GmdjExprBuilder {
    base: BaseQuery,
    key: Option<Vec<String>>,
    ops: Vec<Gmdj>,
}

impl GmdjExprBuilder {
    /// Base = distinct projection of grouping columns from a fact table.
    pub fn distinct_base(table: impl Into<String>, columns: &[&str]) -> GmdjExprBuilder {
        GmdjExprBuilder {
            base: BaseQuery::DistinctProject {
                table: table.into(),
                columns: columns.iter().map(|c| c.to_string()).collect(),
            },
            key: None,
            ops: Vec::new(),
        }
    }

    /// Base = an explicit relation.
    pub fn literal_base(rel: Relation) -> GmdjExprBuilder {
        GmdjExprBuilder {
            base: BaseQuery::Literal(rel),
            key: None,
            ops: Vec::new(),
        }
    }

    /// Override the key attributes K (defaults to all base columns).
    pub fn key(mut self, columns: &[&str]) -> GmdjExprBuilder {
        self.key = Some(columns.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Append a GMDJ operator.
    pub fn gmdj(mut self, op: Gmdj) -> GmdjExprBuilder {
        self.ops.push(op);
        self
    }

    /// Finish.
    pub fn build(self) -> GmdjExpr {
        GmdjExpr {
            base: self.base,
            key: self.key,
            ops: self.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use crate::theta::ThetaBuilder;
    use skalla_relation::{row, DataType, Expr, Value};

    fn catalog() -> HashMap<String, Relation> {
        let flow = Relation::new(
            Schema::of(&[
                ("sas", DataType::Int),
                ("das", DataType::Int),
                ("nb", DataType::Int),
            ]),
            vec![
                row![1i64, 10i64, 100i64],
                row![1i64, 10i64, 300i64],
                row![1i64, 20i64, 50i64],
                row![2i64, 10i64, 80i64],
                row![2i64, 10i64, 120i64],
            ],
        )
        .unwrap();
        HashMap::from([("flow".to_string(), flow)])
    }

    /// Paper Example 1: per (sas, das), total flows and flows with
    /// nb ≥ group average.
    fn example1() -> GmdjExpr {
        GmdjExprBuilder::distinct_base("flow", &["sas", "das"])
            .gmdj(Gmdj::new("flow").block(
                ThetaBuilder::group_by(&["sas", "das"]).build(),
                vec![AggSpec::count("cnt1"), AggSpec::sum("nb", "sum1")],
            ))
            .gmdj(Gmdj::new("flow").block(
                ThetaBuilder::group_by(&["sas", "das"])
                    .and_detail_ge_base_expr("nb", "sum1 / cnt1")
                    .unwrap()
                    .build(),
                vec![AggSpec::count("cnt2")],
            ))
            .build()
    }

    #[test]
    fn example1_centralized() {
        let cat = catalog();
        let out = example1()
            .eval_centralized(&cat, EvalOptions::default())
            .unwrap();
        assert_eq!(
            out.schema().column_names(),
            ["sas", "das", "cnt1", "sum1", "cnt2"]
        );
        let sorted = out.sorted_by(&["sas", "das"]).unwrap();
        // (1,10): nb {100,300}, avg 200 → one ≥.
        assert_eq!(sorted.rows()[0], row![1i64, 10i64, 2i64, 400i64, 1i64]);
        // (1,20): single tuple, it equals the avg.
        assert_eq!(sorted.rows()[1], row![1i64, 20i64, 1i64, 50i64, 1i64]);
        // (2,10): nb {80,120}, avg 100 → one ≥.
        assert_eq!(sorted.rows()[2], row![2i64, 10i64, 2i64, 200i64, 1i64]);
    }

    #[test]
    fn validate_reports_intermediate_schemas() {
        let cat = catalog();
        let schemas = example1().validate(&cat).unwrap();
        assert_eq!(schemas.len(), 3);
        assert_eq!(schemas[0].column_names(), ["sas", "das"]);
        assert_eq!(schemas[1].column_names(), ["sas", "das", "cnt1", "sum1"]);
        assert_eq!(
            schemas[2].column_names(),
            ["sas", "das", "cnt1", "sum1", "cnt2"]
        );
    }

    #[test]
    fn default_key_is_all_base_columns() {
        let cat = catalog();
        assert_eq!(example1().key_columns(&cat).unwrap(), ["sas", "das"]);
        let with_key = GmdjExprBuilder::distinct_base("flow", &["sas", "das"])
            .key(&["sas"])
            .build();
        assert_eq!(with_key.key_columns(&cat).unwrap(), ["sas"]);
    }

    #[test]
    fn unknown_table_and_key_rejected() {
        let cat = catalog();
        let bad = GmdjExprBuilder::distinct_base("nope", &["x"]).build();
        assert!(bad.validate(&cat).is_err());
        let bad_key = GmdjExprBuilder::distinct_base("flow", &["sas"])
            .key(&["das"])
            .build();
        assert!(bad_key.validate(&cat).is_err());
    }

    #[test]
    fn literal_base() {
        let cat = catalog();
        let groups = Relation::new(
            Schema::of(&[("sas", DataType::Int)]),
            vec![row![1i64], row![9i64]],
        )
        .unwrap();
        let expr = GmdjExprBuilder::literal_base(groups)
            .gmdj(Gmdj::new("flow").block(
                ThetaBuilder::group_by(&["sas"]).build(),
                vec![AggSpec::count("c")],
            ))
            .build();
        let out = expr.eval_centralized(&cat, EvalOptions::default()).unwrap();
        assert_eq!(out.rows()[0], row![1i64, 3i64]);
        assert_eq!(out.rows()[1], row![9i64, 0i64]);
    }

    #[test]
    fn min_max_chain() {
        let cat = catalog();
        let expr = GmdjExprBuilder::distinct_base("flow", &["sas"])
            .gmdj(Gmdj::new("flow").block(
                ThetaBuilder::group_by(&["sas"]).build(),
                vec![AggSpec::min("nb", "mn"), AggSpec::max("nb", "mx")],
            ))
            .gmdj(Gmdj::new("flow").block(
                ThetaBuilder::group_by(&["sas"])
                    .and(Expr::dcol("nb").eq(Expr::bcol("mx")))
                    .build(),
                vec![AggSpec::count("n_at_max")],
            ))
            .build();
        let out = expr
            .eval_centralized(&cat, EvalOptions::default())
            .unwrap()
            .sorted_by(&["sas"])
            .unwrap();
        assert_eq!(out.rows()[0], row![1i64, 50i64, 300i64, 1i64]);
        assert_eq!(out.rows()[1], row![2i64, 80i64, 120i64, 1i64]);
        let _ = Value::Null;
    }
}
