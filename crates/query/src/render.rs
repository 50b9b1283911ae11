//! Render GMDJ expressions back to query-language text.
//!
//! The inverse of [`crate::compile()`]: useful for logging, for showing the
//! effect of rewrites (a coalesced expression renders as one `MD` with the
//! merged aggregate list), and for persisting programmatically-built
//! queries. Round-trip guarantee: `compile(parse(render(e))) == e` for any
//! renderable expression (the base must be a `DistinctProject`; literal
//! bases have no textual form).

use crate::cube::CubeResult;
use skalla_gmdj::{AggSpec, BaseQuery, GmdjExpr};
use skalla_relation::{Error, Result};

fn render_agg(a: &AggSpec) -> String {
    match &a.input {
        Some(e) => format!("{} = {}({e})", a.name, a.func),
        None => format!("{} = {}(*)", a.name, a.func),
    }
}

/// Render a GMDJ expression as query text.
///
/// Each block of each operator becomes one `MD` statement (blocks of a
/// multi-block operator are independent by construction, so the planner's
/// coalescing pass reassembles them losslessly — and `compile ∘ parse`
/// yields one operator per block, which `coalesce_chain` merges back).
pub fn render(expr: &GmdjExpr) -> Result<String> {
    let BaseQuery::DistinctProject { table, columns } = &expr.base else {
        return Err(Error::Plan(
            "literal base relations have no textual form".into(),
        ));
    };
    let mut out = format!("BASE SELECT DISTINCT {} FROM {table}", columns.join(", "));
    if let Some(key) = &expr.key {
        out += &format!(" KEY ({})", key.join(", "));
    }
    out.push_str(";\n");
    for op in &expr.ops {
        for block in &op.blocks {
            let aggs: Vec<String> = block.aggs.iter().map(render_agg).collect();
            out += &format!(
                "MD {} OVER {} WHERE {};\n",
                aggs.join(", "),
                op.detail,
                block.theta
            );
        }
    }
    Ok(out)
}

/// Render a cube result's per-level provenance as an aligned text table:
/// one line per grouping set with its source (computed / cache-hit /
/// rolled-up), row count, and — for levels that ran a distributed
/// query — rounds and bytes moved. Consumed by the CLI and examples.
pub fn render_cube_levels(result: &CubeResult) -> String {
    let mut out = format!(
        "{:<44} {:>10} {:>7} {:>7} {:>12}\n",
        "grouping set", "source", "rows", "rounds", "bytes"
    );
    for level in &result.levels {
        let name = if level.dims.is_empty() {
            "()".to_string()
        } else {
            format!("({})", level.dims.join(", "))
        };
        let (rounds, bytes) = match &level.stats {
            Some(s) => (s.n_rounds().to_string(), s.total_bytes().to_string()),
            None => ("-".to_string(), "-".to_string()),
        };
        out += &format!(
            "{name:<44} {:>10} {:>7} {rounds:>7} {bytes:>12}\n",
            level.source.to_string(),
            level.rows,
        );
    }
    out += &format!(
        "total: {} rows, {} rounds, {} bytes, {} level(s) rolled up locally\n",
        result.relation.len(),
        result.total_rounds(),
        result.total_bytes(),
        result.rolled_up_levels(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_text;
    use skalla_gmdj::prelude::*;
    use skalla_gmdj::rewrite::coalesce_chain;
    use skalla_relation::{row, DataType, Relation, Schema, Value};

    fn sample() -> GmdjExpr {
        GmdjExprBuilder::distinct_base("flow", &["sas", "das"])
            .gmdj(Gmdj::new("flow").block(
                ThetaBuilder::group_by(&["sas", "das"]).build(),
                vec![
                    AggSpec::count("cnt1"),
                    AggSpec::over_expr(
                        AggFunc::Sum,
                        Expr::dcol("nb").mul(Expr::lit(8i64)),
                        "bits",
                    ),
                ],
            ))
            .gmdj(Gmdj::new("flow").block(
                ThetaBuilder::group_by(&["sas", "das"])
                    .and(Expr::dcol("proto").eq(Expr::lit(Value::str("it's tcp"))))
                    .and(Expr::dcol("nb").ge(Expr::bcol("bits").div(Expr::bcol("cnt1"))))
                    .build(),
                vec![AggSpec::stddev("nb", "sd")],
            ))
            .build()
    }

    #[test]
    fn renders_readable_text() {
        let text = render(&sample()).unwrap();
        assert!(text.starts_with("BASE SELECT DISTINCT sas, das FROM flow;"));
        assert!(text.contains("cnt1 = COUNT(*)"));
        assert!(text.contains("bits = SUM((r.nb * 8))"));
        assert!(text.contains("sd = STDDEV(r.nb)"));
        assert!(text.contains("'it''s tcp'"), "{text}");
    }

    #[test]
    fn round_trips_through_the_parser() {
        let original = sample();
        let text = render(&original).unwrap();
        let back = compile_text(&text).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn multi_block_operator_round_trips_up_to_coalescing() {
        // A two-block operator renders as two MD statements; compiling
        // yields two operators; coalescing merges them back.
        let original = GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(
                Gmdj::new("t")
                    .block(
                        ThetaBuilder::group_by(&["g"]).build(),
                        vec![AggSpec::count("a")],
                    )
                    .block(
                        ThetaBuilder::group_by(&["g"])
                            .and(Expr::dcol("v").gt(Expr::lit(0i64)))
                            .build(),
                        vec![AggSpec::count("b")],
                    ),
            )
            .build();
        let text = render(&original).unwrap();
        let compiled = compile_text(&text).unwrap();
        assert_eq!(compiled.ops.len(), 2);
        let (merged, _) = coalesce_chain(&compiled);
        assert_eq!(merged, original);
    }

    #[test]
    fn key_clause_round_trips() {
        let e = GmdjExprBuilder::distinct_base("t", &["a", "b"])
            .key(&["a"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["a"]).build(),
                vec![AggSpec::count("c")],
            ))
            .build();
        let text = render(&e).unwrap();
        assert!(text.contains("KEY (a)"));
        assert_eq!(compile_text(&text).unwrap(), e);
    }

    #[test]
    fn cube_levels_table_shows_provenance() {
        use crate::cube::cube;
        use skalla_core::{Cluster, OptFlags};
        use skalla_relation::{Domain, DomainMap};
        let schema = Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]);
        let part = Relation::new(schema, vec![row![1i64, 10i64], row![2i64, 20i64]]).unwrap();
        let c = Cluster::from_partitions(
            "t",
            vec![(part, DomainMap::new().with("g", Domain::IntRange(1, 2)))],
        );
        let result = cube(&c, "t", &["g"], &[AggSpec::count("n")], OptFlags::all()).unwrap();
        let text = render_cube_levels(&result);
        assert!(text.contains("(g)"), "{text}");
        assert!(text.contains("computed"), "{text}");
        assert!(text.contains("rolled-up"), "{text}");
        assert!(text.contains("1 level(s) rolled up locally"), "{text}");
    }

    #[test]
    fn literal_base_not_renderable() {
        let base = Relation::new(Schema::of(&[("g", DataType::Int)]), vec![row![1i64]]).unwrap();
        let e = GmdjExprBuilder::literal_base(base)
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("c")],
            ))
            .build();
        assert!(render(&e).is_err());
    }
}
