//! Compilation of parsed queries into GMDJ expressions, plus the
//! end-to-end conveniences (`run`, `explain`) that tie the front-end to
//! the Egil planner and the cluster runtime.

use crate::ast::Query;
use crate::parser::parse_query;
use skalla_core::{OptFlags, Planner, QueryResult, Warehouse};
use skalla_gmdj::{AggSpec, Gmdj, GmdjExpr, GmdjExprBuilder};
use skalla_relation::Result;

/// Translate a parsed [`Query`] into a [`GmdjExpr`].
pub fn compile(query: &Query) -> GmdjExpr {
    let mut b = GmdjExprBuilder::distinct_base(
        query.base.table.clone(),
        &query
            .base
            .columns
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    if let Some(key) = &query.base.key {
        b = b.key(&key.iter().map(String::as_str).collect::<Vec<_>>());
    }
    for md in &query.mds {
        let aggs = md
            .aggs
            .iter()
            .map(|a| AggSpec {
                func: a.func,
                input: a.input.clone(),
                name: a.name.clone(),
            })
            .collect();
        b = b.gmdj(Gmdj::new(md.table.clone()).block(md.theta.clone(), aggs));
    }
    b.build()
}

/// Parse and compile query text.
pub fn compile_text(text: &str) -> Result<GmdjExpr> {
    Ok(compile(&parse_query(text)?))
}

/// Parse, plan and execute query text against any [`Warehouse`] — a
/// [`Skalla`](skalla_core::Skalla) engine over either backend, or a bare
/// [`Cluster`](skalla_core::Cluster).
pub fn run(
    text: &str,
    warehouse: &(impl Warehouse + ?Sized),
    flags: OptFlags,
) -> Result<QueryResult> {
    let expr = compile_text(text)?;
    let plan = Planner::new(warehouse.distribution()).optimize(&expr, flags);
    warehouse.execute(&plan)
}

/// Parse, plan, and render the distributed plan (the `EXPLAIN` verb),
/// followed by the planner's decisions, one `note:` line each.
pub fn explain(
    text: &str,
    warehouse: &(impl Warehouse + ?Sized),
    flags: OptFlags,
) -> Result<String> {
    let expr = compile_text(text)?;
    let (plan, decisions) =
        Planner::new(warehouse.distribution()).optimize_with_decisions(&expr, flags);
    let mut text = plan.explain();
    for d in &decisions {
        text.push_str(&format!("note: {d}\n"));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_core::Cluster;
    use skalla_relation::{row, DataType, Domain, DomainMap, Relation, Schema};

    const QUERY: &str = "
        BASE SELECT DISTINCT g FROM t;
        MD cnt1 = COUNT(*), avg1 = AVG(v) OVER t WHERE g = b.g;
        MD above = COUNT(*) OVER t WHERE g = b.g AND v >= b.avg1;
    ";

    fn cluster() -> Cluster {
        let schema = Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]);
        let p0 = Relation::new(
            schema.clone(),
            vec![row![1i64, 10i64], row![1i64, 30i64]],
        )
        .unwrap();
        let p1 = Relation::new(schema, vec![row![2i64, 5i64], row![2i64, 15i64]]).unwrap();
        Cluster::from_partitions(
            "t",
            vec![
                (p0, DomainMap::new().with("g", Domain::IntRange(1, 1))),
                (p1, DomainMap::new().with("g", Domain::IntRange(2, 2))),
            ],
        )
    }

    #[test]
    fn compile_produces_two_ops() {
        let expr = compile_text(QUERY).unwrap();
        assert_eq!(expr.ops.len(), 2);
        assert_eq!(expr.ops[0].blocks[0].aggs.len(), 2);
        assert_eq!(expr.ops[1].output_names(), ["above"]);
    }

    #[test]
    fn run_end_to_end() {
        let c = cluster();
        let out = run(QUERY, &c, OptFlags::all()).unwrap();
        let sorted = out.relation.sorted_by(&["g"]).unwrap();
        assert_eq!(sorted.rows()[0], row![1i64, 2i64, 20.0, 1i64]);
        assert_eq!(sorted.rows()[1], row![2i64, 2i64, 10.0, 1i64]);
    }

    #[test]
    fn optimized_and_unoptimized_agree() {
        let c = cluster();
        let a = run(QUERY, &c, OptFlags::none()).unwrap();
        let b = run(QUERY, &c, OptFlags::all()).unwrap();
        assert!(a.relation.same_bag(&b.relation));
        assert!(b.stats.n_rounds() < a.stats.n_rounds());
    }

    #[test]
    fn explain_shows_plan() {
        let c = cluster();
        let text = explain(QUERY, &c, OptFlags::all()).unwrap();
        assert!(text.contains("round 0"), "{text}");
        assert!(text.contains("local chain"), "{text}");
        assert!(text.contains("note: base fold (Prop. 2)"), "{text}");
    }

    #[test]
    fn key_clause_propagates() {
        let expr = compile_text(
            "BASE SELECT DISTINCT a, b FROM t KEY (a);
             MD c = COUNT(*) OVER t WHERE a = b.a;",
        )
        .unwrap();
        assert_eq!(expr.key, Some(vec!["a".to_string()]));
    }
}
