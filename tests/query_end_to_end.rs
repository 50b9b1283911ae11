//! End-to-end: the paper's Example 1 written in the query language,
//! executed distributed, against hand-computed expected values.

use skalla::core::{Cluster, OptFlags};
use skalla::query;
use skalla::relation::{csv, row, DataType, Domain, DomainMap, Relation, Row, Schema, Value};

/// Flow tuples: (source_as, dest_as, num_bytes), placed so source_as is a
/// partition attribute across two "routers".
fn cluster() -> Cluster {
    let schema = Schema::of(&[
        ("source_as", DataType::Int),
        ("dest_as", DataType::Int),
        ("num_bytes", DataType::Int),
    ]);
    // Site 0: source_as ∈ {1}: (1,10): 100, 300; (1,20): 50.
    let p0 = Relation::new(
        schema.clone(),
        vec![
            row![1i64, 10i64, 100i64],
            row![1i64, 10i64, 300i64],
            row![1i64, 20i64, 50i64],
        ],
    )
    .unwrap();
    // Site 1: source_as ∈ {2}: (2,10): 80, 120.
    let p1 = Relation::new(
        schema,
        vec![row![2i64, 10i64, 80i64], row![2i64, 10i64, 120i64]],
    )
    .unwrap();
    Cluster::from_partitions(
        "flow",
        vec![
            (p0, DomainMap::new().with("source_as", Domain::IntRange(1, 1))),
            (p1, DomainMap::new().with("source_as", Domain::IntRange(2, 2))),
        ],
    )
}

const EXAMPLE1: &str = "
    BASE SELECT DISTINCT source_as, dest_as FROM flow;
    MD cnt1 = COUNT(*), sum1 = SUM(num_bytes)
       OVER flow
       WHERE source_as = b.source_as AND dest_as = b.dest_as;
    MD cnt2 = COUNT(*)
       OVER flow
       WHERE source_as = b.source_as AND dest_as = b.dest_as
             AND num_bytes >= b.sum1 / b.cnt1;
";

fn expected() -> Vec<Row> {
    vec![
        // (1,10): avg 200 → one flow ≥ 200.
        row![1i64, 10i64, 2i64, 400i64, 1i64],
        // (1,20): single flow equals its own average.
        row![1i64, 20i64, 1i64, 50i64, 1i64],
        // (2,10): avg 100 → one flow ≥ 100.
        row![2i64, 10i64, 2i64, 200i64, 1i64],
    ]
}

#[test]
fn example1_text_query_all_flag_sets() {
    let c = cluster();
    for flags in [
        OptFlags::none(),
        OptFlags::coalesce_only(),
        OptFlags::group_reduction_only(),
        OptFlags::sync_reduction_only(),
        OptFlags::all(),
    ] {
        let out = query::run(EXAMPLE1, &c, flags).unwrap();
        let sorted = out.relation.sorted_by(&["source_as", "dest_as"]).unwrap();
        assert_eq!(sorted.rows(), expected().as_slice(), "{flags:?}");
        assert_eq!(
            sorted.schema().column_names(),
            ["source_as", "dest_as", "cnt1", "sum1", "cnt2"]
        );
    }
}

#[test]
fn example5_single_synchronization() {
    // Paper Example 5: partition attribute + key entailment ⇒ the whole
    // query runs locally with a single synchronization.
    let c = cluster();
    let explained = query::explain(EXAMPLE1, &c, OptFlags::all()).unwrap();
    assert!(explained.contains("1 round(s)"), "{explained}");
    let out = query::run(EXAMPLE1, &c, OptFlags::all()).unwrap();
    assert_eq!(out.stats.n_rounds(), 1);
    // No base structure ever travels down.
    assert_eq!(out.stats.total_rows().0, 0);
}

#[test]
fn results_export_to_csv_and_back() {
    let c = cluster();
    let out = query::run(EXAMPLE1, &c, OptFlags::all()).unwrap();
    let sorted = out.relation.sorted_by(&["source_as", "dest_as"]).unwrap();
    let text = csv::to_csv(&sorted);
    assert!(text.starts_with("source_as,dest_as,cnt1,sum1,cnt2\n"));
    let back = csv::from_csv(&text, sorted.schema().clone()).unwrap();
    assert_eq!(back, sorted);
}

#[test]
fn unpivot_style_marginals_via_multiple_blocks() {
    // The paper cites unpivot/marginal-distribution queries as GMDJ
    // targets: compute per-source totals and three marginal counts with
    // one operator (three blocks after manual construction → here three
    // MD statements that the optimizer coalesces back into one round).
    let c = cluster();
    let q = "
        BASE SELECT DISTINCT source_as FROM flow;
        MD total = COUNT(*) OVER flow WHERE source_as = b.source_as;
        MD small = COUNT(*) OVER flow WHERE source_as = b.source_as AND num_bytes < 100;
        MD large = COUNT(*) OVER flow WHERE source_as = b.source_as AND num_bytes >= 100;
    ";
    let out = query::run(q, &c, OptFlags::all()).unwrap();
    let sorted = out.relation.sorted_by(&["source_as"]).unwrap();
    assert_eq!(sorted.rows()[0], row![1i64, 3i64, 1i64, 2i64]);
    assert_eq!(sorted.rows()[1], row![2i64, 2i64, 1i64, 1i64]);
    // Coalescing + sync reduction: single round despite three MDs.
    assert_eq!(out.stats.n_rounds(), 1);
    let _ = Value::Null;
}

/// `SUM(name + 1)` over a `STR` column types as nothing: the aggregate is
/// refused with a type error when the engine validates the plan, before
/// the plan or any stage ships. The site is a hand-written TCP peer that
/// answers the catalog handshake and records every frame it gets after.
#[test]
fn string_arithmetic_in_an_aggregate_is_refused_before_any_stage_ships() {
    use skalla::core::protocol::{self, SiteCatalogEntry};
    use skalla::core::Skalla;
    use skalla::gmdj::prelude::*;
    use skalla::net::{SiteTransport, TcpConfig, TcpSiteListener};
    use skalla::relation::Expr;
    use std::time::Duration;

    let listener = TcpSiteListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let site = std::thread::spawn(move || {
        let s = listener.accept(&TcpConfig::default()).unwrap();
        assert_eq!(s.recv().unwrap().tag, protocol::TAG_CATALOG_REQ);
        let entry = SiteCatalogEntry {
            table: "t".into(),
            schema: Schema::of(&[("g", DataType::Int), ("name", DataType::Str)]),
            domains: DomainMap::new(),
        };
        s.send(protocol::catalog(&[entry])).unwrap();
        std::iter::from_fn(|| s.recv().ok().map(|m| m.tag)).collect::<Vec<u8>>()
    });
    let engine = Skalla::builder()
        .remote(&[addr], TcpConfig::default())
        .timeout(Duration::from_secs(10))
        .build()
        .unwrap();
    let sum = AggSpec::over_expr(AggFunc::Sum, Expr::dcol("name").add(Expr::lit(1i64)), "s");
    let expr = GmdjExprBuilder::distinct_base("t", &["g"])
        .gmdj(Gmdj::new("t").block(ThetaBuilder::group_by(&["g"]).build(), vec![sum]))
        .build();
    let plan = skalla::core::plan::Planner::new(engine.distribution()).optimize(&expr, OptFlags::none());
    let err = engine.execute(&plan).unwrap_err().to_string();
    assert!(err.contains("type error: non-numeric operand of +"), "{err}");
    drop(engine);
    let after_handshake = site.join().expect("the site saw the session end");
    for tag in [protocol::TAG_PLAN, protocol::TAG_RUN_STAGE] {
        assert!(!after_handshake.contains(&tag), "tag {tag} shipped: {after_handshake:?}");
    }
}
