//! Runtime robustness: corrupted plans, site-side failures, and
//! multi-table chains through the real threaded runtime.

use skalla::core::{plan::Planner, Cluster, DistributedPlan, OptFlags, StageKind};
use skalla::gmdj::prelude::*;
use skalla::relation::{row, DataType, DomainMap, Relation, Schema};

fn schema() -> Schema {
    Schema::of(&[("g", DataType::Int), ("v", DataType::Int)])
}

fn cluster_parts() -> Vec<(Relation, DomainMap)> {
    let p0 = Relation::new(schema(), vec![row![1i64, 10i64], row![2i64, 6i64]]).unwrap();
    let p1 = Relation::new(schema(), vec![row![1i64, 20i64]]).unwrap();
    vec![(p0, DomainMap::new()), (p1, DomainMap::new())]
}

fn cluster() -> Cluster {
    Cluster::from_partitions("t", cluster_parts())
}

fn expr() -> GmdjExpr {
    GmdjExprBuilder::distinct_base("t", &["g"])
        .gmdj(Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![AggSpec::count("c")],
        ))
        .build()
}

#[test]
fn corrupted_stage_range_is_a_site_error_not_a_hang() {
    let c = cluster();
    let mut plan: DistributedPlan =
        Planner::new(c.distribution()).optimize(&expr(), OptFlags::none());
    // Corrupt the unit's op range to point past the expression.
    for stage in &mut plan.stages {
        if let StageKind::Unit(u) = &mut stage.kind {
            u.ops = 5..6;
        }
    }
    let err = c.execute(&plan).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("op range"), "unexpected error: {msg}");
}

#[test]
fn corrupted_ship_columns_fail_cleanly() {
    let c = cluster();
    let mut plan = Planner::new(c.distribution()).optimize(&expr(), OptFlags::none());
    for stage in &mut plan.stages {
        if let StageKind::Unit(u) = &mut stage.kind {
            u.ship_columns = vec!["no_such_column".to_string()];
        }
    }
    assert!(c.execute(&plan).is_err());
}

#[test]
fn wrong_site_filter_count_fails_cleanly() {
    let c = cluster();
    let mut plan = Planner::new(c.distribution()).optimize(&expr(), OptFlags::none());
    for stage in &mut plan.stages {
        if let StageKind::Unit(u) = &mut stage.kind {
            u.site_filters.truncate(1); // 2 sites, 1 filter
        }
    }
    let err = c.execute(&plan).unwrap_err();
    assert!(err.to_string().contains("site filter"), "unexpected error: {err}");
}

#[test]
fn multi_table_chain_executes() {
    // Two fact tables: flows and alerts, both partitioned; the chain
    // aggregates over both in different rounds.
    let flows_schema = Schema::of(&[("asn", DataType::Int), ("bytes", DataType::Int)]);
    let alerts_schema = Schema::of(&[("asn", DataType::Int), ("sev", DataType::Int)]);
    let mut c = Cluster::new(2);
    c.add_table(
        "flows",
        vec![
            (
                Relation::new(
                    flows_schema.clone(),
                    vec![row![1i64, 100i64], row![2i64, 50i64]],
                )
                .unwrap(),
                DomainMap::new(),
            ),
            (
                Relation::new(flows_schema, vec![row![1i64, 300i64]]).unwrap(),
                DomainMap::new(),
            ),
        ],
    );
    c.add_table(
        "alerts",
        vec![
            (
                Relation::new(alerts_schema.clone(), vec![row![1i64, 5i64]]).unwrap(),
                DomainMap::new(),
            ),
            (
                Relation::new(
                    alerts_schema,
                    vec![row![1i64, 9i64], row![2i64, 2i64], row![3i64, 1i64]],
                )
                .unwrap(),
                DomainMap::new(),
            ),
        ],
    );

    let expr = GmdjExprBuilder::distinct_base("flows", &["asn"])
        .gmdj(Gmdj::new("flows").block(
            ThetaBuilder::group_by(&["asn"]).build(),
            vec![AggSpec::sum("bytes", "traffic")],
        ))
        .gmdj(Gmdj::new("alerts").block(
            ThetaBuilder::group_by(&["asn"]).build(),
            vec![AggSpec::count("n_alerts"), AggSpec::max("sev", "worst")],
        ))
        .gmdj(Gmdj::new("alerts").block(
            // Correlated across tables: alerts at least as severe as half
            // the AS's traffic-scaled threshold — a contrived but
            // cross-referencing condition.
            ThetaBuilder::group_by(&["asn"])
                .and(Expr::dcol("sev").mul(Expr::lit(100i64)).ge(Expr::bcol("traffic")))
                .build(),
            vec![AggSpec::count("big_alerts")],
        ))
        .build();

    for flags in [OptFlags::none(), OptFlags::all()] {
        let plan = Planner::new(c.distribution()).optimize(&expr, flags);
        let out = c.execute(&plan).unwrap();
        let sorted = out.relation.sorted_by(&["asn"]).unwrap();
        assert_eq!(
            sorted.schema().column_names(),
            ["asn", "traffic", "n_alerts", "worst", "big_alerts"]
        );
        // asn 1: traffic 400, alerts sev {5, 9}: 9*100 ≥ 400, 5*100 ≥ 400.
        assert_eq!(sorted.rows()[0], row![1i64, 400i64, 2i64, 9i64, 2i64]);
        // asn 2: traffic 50, one alert sev 2: 200 ≥ 50.
        assert_eq!(sorted.rows()[1], row![2i64, 50i64, 1i64, 2i64, 1i64]);
        // Oracle agreement.
        let oracle = expr
            .eval_centralized(&c.global_catalog(), Default::default())
            .unwrap();
        assert!(out.relation.same_bag(&oracle));
    }
}

#[test]
fn site_failure_leaves_a_persistent_engine_serving() {
    use skalla::core::Skalla;
    use skalla::relation::Value;
    // One execution slot: a slot leaked by the failed query would leave
    // the next one waiting out the queue timeout instead of running.
    let engine = Skalla::builder()
        .partitions("t", cluster_parts())
        .max_concurrent(1)
        .queue_timeout(std::time::Duration::from_secs(5))
        .build()
        .unwrap();
    let planner = Planner::new(engine.distribution());

    // θ adds a string to `r.v`: it binds (so the coordinator accepts the
    // plan) and fails when a site evaluates it on its first candidate.
    let ill_typed = GmdjExprBuilder::distinct_base("t", &["g"])
        .gmdj(Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"])
                .and(Expr::dcol("v").add(Expr::Lit(Value::str("x"))).gt(Expr::lit(0i64)))
                .build(),
            vec![AggSpec::count("c")],
        ))
        .build();
    let err = engine
        .execute(&planner.optimize(&ill_typed, OptFlags::none()))
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("site failed") && msg.contains("non-numeric operand"),
        "unexpected error: {msg}"
    );
    assert_eq!(engine.scheduler().running(), 0, "failed query kept its slot");

    // The same sessions answer the next query with the oracle's result.
    let out = engine
        .execute(&planner.optimize(&expr(), OptFlags::none()))
        .unwrap();
    let oracle = cluster().execute_centralized(&expr()).unwrap();
    assert!(out.relation.same_bag(&oracle.relation));
    assert_eq!(engine.scheduler().running(), 0);
    assert_eq!(engine.scheduler().waiting(), 0);
}

#[test]
fn plan_survives_codec_round_trip_and_still_executes() {
    let c = cluster();
    let plan = Planner::new(c.distribution()).optimize(&expr(), OptFlags::all());
    let bytes = skalla::core::encode_plan(&plan);
    let back = skalla::core::decode_plan(&bytes).unwrap();
    assert_eq!(back, plan);
    let a = c.execute(&plan).unwrap();
    let b = c.execute(&back).unwrap();
    assert!(a.relation.same_bag(&b.relation));
}
