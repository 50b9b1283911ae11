//! Cross-crate correctness: distributed evaluation must equal centralized
//! evaluation (the oracle) for every optimization combination, every
//! partitioning strategy, and both generated datasets — Theorems 1 and 3
//! of the paper, exercised end-to-end through the real threaded runtime.

use skalla::core::{
    plan::{Planner, StageKind},
    Cluster, EngineConfig, OptFlags, Skalla,
};
use skalla::datagen::flow::{generate_flows, FlowConfig};
use skalla::datagen::partition::{
    observe_int_ranges, partition_by_hash, partition_by_int_ranges, partition_by_value_sets,
    partition_round_robin, Partition,
};
use skalla::datagen::tpcr::{generate_tpcr, TpcrConfig};
use skalla::gmdj::eval::EvalOptions;
use skalla::gmdj::analyze_theta;
use skalla::gmdj::prelude::*;
use skalla::relation::{row, DataType, Domain, DomainMap, Relation, Row, Schema, Value};

fn all_flag_combos() -> Vec<OptFlags> {
    (0..16u32)
        .map(|bits| OptFlags {
            coalesce: bits & 1 != 0,
            group_reduction_site: bits & 2 != 0,
            group_reduction_coord: bits & 4 != 0,
            sync_reduction: bits & 8 != 0,
        })
        .collect()
}

/// Run `expr` on `cluster` under every flag combination and compare each
/// result with the centralized oracle.
fn assert_all_combos_match(cluster: &Cluster, expr: &GmdjExpr, context: &str) {
    let oracle = expr
        .eval_centralized(&cluster.global_catalog(), EvalOptions::default())
        .unwrap_or_else(|e| panic!("{context}: oracle failed: {e}"));
    let planner = Planner::new(cluster.distribution());
    for flags in all_flag_combos() {
        let plan = planner.optimize(expr, flags);
        let out = cluster
            .execute(&plan)
            .unwrap_or_else(|e| panic!("{context} {flags:?}: {e}\n{}", plan.explain()));
        assert!(
            out.relation.same_bag(&oracle),
            "{context} {flags:?}: wrong result\n{}",
            plan.explain()
        );
    }
}

/// Paper Example 1 over the flow data.
fn example1_flows() -> GmdjExpr {
    GmdjExprBuilder::distinct_base("flow", &["source_as", "dest_as"])
        .gmdj(Gmdj::new("flow").block(
            ThetaBuilder::group_by(&["source_as", "dest_as"]).build(),
            vec![AggSpec::count("cnt1"), AggSpec::sum("num_bytes", "sum1")],
        ))
        .gmdj(Gmdj::new("flow").block(
            ThetaBuilder::group_by(&["source_as", "dest_as"])
                .and_detail_ge_base_expr("num_bytes", "sum1 / cnt1")
                .unwrap()
                .build(),
            vec![AggSpec::count("cnt2")],
        ))
        .build()
}

/// A three-operator chain with every aggregate kind and a non-equi block.
fn kitchen_sink_flows() -> GmdjExpr {
    GmdjExprBuilder::distinct_base("flow", &["source_as"])
        .gmdj(
            Gmdj::new("flow")
                .block(
                    ThetaBuilder::group_by(&["source_as"]).build(),
                    vec![
                        AggSpec::count("flows"),
                        AggSpec::sum("num_bytes", "bytes"),
                        AggSpec::min("num_packets", "min_p"),
                        AggSpec::max("num_packets", "max_p"),
                        AggSpec::avg("num_bytes", "avg_b"),
                    ],
                )
                .block(
                    ThetaBuilder::group_by(&["source_as"])
                        .and(Expr::dcol("dest_port").in_list(vec![
                            Value::Int(80),
                            Value::Int(443),
                            Value::Int(8080),
                        ]))
                        .build(),
                    vec![AggSpec::count("web_flows")],
                ),
        )
        .gmdj(Gmdj::new("flow").block(
            ThetaBuilder::group_by(&["source_as"])
                .and(Expr::dcol("num_bytes").ge(Expr::bcol("avg_b")))
                .build(),
            vec![
                AggSpec::count("big"),
                AggSpec::over_expr(
                    AggFunc::Sum,
                    Expr::dcol("num_bytes").mul(Expr::lit(8i64)),
                    "big_bits",
                ),
            ],
        ))
        .gmdj(Gmdj::new("flow").block(
            // Non-equi correlated block: flows larger than this group's max
            // packet count × 100 (overlapping ranges across groups).
            Expr::dcol("num_bytes").ge(Expr::bcol("max_p").mul(Expr::lit(100i64))),
            vec![AggSpec::count("heavier_anywhere")],
        ))
        .build()
}

fn flow_partitions(n: usize) -> Vec<(String, Vec<Partition>)> {
    let flows = generate_flows(&FlowConfig {
        flows: 1500,
        routers: n,
        source_as: 24,
        dest_as: 10,
        skew: 0.9,
        seed: 11,
    });
    vec![
        (
            "range(source_as)".to_string(),
            partition_by_int_ranges(&flows, "source_as", n),
        ),
        (
            "hash(source_as)".to_string(),
            partition_by_hash(&flows, "source_as", n),
        ),
        (
            "value_sets(dest_as)".to_string(),
            partition_by_value_sets(&flows, "dest_as", n),
        ),
        ("round_robin".to_string(), partition_round_robin(&flows, n)),
    ]
}

#[test]
fn example1_matches_oracle_everywhere() {
    for n in [1usize, 2, 4, 8] {
        for (name, parts) in flow_partitions(n) {
            let cluster = Cluster::from_partitions("flow", parts);
            assert_all_combos_match(&cluster, &example1_flows(), &format!("{n} sites {name}"));
        }
    }
}

#[test]
fn kitchen_sink_matches_oracle_everywhere() {
    for (name, parts) in flow_partitions(4) {
        let cluster = Cluster::from_partitions("flow", parts);
        assert_all_combos_match(&cluster, &kitchen_sink_flows(), &format!("4 sites {name}"));
    }
}

#[test]
fn tpcr_nation_partitioning_matches_oracle() {
    let tpcr = generate_tpcr(&TpcrConfig {
        rows: 3000,
        // 512 customers over 8 nations = 64 per nation; cust_group blocks
        // of 32 align with nation boundaries, so both cust_key and
        // cust_group are partition attributes.
        customers: 512,
        nations: 8,
        suppliers: 15,
        parts: 50,
        skew: 0.4,
        seed: 5,
    });
    let mut parts = partition_by_int_ranges(&tpcr, "nation_key", 4);
    observe_int_ranges(&mut parts, &["cust_key", "cust_group"]);
    let cluster = Cluster::from_partitions("tpcr", parts);
    // cust_key and cust_group are partition attributes under contiguous
    // nation assignment.
    assert!(cluster.distribution().is_partition_attribute("tpcr", "cust_key"));
    assert!(cluster.distribution().is_partition_attribute("tpcr", "cust_group"));

    let per_customer = GmdjExprBuilder::distinct_base("tpcr", &["cust_key"])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["cust_key"]).build(),
            vec![AggSpec::count("lines"), AggSpec::avg("extended_price", "avg_p")],
        ))
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["cust_key"])
                .and(Expr::dcol("extended_price").ge(Expr::bcol("avg_p")))
                .build(),
            vec![AggSpec::count("pricey")],
        ))
        .build();
    assert_all_combos_match(&cluster, &per_customer, "tpcr per-customer");

    let per_group = GmdjExprBuilder::distinct_base("tpcr", &["cust_group"])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["cust_group"]).build(),
            vec![AggSpec::count("lines"), AggSpec::sum("quantity", "qty")],
        ))
        .build();
    assert_all_combos_match(&cluster, &per_group, "tpcr per-group");
}

#[test]
fn empty_and_degenerate_inputs() {
    // A site with an empty fragment.
    let flows = generate_flows(&FlowConfig::small(9));
    let schema = flows.schema().clone();
    let empty = Relation::empty(schema);
    let mut parts = partition_by_int_ranges(&flows, "source_as", 3);
    parts[1].relation = empty;
    let cluster = Cluster::from_partitions("flow", parts);
    assert_all_combos_match(&cluster, &example1_flows(), "one empty site");

    // Entirely empty warehouse.
    let empty_parts: Vec<Partition> =
        partition_by_int_ranges(&Relation::empty(flows.schema().clone()), "source_as", 2);
    let cluster = Cluster::from_partitions("flow", empty_parts);
    let plan = Planner::new(cluster.distribution()).optimize(&example1_flows(), OptFlags::all());
    let out = cluster.execute(&plan).unwrap();
    assert!(out.relation.is_empty());
}

#[test]
fn null_keyed_group_survives_distribution_aware_reduction() {
    // Site 0's φ declares g ∈ {1, NULL}. The equi-key `b.g = r.g` matches
    // NULL to NULL, so Thm 4 must not turn φ into `b.g IN (1, NULL)`,
    // which drops the NULL-keyed base tuple before it is shipped.
    let schema = Schema::of(&[("g", DataType::Int)]);
    let site0 = Relation::new(
        schema.clone(),
        vec![
            row![1i64],
            Row::new(vec![Value::Null]),
            Row::new(vec![Value::Null]),
        ],
    )
    .unwrap();
    let site1 = Relation::new(schema, vec![row![2i64]]).unwrap();
    let cluster = Cluster::from_partitions(
        "t",
        vec![
            (
                site0,
                DomainMap::new().with("g", Domain::of([Value::Int(1), Value::Null])),
            ),
            (
                site1,
                DomainMap::new().with("g", Domain::of([Value::Int(2)])),
            ),
        ],
    );
    let expr = GmdjExprBuilder::distinct_base("t", &["g"])
        .gmdj(Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![AggSpec::count("cnt")],
        ))
        .build();
    let oracle = cluster.execute_centralized(&expr).unwrap().relation;
    assert!(oracle
        .rows()
        .contains(&Row::new(vec![Value::Null, Value::Int(2)])));
    assert_all_combos_match(&cluster, &expr, "NULL-keyed group");
}

#[test]
fn single_site_cluster_equals_centralized() {
    let flows = generate_flows(&FlowConfig::small(21));
    let parts = partition_round_robin(&flows, 1);
    let cluster = Cluster::from_partitions("flow", parts);
    assert_all_combos_match(&cluster, &kitchen_sink_flows(), "single site");
}

#[test]
fn nested_loop_and_hash_paths_agree_distributed() {
    // Example 1 with its grouping key written as ranges
    // (`b.k <= r.k AND b.k >= r.k`), which `analyze_theta` does not lift
    // into an equi-key: every site evaluates it by nested loop.
    let ranged_key = || {
        ["source_as", "dest_as"]
            .iter()
            .fold(ThetaBuilder::new(), |t, k| {
                t.and(Expr::bcol(*k).le(Expr::dcol(*k)))
                    .and(Expr::bcol(*k).ge(Expr::dcol(*k)))
            })
    };
    let nested = GmdjExprBuilder::distinct_base("flow", &["source_as", "dest_as"])
        .gmdj(Gmdj::new("flow").block(
            ranged_key().build(),
            vec![AggSpec::count("cnt1"), AggSpec::sum("num_bytes", "sum1")],
        ))
        .gmdj(Gmdj::new("flow").block(
            ranged_key()
                .and_detail_ge_base_expr("num_bytes", "sum1 / cnt1")
                .unwrap()
                .build(),
            vec![AggSpec::count("cnt2")],
        ))
        .build();
    assert!(nested
        .ops
        .iter()
        .all(|op| analyze_theta(&op.any_theta()).equi.is_empty()));

    let flows = generate_flows(&FlowConfig::small(33));
    let c = Cluster::from_partitions("flow", partition_by_int_ranges(&flows, "source_as", 3));
    let run = |expr: &GmdjExpr| {
        let plan = Planner::new(c.distribution()).optimize(expr, OptFlags::all());
        c.execute(&plan).unwrap().relation
    };
    assert!(run(&example1_flows()).same_bag(&run(&nested)));
}

#[test]
fn folded_plan_is_bit_identical_cold_memoized_and_after_epoch_bump() {
    // The Fig. 2 chain grouped on a partition attribute: Thm 5 and Prop 2
    // fold it into one local round in which every site derives its groups
    // from its own partition — state the site keeps on the relation. The
    // same plan on one engine must give the oracle's bits when that state
    // is cold, when it is filled, and after an epoch bump (which the
    // sites never see).
    let tpcr = generate_tpcr(&TpcrConfig {
        rows: 3000,
        customers: 512,
        nations: 8,
        suppliers: 15,
        parts: 50,
        skew: 0.4,
        seed: 5,
    });
    let mut parts = partition_by_int_ranges(&tpcr, "nation_key", 4);
    observe_int_ranges(&mut parts, &["cust_key", "cust_group"]);
    let cluster = Cluster::from_partitions("tpcr", parts.clone());
    let expr = GmdjExprBuilder::distinct_base("tpcr", &["cust_group"])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["cust_group"]).build(),
            vec![AggSpec::count("cnt1"), AggSpec::avg("extended_price", "avg1")],
        ))
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["cust_group"])
                .and(Expr::dcol("extended_price").ge(Expr::bcol("avg1")))
                .build(),
            vec![
                AggSpec::count("cnt2"),
                AggSpec::sum("extended_price", "sum2"),
                AggSpec::var("discount", "var2"),
            ],
        ))
        .build();
    let plan = Planner::new(cluster.distribution()).optimize(&expr, OptFlags::all());
    assert_eq!(plan.n_rounds(), 1, "{}", plan.explain());
    assert!(
        plan.stages.iter().all(
            |s| matches!(&s.kind, StageKind::Unit(u) if u.fold_base && u.local_chain)
        ),
        "{}",
        plan.explain()
    );
    // Groups are site-local and every relation is one morsel, so each
    // accumulator sees the centralized run's operations in its order.
    let oracle = cluster
        .execute_centralized(&expr)
        .expect("oracle evaluates")
        .relation
        .sorted_by(&["cust_group"])
        .expect("sortable");

    let engine = Skalla::builder()
        .partitions("tpcr", parts)
        .config(EngineConfig {
            cache_bytes: 0,
            ..EngineConfig::default()
        })
        .build()
        .expect("engine builds");
    let check = |context: &str| {
        let out = engine.execute(&plan).unwrap_or_else(|e| panic!("{context}: {e}"));
        let got = out.relation.sorted_by(&["cust_group"]).expect("sortable");
        assert_eq!(got.len(), oracle.len(), "{context}");
        for (g, w) in got.rows().iter().zip(oracle.rows()) {
            for (gv, wv) in g.values().iter().zip(w.values()) {
                let same = match (gv, wv) {
                    (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
                    _ => gv == wv,
                };
                assert!(same, "{context}: {gv:?} vs {wv:?} in {g} vs {w}");
            }
        }
    };
    check("cold");
    check("derived state filled");
    engine.bump_partition_epoch();
    check("after the epoch bump");
}
