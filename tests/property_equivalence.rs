//! Property-based end-to-end tests: for *random* detail relations, random
//! partitionings, and randomly shaped GMDJ chains, distributed evaluation
//! under random optimization flags equals centralized evaluation.

use proptest::prelude::*;
use skalla::core::{plan::Planner, Cluster, OptFlags};
use skalla::datagen::partition::{partition_by_int_ranges, partition_round_robin, Partition};
use skalla::gmdj::eval::EvalOptions;
use skalla::gmdj::prelude::*;
use skalla::relation::{DataType, Relation, Row, Schema};

/// A detail relation with a Double measure column, for bit-identity tests
/// of float aggregation (values chosen to have inexact f64 sums).
fn detail_relation_f64(rows: Vec<(i64, i64, i64)>) -> Relation {
    Relation::new(
        Schema::of(&[
            ("g", DataType::Int),
            ("h", DataType::Int),
            ("v", DataType::Double),
        ]),
        rows.into_iter()
            .map(|(g, h, v)| Row::new(vec![g.into(), h.into(), (v as f64 / 3.0).into()]))
            .collect(),
    )
    .expect("static schema")
}

fn detail_relation(rows: Vec<(i64, i64, i64)>) -> Relation {
    Relation::new(
        Schema::of(&[
            ("g", DataType::Int),
            ("h", DataType::Int),
            ("v", DataType::Int),
        ]),
        rows.into_iter()
            .map(|(g, h, v)| Row::new(vec![g.into(), h.into(), v.into()]))
            .collect(),
    )
    .expect("static schema")
}

#[derive(Debug, Clone)]
enum SecondOp {
    None,
    /// Correlated: count v ≥ group average.
    AboveAvg,
    /// Independent (coalescible): count v > constant.
    Filtered(i64),
    /// Non-equi: count detail tuples with v ≥ b.mx across all groups.
    NonEqui,
}

fn build_expr(group_cols: &[&str], second: &SecondOp) -> GmdjExpr {
    let mut first_aggs = vec![
        AggSpec::count("cnt"),
        AggSpec::avg("v", "avg"),
        AggSpec::max("v", "mx"),
    ];
    first_aggs.push(AggSpec::sum("v", "sm"));
    let mut b = GmdjExprBuilder::distinct_base("t", group_cols).gmdj(
        Gmdj::new("t").block(ThetaBuilder::group_by(group_cols).build(), first_aggs),
    );
    b = match second {
        SecondOp::None => b,
        SecondOp::AboveAvg => b.gmdj(Gmdj::new("t").block(
            ThetaBuilder::group_by(group_cols)
                .and(Expr::dcol("v").ge(Expr::bcol("avg")))
                .build(),
            vec![AggSpec::count("above")],
        )),
        SecondOp::Filtered(k) => b.gmdj(Gmdj::new("t").block(
            ThetaBuilder::group_by(group_cols)
                .and(Expr::dcol("v").gt(Expr::lit(*k)))
                .build(),
            vec![AggSpec::count("big")],
        )),
        SecondOp::NonEqui => b.gmdj(Gmdj::new("t").block(
            Expr::dcol("v").ge(Expr::bcol("mx")),
            vec![AggSpec::count("geq_max")],
        )),
    };
    b.build()
}

fn arb_second() -> impl Strategy<Value = SecondOp> {
    prop_oneof![
        Just(SecondOp::None),
        Just(SecondOp::AboveAvg),
        (-10i64..10).prop_map(SecondOp::Filtered),
        Just(SecondOp::NonEqui),
    ]
}

fn arb_flags() -> impl Strategy<Value = OptFlags> {
    (0u32..16).prop_map(|bits| OptFlags {
        coalesce: bits & 1 != 0,
        group_reduction_site: bits & 2 != 0,
        group_reduction_coord: bits & 4 != 0,
        sync_reduction: bits & 8 != 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn distributed_equals_centralized(
        rows in proptest::collection::vec((-6i64..6, 0i64..3, -20i64..20), 0..60),
        n_sites in 1usize..5,
        by_range in any::<bool>(),
        group_on_h in any::<bool>(),
        second in arb_second(),
        flags in arb_flags(),
    ) {
        let detail = detail_relation(rows);
        let parts: Vec<Partition> = if by_range {
            partition_by_int_ranges(&detail, "g", n_sites)
        } else {
            partition_round_robin(&detail, n_sites)
        };
        let cluster = Cluster::from_partitions("t", parts);
        let group_cols: Vec<&str> = if group_on_h { vec!["g", "h"] } else { vec!["g"] };
        let expr = build_expr(&group_cols, &second);

        let oracle = expr
            .eval_centralized(&cluster.global_catalog(), EvalOptions::default())
            .expect("oracle evaluates");
        let plan = Planner::new(cluster.distribution()).optimize(&expr, flags);
        let out = cluster.execute(&plan).expect("distributed evaluates");
        prop_assert!(
            out.relation.same_bag(&oracle),
            "flags {flags:?} second {second:?} groups {group_cols:?}\nplan:\n{}\ngot:\n{}\nwant:\n{}",
            plan.explain(),
            out.relation.canonicalized(),
            oracle.canonicalized()
        );
    }

    /// The morsel-parallel kernel is **bit-identical** across thread
    /// counts, probe strategies, and both evaluation paths: the morsel
    /// decomposition and merge order depend only on the input and the
    /// morsel size, never on worker scheduling. Verified on f64 SUM / AVG
    /// / VAR accumulators (where reassociation would change low bits) by
    /// comparing raw bit patterns, not `Value` equality (which treats
    /// -0.0 == 0.0).
    #[test]
    fn parallel_kernel_is_bit_identical(
        rows in proptest::collection::vec((-6i64..6, 0i64..3, -20i64..20), 0..80),
        hash_path in any::<bool>(),
        non_equi in any::<bool>(),
    ) {
        let detail = detail_relation_f64(rows);
        let base = detail.project(&["g"]).expect("project").distinct();
        let theta = if non_equi {
            // Overlapping ranges: exercises the nested-loop morsel path.
            ThetaBuilder::group_by(&["g"])
                .and(Expr::dcol("v").ge(Expr::lit(-3.0)))
                .build()
        } else {
            ThetaBuilder::group_by(&["g"]).build()
        };
        let op = Gmdj::new("t").block(
            theta,
            vec![
                AggSpec::count("cnt"),
                AggSpec::sum("v", "sm"),
                AggSpec::avg("v", "av"),
                AggSpec::var("v", "vr"),
                AggSpec::min("v", "mn"),
                AggSpec::max("v", "mx"),
            ],
        );
        // Explicit options (not Default) so the test is independent of
        // SKALLA_THREADS / SKALLA_MORSEL_ROWS / SKALLA_COLUMNAR in the
        // environment. Tiny morsels force many merge steps even on small
        // inputs.
        let opts = |parallelism: usize, columnar: bool| EvalOptions {
            hash_path,
            parallelism,
            morsel_rows: 7,
            columnar,
            skew_balance: true,
            cache: true,
            fault_panic_morsel: None,
        };
        let reference = skalla::gmdj::eval_local(&base, &detail, &op, opts(1, false))
            .expect("serial kernel");
        for (p, columnar) in [(2, false), (7, false), (1, true), (2, true), (7, true)] {
            let out = skalla::gmdj::eval_local(&base, &detail, &op, opts(p, columnar))
                .expect("parallel kernel");
            prop_assert_eq!(out.matched.clone(), reference.matched.clone(),
                "matched flags, parallelism {} columnar {}", p, columnar);
            prop_assert_eq!(
                out.physical.len(), reference.physical.len(),
                "row count, parallelism {} columnar {}", p, columnar
            );
            for (got, want) in out.physical.rows().iter().zip(reference.physical.rows()) {
                for (gv, wv) in got.values().iter().zip(want.values()) {
                    let same = match (gv, wv) {
                        (skalla::relation::Value::Double(a), skalla::relation::Value::Double(b)) =>
                            a.to_bits() == b.to_bits(),
                        _ => gv == wv,
                    };
                    prop_assert!(
                        same,
                        "bit mismatch at parallelism {} columnar {}: {:?} vs {:?}",
                        p, columnar, gv, wv
                    );
                }
            }
        }
    }

    /// The columnar kernel is bit-identical to the row kernel on randomly
    /// shaped GMDJ *chains* — including correlated second blocks (whose
    /// residuals reference first-block aggregate outputs) and non-equi
    /// blocks (nested-loop path), end to end through finalization.
    #[test]
    fn columnar_kernel_matches_row_kernel_on_chains(
        rows in proptest::collection::vec((-6i64..6, 0i64..3, -20i64..20), 0..60),
        group_on_h in any::<bool>(),
        second in arb_second(),
    ) {
        let detail = detail_relation_f64(rows);
        let cluster = Cluster::from_partitions("t", partition_round_robin(&detail, 1));
        let group_cols: Vec<&str> = if group_on_h { vec!["g", "h"] } else { vec!["g"] };
        let expr = build_expr(&group_cols, &second);
        let opts = |columnar: bool| EvalOptions {
            hash_path: true,
            parallelism: 1,
            morsel_rows: 7,
            columnar,
            skew_balance: true,
            cache: true,
            fault_panic_morsel: None,
        };
        let rowk = expr
            .eval_centralized(&cluster.global_catalog(), opts(false))
            .expect("row kernel evaluates");
        let colk = expr
            .eval_centralized(&cluster.global_catalog(), opts(true))
            .expect("columnar kernel evaluates");
        prop_assert_eq!(rowk.len(), colk.len());
        for (got, want) in colk.rows().iter().zip(rowk.rows()) {
            for (gv, wv) in got.values().iter().zip(want.values()) {
                let same = match (gv, wv) {
                    (skalla::relation::Value::Double(a), skalla::relation::Value::Double(b)) =>
                        a.to_bits() == b.to_bits(),
                    _ => gv == wv,
                };
                prop_assert!(same, "second {:?}: {:?} vs {:?}", second, gv, wv);
            }
        }
    }

    /// Group reduction flags never change the row traffic *upward*.
    #[test]
    fn group_reduction_is_monotone(
        rows in proptest::collection::vec((-6i64..6, 0i64..3, -20i64..20), 1..60),
        n_sites in 1usize..5,
    ) {
        let detail = detail_relation(rows);
        let parts = partition_by_int_ranges(&detail, "g", n_sites);
        let cluster = Cluster::from_partitions("t", parts);
        let expr = build_expr(&["g"], &SecondOp::AboveAvg);
        let planner = Planner::new(cluster.distribution());
        let base = cluster
            .execute(&planner.optimize(&expr, OptFlags::none()))
            .expect("runs");
        let reduced = cluster
            .execute(&planner.optimize(&expr, OptFlags::group_reduction_only()))
            .expect("runs");
        let (d0, u0) = base.stats.total_rows();
        let (d1, u1) = reduced.stats.total_rows();
        prop_assert!(d1 <= d0 && u1 <= u0, "({d1},{u1}) vs ({d0},{u0})");
        prop_assert!(reduced.relation.same_bag(&base.relation));
    }
}
