//! Property tests for the semantic cache and hierarchical roll-up
//! serving: cached and rolled-up answers must be **bit-identical** to
//! fresh distributed execution, across random data, random GMDJ chains
//! and thread counts — and a partition-epoch bump must make every
//! dependent entry unreachable.
//!
//! Inputs are bounded integers, so every f64 the aggregates produce
//! (AVG / VAR / STDDEV included) is exact and the comparisons below can
//! demand raw bit equality rather than approximate agreement.

mod common;

use common::assert_bit_identical;
use proptest::prelude::*;
use skalla::core::{plan::Planner, Cluster, EngineConfig, OptFlags, Skalla};
use skalla::datagen::partition::partition_by_int_ranges;
use skalla::gmdj::eval::EvalOptions;
use skalla::gmdj::prelude::*;
use skalla::query::{cube_with_rollup, LevelSource};
use skalla::relation::{DataType, Relation, Row, Schema};

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

/// Tiny morsels force many merge steps.
fn eval_opts(parallelism: usize) -> EvalOptions {
    EvalOptions {
        parallelism,
        morsel_rows: 7,
    }
}

fn all_aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::count("cnt"),
        AggSpec::sum("v", "sm"),
        AggSpec::avg("v", "av"),
        AggSpec::min("v", "mn"),
        AggSpec::max("v", "mx"),
        AggSpec::var("v", "vr"),
        AggSpec::stddev("v", "sd"),
    ]
}

/// A randomly shaped two-operator GMDJ chain (correlated second block
/// when `correlated` — its residual references first-block outputs).
fn chain(correlated: bool) -> GmdjExpr {
    let mut b = GmdjExprBuilder::distinct_base("t", &["g"]).gmdj(Gmdj::new("t").block(
        ThetaBuilder::group_by(&["g"]).build(),
        vec![AggSpec::count("cnt"), AggSpec::avg("v", "av")],
    ));
    if correlated {
        b = b.gmdj(Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"])
                .and(Expr::dcol("v").ge(Expr::bcol("av")))
                .build(),
            vec![AggSpec::count("above")],
        ));
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hierarchical roll-up serving is bit-identical to running every
    /// grouping set as its own distributed query — across random data,
    /// partitionings, dimensionality and thread counts.
    #[test]
    fn cube_rollup_is_bit_identical_to_direct(
        rows in proptest::collection::vec((-4i64..4, 0i64..3, -20i64..20), 0..60),
        n_sites in 1usize..4,
        two_dims in any::<bool>(),
        parallelism in 1usize..5,
    ) {
        let detail = detail_relation(rows);
        let parts = partition_by_int_ranges(&detail, "g", n_sites);
        let mut cluster = Cluster::from_partitions("t", parts);
        cluster.configure(&EngineConfig {
            eval: eval_opts(parallelism),
            ..EngineConfig::default()
        });
        let dims: Vec<&str> = if two_dims { vec!["g", "h"] } else { vec!["g"] };
        let aggs = all_aggs();

        let rolled =
            cube_with_rollup(&cluster, "t", &dims, &aggs, OptFlags::all(), true).expect("rolled");
        let direct =
            cube_with_rollup(&cluster, "t", &dims, &aggs, OptFlags::all(), false).expect("direct");

        assert_bit_identical(
            &rolled.relation,
            &direct.relation,
            &dims,
            &format!("p={parallelism} sites={n_sites}"),
        );
        // Provenance: only the finest level of the rolled cube ran a
        // distributed query; the direct cube ran one per grouping set.
        prop_assert_eq!(rolled.rolled_up_levels(), (1usize << dims.len()) - 1);
        prop_assert!(rolled.levels[0].source != LevelSource::RolledUp);
        prop_assert_eq!(direct.rolled_up_levels(), 0);
        prop_assert!(rolled.total_rounds() <= direct.total_rounds());
        prop_assert!(rolled.total_bytes() < direct.total_bytes());
    }

    /// A cache-served repeat of a random GMDJ chain is bit-identical to
    /// its first (computed) execution, across thread counts; a cache-off
    /// engine pays, first run and repeat alike, byte-for-byte the per-round
    /// traffic of the serial `Cluster::execute` and returns its bits.
    #[test]
    fn cached_repeat_is_bit_identical(
        rows in proptest::collection::vec((-4i64..4, 0i64..3, -20i64..20), 0..60),
        n_sites in 1usize..4,
        correlated in any::<bool>(),
        parallelism in 1usize..5,
    ) {
        let detail = detail_relation(rows);
        let parts = partition_by_int_ranges(&detail, "g", n_sites);
        let engine = Skalla::builder()
            .partitions("t", parts.clone())
            .eval_options(eval_opts(parallelism))
            .build()
            .expect("engine builds");
        let expr = chain(correlated);
        let plan = Planner::new(engine.distribution()).optimize(&expr, OptFlags::all());

        let first = engine.execute(&plan).expect("first run");
        prop_assert!(!first.stats.is_cache_hit());
        let second = engine.execute(&plan).expect("second run");
        prop_assert!(second.stats.is_cache_hit(), "repeat must be cache-served");
        prop_assert_eq!(second.stats.total_bytes(), 0, "cache hits move no bytes");

        let ctx = format!("p={parallelism} correlated={correlated}");
        assert_bit_identical(&second.relation, &first.relation, &["g"], &ctx);

        let cache_off = EngineConfig {
            eval: eval_opts(parallelism),
            cache_bytes: 0,
            ..EngineConfig::default()
        };
        let mut baseline = Cluster::from_partitions("t", parts.clone());
        baseline.configure(&cache_off);
        let serial = baseline.execute(&plan).expect("serial baseline");
        assert_bit_identical(&first.relation, &serial.relation, &["g"], &ctx);
        let uncached = Skalla::builder()
            .partitions("t", parts)
            .config(cache_off)
            .build()
            .expect("uncached engine builds");
        for run in 0..2 {
            let out = uncached.execute(&plan).expect("uncached run");
            prop_assert!(!out.stats.is_cache_hit());
            prop_assert_eq!(&out.stats.net, &serial.stats.net, "run {} {}", run, ctx);
            assert_bit_identical(&out.relation, &serial.relation, &["g"], &ctx);
        }
    }
}

/// A partition-epoch bump (what every catalog mutation performs) makes
/// every cached entry unreachable: the same plan pays its full cold
/// traffic again instead of serving a stale answer, and the hit/miss
/// counters record the sequence.
#[test]
fn epoch_bump_after_partition_swap_invalidates_the_cache() {
    let detail = detail_relation(vec![(1, 0, 10), (1, 1, 30), (2, 0, 20)]);
    let engine = Skalla::builder()
        .partitions("t", partition_by_int_ranges(&detail, "g", 2))
        .eval_options(eval_opts(2))
        .build()
        .expect("engine builds");
    let plan = Planner::new(engine.distribution()).optimize(&chain(true), OptFlags::all());

    let cold = engine.execute(&plan).expect("cold run");
    assert!(!cold.stats.is_cache_hit());
    let warm = engine.execute(&plan).expect("warm run");
    assert!(warm.stats.is_cache_hit(), "repeat must be cache-served");
    assert_bit_identical(&warm.relation, &cold.relation, &["g"], "warm repeat");

    let epoch = engine.bump_partition_epoch();

    let reexec = engine.execute(&plan).expect("post-bump run");
    assert!(
        !reexec.stats.is_cache_hit(),
        "post-bump run must re-execute against the sites"
    );
    assert_eq!(
        reexec.stats.net, cold.stats.net,
        "post-bump traffic is byte-for-byte the cold traffic"
    );
    let stats = engine.semantic_cache().stats();
    assert_eq!(stats.epoch, epoch);
    assert!(stats.hits >= 1 && stats.misses >= 2, "{stats:?}");
}
