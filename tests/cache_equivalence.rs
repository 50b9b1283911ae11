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

use common::{arb_rows, assert_bit_identical, detail_relation};
use skalla::core::{plan::Planner, Cluster, EngineConfig, OptFlags, Skalla};
use skalla::datagen::cases::{self, for_cases, Rng};
use skalla::datagen::partition::partition_by_int_ranges;
use skalla::gmdj::eval::EvalOptions;
use skalla::gmdj::prelude::*;
use skalla::query::{cube_with_rollup, LevelSource};
use skalla::relation::{DataType, Relation, Row, Schema, Value};

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

/// Hierarchical roll-up serving is bit-identical to running every
/// grouping set as its own distributed query — across random data,
/// partitionings, dimensionality and thread counts.
#[test]
fn cube_rollup_is_bit_identical_to_direct() {
    for_cases("cube_rollup_is_bit_identical_to_direct", 24, |rng| {
        let detail = detail_relation(arb_rows(rng, -4..4, 0..60));
        let n_sites = rng.gen_range(1..4);
        let two_dims: bool = rng.gen();
        let parallelism = rng.gen_range(1..5);
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
        assert_eq!(rolled.rolled_up_levels(), (1usize << dims.len()) - 1);
        assert!(rolled.levels[0].source != LevelSource::RolledUp);
        assert_eq!(direct.rolled_up_levels(), 0);
        assert!(rolled.total_rounds() <= direct.total_rounds());
        assert!(rolled.total_bytes() < direct.total_bytes());
    });
}

/// A quiet NaN with payload `p`.
fn nan(p: u64) -> f64 {
    f64::from_bits(0x7ff8_0000_0000_0000 | p)
}

/// Roll-up is bit-identical to direct serving on `Double` measures too: a
/// measure `v` of quarters (so every sum is exact), `-0.0` and NULL under
/// all seven aggregates, and a measure `y` of two NaN payloads and ±0.0
/// under COUNT, MIN and MAX. Group `g = -4` has no `v` but NULL (an
/// all-NULL VAR group), and every fourth case has an empty fact table.
#[test]
fn cube_rollup_is_bit_identical_on_doubles() {
    let ys = [nan(1), nan(0xabc), 0.0, -0.0].map(Value::Double);
    let mut case = 0;
    for_cases("cube_rollup_is_bit_identical_on_doubles", 24, |rng| {
        let len = if case % 4 == 0 { 0 } else { rng.gen_range(1..60) };
        let rows: Vec<Row> = (0..len)
            .map(|_| {
                let g = rng.gen_range(-4i64..4);
                let v = match rng.gen_range(0..6) {
                    _ if g == -4 => Value::Null,
                    0 => Value::Null,
                    1 => Value::Double(-0.0),
                    _ => Value::Double(rng.gen_range(-40i64..40) as f64 / 4.0),
                };
                let y = if rng.gen_range(0..5) == 0 { Value::Null } else { cases::pick(rng, &ys) };
                Row::new(vec![g.into(), rng.gen_range(0i64..3).into(), v, y])
            })
            .collect();
        let types = [("g", DataType::Int), ("h", DataType::Int), ("v", DataType::Double), ("y", DataType::Double)];
        let detail = Relation::new(Schema::of(&types), rows).expect("rows conform");
        let (n_sites, parallelism) = (rng.gen_range(1..4), rng.gen_range(1..5));
        let mut cluster = Cluster::from_partitions("t", partition_by_int_ranges(&detail, "g", n_sites));
        cluster.configure(&EngineConfig {
            eval: eval_opts(parallelism),
            ..EngineConfig::default()
        });
        let dims: Vec<&str> = if rng.gen() { vec!["g", "h"] } else { vec!["g"] };
        let mut aggs = all_aggs();
        aggs.extend([
            AggSpec::over_expr(AggFunc::Count, Expr::dcol("y"), "cnt_y"),
            AggSpec::min("y", "mn_y"),
            AggSpec::max("y", "mx_y"),
        ]);
        let rolled =
            cube_with_rollup(&cluster, "t", &dims, &aggs, OptFlags::all(), true).expect("rolled");
        let direct =
            cube_with_rollup(&cluster, "t", &dims, &aggs, OptFlags::all(), false).expect("direct");
        let ctx = format!("case {case}: {len} rows, p={parallelism} sites={n_sites} dims={dims:?}");
        assert_bit_identical(&rolled.relation, &direct.relation, &dims, &ctx);
        assert_eq!(rolled.rolled_up_levels(), (1usize << dims.len()) - 1);
        case += 1;
    });
}

/// VAR and STDDEV of an `Int` measure whose squares, or whose sums,
/// overflow an `i64` roll up bit-identical to direct serving: the finest
/// query sums them in `f64`, as the kernel does, not as wrapping `Int`
/// SUMs. Every value is a multiple of 10⁹ or is `i64::MAX`, so every
/// `f64` sum below is exact and its order does not matter.
#[test]
fn cube_rollup_of_var_over_overflowing_ints_is_bit_identical_to_direct() {
    let giga: Vec<i64> = [4, -4, 9, -3, 7, 0].iter().map(|k| k * 1_000_000_000).collect();
    for values in [&giga[..], &[i64::MAX; 5][..]] {
        let rows: Vec<Row> = (0..values.len())
            .map(|i| Row::new(vec![Value::Int(i as i64 % 2), Value::Int(i as i64 % 3), Value::Int(values[i])]))
            .collect();
        let types = [("g", DataType::Int), ("h", DataType::Int), ("v", DataType::Int)];
        let detail = Relation::new(Schema::of(&types), rows).expect("rows conform");
        let cluster = Cluster::from_partitions("t", partition_by_int_ranges(&detail, "g", 2));
        let aggs = [AggSpec::var("v", "vr"), AggSpec::stddev("v", "sd"), AggSpec::avg("v", "av")];
        let dims = ["g", "h"];
        let rolled = cube_with_rollup(&cluster, "t", &dims, &aggs, OptFlags::all(), true).expect("rolled");
        let direct = cube_with_rollup(&cluster, "t", &dims, &aggs, OptFlags::all(), false).expect("direct");
        assert_bit_identical(&rolled.relation, &direct.relation, &dims, &format!("{values:?}"));
    }
}

/// A cache-served repeat of a random GMDJ chain is bit-identical to
/// its first (computed) execution, across thread counts; a cache-off
/// engine pays, first run and repeat alike, byte-for-byte the per-round
/// traffic of the serial `Cluster::execute` and returns its bits.
#[test]
fn cached_repeat_is_bit_identical() {
    for_cases("cached_repeat_is_bit_identical", 24, |rng| {
        let detail = detail_relation(arb_rows(rng, -4..4, 0..60));
        let n_sites = rng.gen_range(1..4);
        let correlated: bool = rng.gen();
        let parallelism = rng.gen_range(1..5);
        let parts = partition_by_int_ranges(&detail, "g", n_sites);
        let engine = Skalla::builder()
            .partitions("t", parts.clone())
            .eval_options(eval_opts(parallelism))
            .build()
            .expect("engine builds");
        let expr = chain(correlated);
        let plan = Planner::new(engine.distribution()).optimize(&expr, OptFlags::all());

        let first = engine.execute(&plan).expect("first run");
        assert!(!first.stats.is_cache_hit());
        let second = engine.execute(&plan).expect("second run");
        assert!(second.stats.is_cache_hit(), "repeat must be cache-served");
        assert_eq!(second.stats.total_bytes(), 0, "cache hits move no bytes");

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
            assert!(!out.stats.is_cache_hit());
            assert_eq!(&out.stats.net, &serial.stats.net, "run {} {}", run, ctx);
            assert_bit_identical(&out.relation, &serial.relation, &["g"], &ctx);
        }
    });
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
