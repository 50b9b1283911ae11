//! Property-based end-to-end tests: for *random* detail relations, random
//! partitionings, and randomly shaped GMDJ chains, distributed evaluation
//! under random optimization flags — and at every point of the
//! evaluation-knob lattice — equals centralized evaluation.

mod common;

use common::{arb_rows, assert_bit_identical, detail_relation};
use skalla::core::cache::DEFAULT_CACHE_BYTES;
use skalla::core::{plan::Planner, Cluster, EngineConfig, OptFlags, SiteServer, Skalla};
use skalla::datagen::cases::{self, for_cases, Rng, StdRng};
use skalla::datagen::partition::{partition_by_int_ranges, partition_round_robin, Partition};
use skalla::gmdj::eval::{
    eval_local, eval_local_rows, finalize_physical, EvalOptions, DEFAULT_MORSEL_ROWS,
};
use skalla::gmdj::prelude::*;
use skalla::gmdj::BaseQuery;
use skalla::net::TcpConfig;
use skalla::relation::{DataType, Relation, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

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

/// The type of key `g` in one of five layouts: 0 `INT`, 1 `DOUBLE` and 2
/// `STR` on both sides; 3 a `DOUBLE` detail key against an `INT` base key;
/// 4 an `INT` detail key against a `STR` base key.
fn key_type(layout: usize, base: bool) -> DataType {
    match (layout, base) {
        (1, _) | (3, false) => DataType::Double,
        (2, _) | (4, true) => DataType::Str,
        _ => DataType::Int,
    }
}

/// Detail key `g` in [`key_type`]'s layout: 0 and 4 `Int` (4 with
/// `NULL`); 1 `Double` halves, so odd `g` is not integral, with `NaN`,
/// `NULL`, and `-0.0` beside `0.0`; 2 `Str` with `NULL`; 3 `Double` with
/// `NaN`, `NULL`, `-0.0` beside `0.0`, integral values at even `g` and
/// halves at odd `g`.
fn key_value(g: i64, layout: usize) -> Value {
    match (layout, g) {
        (0, _) => Value::Int(g),
        (1 | 3, -6) => Value::Double(f64::NAN),
        (_, -5) => Value::Null,
        (1 | 3, 0) => Value::Double(-0.0),
        (1 | 3, 1) => Value::Double(0.0),
        (1, _) => Value::Double(g as f64 / 2.0),
        (2, _) => Value::str(format!("k{g}")),
        (3, _) if g % 2 == 0 => Value::Double(g as f64),
        (3, _) => Value::Double(g as f64 + 0.5),
        _ => Value::Int(g),
    }
}

/// A base tuple's key for `g`: [`key_value`] in the base's type. In
/// layout 3 an integral `Double` becomes the `Int` it equals (`Int(0)` for
/// `-0.0` and `0.0`, `Int(2)` for `2.0`), and any other number `Int(g)`,
/// which no detail key equals; in layout 4 a number becomes the string
/// `"k{g}"`, which equals no number. `NULL` stays `NULL`. A `g` outside
/// the detail's `-6..6` has no local group — for strings, no entry in the
/// detail dictionary.
fn base_key(g: i64, layout: usize) -> Value {
    match (layout, key_value(g, layout)) {
        (3, Value::Double(d)) if d.fract() == 0.0 => Value::Int(d as i64),
        (3, Value::Double(_)) => Value::Int(g),
        (4, Value::Int(_)) => Value::str(format!("k{g}")),
        (_, v) => v,
    }
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
    build_expr_with(group_cols, second, Vec::new())
}

/// [`build_expr`] with `extra` aggregates appended to the first block.
fn build_expr_with(group_cols: &[&str], second: &SecondOp, extra: Vec<AggSpec>) -> GmdjExpr {
    let mut first_aggs = vec![
        AggSpec::count("cnt"),
        AggSpec::avg("v", "avg"),
        AggSpec::max("v", "mx"),
        AggSpec::sum("v", "sm"),
    ];
    first_aggs.extend(extra);
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

fn arb_second(rng: &mut StdRng) -> SecondOp {
    match rng.gen_range(0..4) {
        0 => SecondOp::None,
        1 => SecondOp::AboveAvg,
        2 => SecondOp::Filtered(rng.gen_range(-10..10)),
        _ => SecondOp::NonEqui,
    }
}

fn arb_flags(rng: &mut StdRng) -> OptFlags {
    let bits = rng.gen_range(0u32..16);
    OptFlags {
        coalesce: bits & 1 != 0,
        group_reduction_site: bits & 2 != 0,
        group_reduction_coord: bits & 4 != 0,
        sync_reduction: bits & 8 != 0,
    }
}

/// One point of the knob lattice: the kernel's workers (`EvalOptions`),
/// the coordinator's one decision (`EngineConfig::cache_bytes`: off or
/// the default budget), and whether the sites are loopback TCP servers
/// instead of in-process channel sites. (The morsel size is drawn per
/// case: only points sharing it owe each other identical bits.)
fn arb_point(rng: &mut StdRng) -> (usize, usize, bool) {
    let parallelism = cases::pick(rng, &[1, 2, 4]);
    let cache_bytes = if rng.gen() { DEFAULT_CACHE_BYTES } else { 0 };
    (parallelism, cache_bytes, rng.gen())
}

/// A persistent engine over `parts` on the drawn backend, plus the
/// loopback site threads to join once the engine is dropped.
fn lattice_engine(
    parts: &[Partition],
    cfg: EngineConfig,
    tcp: bool,
) -> (Skalla, Vec<JoinHandle<()>>) {
    let builder = Skalla::builder().config(cfg);
    if !tcp {
        let engine = builder.partitions("t", parts.to_vec()).build();
        return (engine.expect("channel engine builds"), Vec::new());
    }
    let mut addrs = Vec::new();
    let mut sites = Vec::new();
    for part in parts {
        let catalog = HashMap::from([("t".to_string(), Arc::new(part.relation.clone()))]);
        let domains = HashMap::from([("t".to_string(), part.domains.clone())]);
        let server = SiteServer::bind("127.0.0.1:0", catalog, domains, TcpConfig::default())
            .expect("loopback site binds");
        addrs.push(server.local_addr().expect("bound").to_string());
        sites.push(std::thread::spawn(move || {
            let _ = server.serve_once();
        }));
    }
    let engine = builder.remote(&addrs, TcpConfig::default()).build();
    (engine.expect("tcp engine builds"), sites)
}

/// The group that receives the generator's heavy-hitter rows (a skewed
/// site and, at 7-row morsels, one split into several).
const HOT_GROUP: i64 = 5;

/// The one obligation of every `EvalOptions` knob, of the
/// coordinator's cache decision and of the transport: same answer as
/// the centralized oracle. Random data × φ × optimization flags, and
/// per case three random points of the knob lattice — workers ×
/// semantic cache × backend —
/// at one drawn morsel size, each on its own persistent
/// engine executing the plan twice. Every execution equals
/// `execute_centralized` as a bag on the integral measures (exact in
/// f64 whatever the summation order), and all of them carry identical
/// bits on the inexact `x = v / 3` measures, whose low bits move with
/// any drift in morsel decomposition or merge order.
#[test]
fn distributed_equals_centralized() {
    // What the cases exercised, checked after the last one so the
    // property cannot pass vacuously.
    let (mut cache_served, mut over_tcp, mut multi_morsel) = (0, 0, 0);
    for_cases("distributed_equals_centralized", 48, |rng| {
        let rows = arb_rows(rng, -6..6, 0..60);
        let hot = if rng.gen() { 0 } else { rng.gen_range(20..60) };
        let n_sites = rng.gen_range(1..5);
        let by_range: bool = rng.gen();
        let group_on_h: bool = rng.gen();
        let second = arb_second(rng);
        let flags = arb_flags(rng);
        let morsel_rows = cases::pick(rng, &[7, DEFAULT_MORSEL_ROWS]);
        let points = [(); 3].map(|_| arb_point(rng));
        // Heavy-hitter shape: `hot` extra rows on one group, which range
        // partitioning lands on a single site.
        let rows = rows
            .into_iter()
            .chain((0..hot).map(|i| (HOT_GROUP, 0, i % 41 - 20)));
        let detail = Relation::new(
            Schema::of(&[
                ("g", DataType::Int),
                ("h", DataType::Int),
                ("v", DataType::Int),
                ("x", DataType::Double),
            ]),
            rows.map(|(g, h, v)| Row::new(vec![g.into(), h.into(), v.into(), (v as f64 / 3.0).into()]))
                .collect(),
        )
        .expect("static schema");
        let parts: Vec<Partition> = if by_range {
            partition_by_int_ranges(&detail, "g", n_sites)
        } else {
            partition_round_robin(&detail, n_sites)
        };
        let cluster = Cluster::from_partitions("t", parts.clone());
        let group_cols: Vec<&str> = if group_on_h { vec!["g", "h"] } else { vec!["g"] };
        let inexact = ["xs", "xa", "xv"];
        let expr = build_expr_with(
            &group_cols,
            &second,
            vec![AggSpec::sum("x", "xs"), AggSpec::avg("x", "xa"), AggSpec::var("x", "xv")],
        );
        let plan = Planner::new(cluster.distribution()).optimize(&expr, flags);

        let oracle = cluster.execute_centralized(&expr).expect("oracle evaluates").relation;
        let integral: Vec<&str> = oracle
            .schema()
            .column_names()
            .into_iter()
            .filter(|c| !inexact.contains(c))
            .collect();
        let oracle = oracle.project(&integral).expect("projects");

        let mut reference: Option<Relation> = None;
        for (parallelism, cache_bytes, tcp) in points {
            let eval = EvalOptions { parallelism, morsel_rows };
            let cfg = EngineConfig {
                eval,
                cache_bytes,
                ..EngineConfig::default()
            };
            let ctx = format!(
                "{eval:?} cache_bytes {cache_bytes} tcp {tcp} flags {flags:?} \
                 second {second:?} groups {group_cols:?}\nplan:\n{}",
                plan.explain()
            );
            let (engine, sites) = lattice_engine(&parts, cfg, tcp);
            for run in 0..2 {
                let out = engine.execute(&plan).expect("distributed evaluates");
                assert!(
                    out.relation.project(&integral).expect("projects").same_bag(&oracle),
                    "run {run} {ctx}\ngot:\n{}\nwant:\n{}",
                    out.relation.canonicalized(),
                    oracle.canonicalized()
                );
                assert_bit_identical(
                    &out.relation,
                    reference.get_or_insert_with(|| out.relation.clone()),
                    &group_cols,
                    &format!("run {run} {ctx}"),
                );
                cache_served += out.stats.is_cache_hit() as usize;
            }
            drop(engine);
            for site in sites {
                site.join().expect("site thread exits with its session");
            }
            over_tcp += tcp as usize;
        }
        // The kernels cut a site's detail into ceil(rows / morsel_rows) morsels.
        multi_morsel += parts.iter().any(|p| p.relation.len() > morsel_rows) as usize;
    });
    for (what, n) in [
        ("cache-served executions", cache_served),
        ("engines over TCP", over_tcp),
        ("cases with a site split into several morsels", multi_morsel),
    ] {
        eprintln!("knob lattice: {n} {what}");
        assert!(n > 0, "the knob lattice never exercised: {what}");
    }
}

/// The morsel-parallel kernel is **bit-identical** across thread
/// counts, probe strategies, and to the row reference kernel: the
/// morsel decomposition and merge order depend only on the input and
/// the morsel size, never on worker scheduling. Verified on f64 SUM / AVG
/// / VAR accumulators (where reassociation would change low bits) by
/// comparing raw bit patterns, not `Value` equality (which treats
/// -0.0 == 0.0).
#[test]
fn parallel_kernel_is_bit_identical() {
    for_cases("parallel_kernel_is_bit_identical", 48, |rng| {
        let detail = detail_relation_f64(arb_rows(rng, -6..6, 0..80));
        let non_equi: bool = rng.gen();
        let base = detail.project(&["g"]).expect("project").distinct();
        let theta = if non_equi {
            // Overlapping ranges with no equi-key conjunct: exercises the
            // nested-loop morsel path.
            Expr::dcol("g")
                .ge(Expr::bcol("g"))
                .and(Expr::dcol("v").ge(Expr::lit(-3.0)))
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
        // Tiny morsels force many merge steps even on small inputs.
        let opts = |parallelism: usize| EvalOptions {
            parallelism,
            morsel_rows: 7,
        };
        let reference = eval_local_rows(&base, &detail, &op, opts(1)).expect("serial kernel");
        for (p, rows) in [(2, true), (7, true), (1, false), (2, false), (7, false)] {
            let kernel = if rows { eval_local_rows } else { eval_local };
            let out = kernel(&base, &detail, &op, opts(p)).expect("parallel kernel");
            let ctx = format!("parallelism {p} row kernel {rows}");
            assert_eq!(&out.matched, &reference.matched, "matched flags, {}", ctx);
            assert_bit_identical(&out.physical, &reference.physical, &["g"], &ctx);
        }
    });
}

/// The columnar kernel is bit-identical to the row kernel on randomly
/// shaped GMDJ *chains* — including correlated second blocks (whose
/// residuals reference first-block aggregate outputs) and non-equi
/// blocks (nested-loop path), end to end through finalization — over
/// every shape of the map from local groups to base tuples: each key
/// layout ([`key_value`]), and, from a literal base, duplicate base
/// keys, base keys with no local group, local groups missing from B
/// and base keys of another type than the detail's ([`base_key`]).
#[test]
fn columnar_kernel_matches_row_kernel_on_chains() {
    for_cases("columnar_kernel_matches_row_kernel_on_chains", 48, |rng| {
        let rows = arb_rows(rng, -6..6, 0..60);
        let group_on_h: bool = rng.gen();
        let second = arb_second(rng);
        let layout = rng.gen_range(0..5);
        let literal: bool = rng.gen();
        let base_rows = cases::vec(rng, 0..16, |rng| (rng.gen_range(-7..8), rng.gen_range(0i64..4)));
        let detail = Relation::new(
            Schema::of(&[("g", key_type(layout, false)), ("h", DataType::Int), ("v", DataType::Double)]),
            rows.into_iter()
                .map(|(g, h, v)| Row::new(vec![key_value(g, layout), h.into(), (v as f64 / 3.0).into()]))
                .collect(),
        )
        .expect("rows conform");
        let cluster = Cluster::from_partitions("t", partition_round_robin(&detail, 1));
        let group_cols: Vec<&str> = if group_on_h { vec!["g", "h"] } else { vec!["g"] };
        let mut expr = build_expr(&group_cols, &second);
        if literal {
            let schema = Schema::of(&[("g", key_type(layout, true)), ("h", DataType::Int)][..group_cols.len()]);
            let rows = base_rows
                .iter()
                .map(|&(g, h)| Row::new([base_key(g, layout), h.into()][..group_cols.len()].to_vec()))
                .collect();
            expr.base = BaseQuery::Literal(Relation::new(schema, rows).expect("key arity"));
        }
        let opts = EvalOptions {
            parallelism: 1,
            morsel_rows: 7,
        };
        let catalog = cluster.global_catalog();
        // `eval_centralized`'s chain walk, on the reference kernel.
        let mut rowk = expr.base.eval(&catalog).expect("base evaluates");
        for op in &expr.ops {
            let t = catalog.table(&op.detail).expect("detail table");
            let local = eval_local_rows(&rowk, t, op, opts).expect("row kernel evaluates");
            rowk = finalize_physical(&local.physical, rowk.schema().len(), op, t.schema())
                .expect("finalizes");
        }
        let colk = expr
            .eval_centralized(&catalog, opts)
            .expect("columnar kernel evaluates");
        let ctx = format!("second {second:?} layout {layout} literal base {literal}");
        assert_bit_identical(&colk, &rowk, &group_cols, &ctx);
    });
}

/// Group reduction flags never change the row traffic *upward*.
#[test]
fn group_reduction_is_monotone() {
    for_cases("group_reduction_is_monotone", 48, |rng| {
        let detail = detail_relation(arb_rows(rng, -6..6, 1..60));
        let parts = partition_by_int_ranges(&detail, "g", rng.gen_range(1..5));
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
        assert!(d1 <= d0 && u1 <= u0, "({d1},{u1}) vs ({d0},{u0})");
        assert!(reduced.relation.same_bag(&base.relation));
    });
}
