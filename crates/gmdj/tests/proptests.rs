//! Property-based tests for the GMDJ layer: Theorem 1 (sub/super
//! decomposition) over random data and partitionings, aggregate merge
//! laws, and codec round-trips for random expressions.

use skalla_datagen::cases::{self, for_cases, Rng, StdRng};
use skalla_gmdj::agg::{AggFunc, AggSpec};
use skalla_gmdj::codec::{get_gmdj_expr, put_gmdj_expr};
use skalla_gmdj::eval::{
    eval_full, eval_local, eval_local_rows, finalize_physical, EvalOptions, DEFAULT_MORSEL_ROWS,
};
use skalla_gmdj::prelude::*;
use skalla_relation::codec::{Decoder, Encoder};
use skalla_relation::{DataType, Relation, Row, Schema, Value};

fn arb_agg(rng: &mut StdRng) -> AggFunc {
    cases::pick(
        rng,
        &[
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::Var,
            AggFunc::StdDev,
        ],
    )
}

fn spec(i: usize, f: AggFunc) -> AggSpec {
    let name = format!("a{i}");
    match f {
        AggFunc::Count => AggSpec::count(name),
        _ => AggSpec::over_expr(f, Expr::dcol("v"), name),
    }
}

fn detail(rows: &[(i64, i64)]) -> Relation {
    Relation::new(
        Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]),
        rows.iter()
            .map(|(g, v)| Row::new(vec![Value::Int(*g), Value::Int(*v)]))
            .collect(),
    )
    .expect("static schema")
}

/// The type of the key `g` in one of four layouts: 0 `INT` on both
/// sides; 1 `STR` on both; 2 a `DOUBLE` detail key against an `INT` base
/// key; 3 an `INT` detail key against a `DOUBLE` base key.
fn key_type(layout: usize, base: bool) -> DataType {
    match (layout, base) {
        (1, _) => DataType::Str,
        (2, false) | (3, true) => DataType::Double,
        _ => DataType::Int,
    }
}

/// The key `g` as a value of [`key_type`]. The two numeric types meet
/// where they are equal (`Double(2.0)` and `Int(2)`, `-0.0` and `Int(0)`),
/// and `NULL` (`g = -3`) meets `NULL`; a `NaN` (`g = -2`) meets nothing,
/// nor does the `Int(-2)` in its place.
fn key(g: i64, layout: usize, base: bool) -> Value {
    match (key_type(layout, base), g) {
        (DataType::Str, _) => Value::str(format!("k{g}")),
        (_, -3) if layout > 1 => Value::Null,
        (DataType::Double, -2) => Value::Double(f64::NAN),
        (DataType::Double, -1) => Value::Double(-0.0),
        (DataType::Double, _) => Value::Double(g as f64),
        (_, -1) if layout > 1 => Value::Int(0),
        _ => Value::Int(g),
    }
}

fn values_close(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-9 * scale
        }
        _ => a == b,
    }
}

/// Theorem 1: evaluating sub-aggregates per partition and merging at a
/// "coordinator" equals direct evaluation, for every aggregate
/// function, random partitionings and either kernel at any worker
/// count and morsel size (VAR/STDDEV compared with a floating-point
/// tolerance — partition order changes summation order).
#[test]
fn sub_super_equals_direct() {
    for_cases("sub_super_equals_direct", 64, |rng| {
        let rows = cases::vec(rng, 1..40, |rng| (rng.gen_range(-4i64..4), rng.gen_range(-50i64..50)));
        let split = cases::vec(rng, 1..40, |rng| rng.gen_range(0usize..3));
        let aggs = cases::vec(rng, 1..4, arb_agg);
        let opts = EvalOptions {
            parallelism: rng.gen_range(1..4),
            morsel_rows: cases::pick(rng, &[3, DEFAULT_MORSEL_ROWS]),
        };
        let kernel = if rng.gen() { eval_local_rows } else { eval_local };
        let d = detail(&rows);
        let specs: Vec<AggSpec> = aggs.iter().enumerate().map(|(i, f)| spec(i, *f)).collect();
        let op = Gmdj::new("t").block(ThetaBuilder::group_by(&["g"]).build(), specs);
        let base = d.project_distinct(&["g"]).expect("projects");

        let layout = op.layout();
        let base_arity = base.schema().len();

        // Direct evaluation.
        let direct = kernel(&base, &d, &op, opts).expect("evaluates").physical;
        let direct = finalize_physical(&direct, base_arity, &op, d.schema()).expect("finalizes");

        // Partitioned evaluation: split rows into up to 3 fragments.
        let mut frags = vec![Vec::new(), Vec::new(), Vec::new()];
        for (i, row) in d.rows().iter().enumerate() {
            frags[split[i % split.len()]].push(row.clone());
        }
        let mut acc: Option<Relation> = None;
        for frag_rows in frags {
            let frag = Relation::from_shared(d.schema_ref(), frag_rows);
            let local = kernel(&base, &frag, &op, opts).expect("local evaluates");
            acc = Some(match acc {
                None => local.physical,
                Some(mut x) => {
                    for (dst, src) in x.rows_mut().iter_mut().zip(local.physical.rows()) {
                        let mut vals = dst.values().to_vec();
                        layout
                            .merge(&mut vals[base_arity..], &src.values()[base_arity..])
                            .expect("merges");
                        *dst = Row::new(vals);
                    }
                    x
                }
            });
        }
        let merged = finalize_physical(
            &acc.expect("at least one fragment"),
            base_arity,
            &op,
            d.schema(),
        )
        .expect("finalizes");

        assert_eq!(direct.len(), merged.len());
        for (a, b) in direct.rows().iter().zip(merged.rows()) {
            for (x, y) in a.values().iter().zip(b.values()) {
                assert!(values_close(x, y), "{a} vs {b}");
            }
        }
    });
}

/// The columnar kernel — typed residuals included — and the row kernel
/// produce the same bits on a correlated chain: per-group AVG, then the
/// tuples with `x >= b.avg` (a typed `Double` conjunct against a base
/// column that is `NULL` for empty groups) and `v <= 40` (a typed `Int`
/// conjunct against a literal), over data with `NULL`s on both
/// columns, at any worker count and morsel size — and over the shapes
/// of the map from local groups to base tuples: every key layout
/// ([`key`]), duplicate base keys, base keys with no local group and
/// local groups missing from B.
#[test]
fn columnar_matches_row_kernel_on_correlated_chain() {
    for_cases("columnar_matches_row_kernel_on_correlated_chain", 64, |rng| {
        let rows = cases::vec(rng, 0..40, |rng| {
            let g = rng.gen_range(-3i64..3);
            let v = if rng.gen() { Value::Int(rng.gen_range(-50..50)) } else { Value::Null };
            let x = match rng.gen_range(0..3) {
                0 => Value::Double(rng.gen_range(-90i64..90) as f64 / 3.0),
                1 => Value::Double(-0.0),
                _ => Value::Null,
            };
            (g, v, x)
        });
        let opts = EvalOptions {
            parallelism: rng.gen_range(1..4),
            morsel_rows: cases::pick(rng, &[3, DEFAULT_MORSEL_ROWS]),
        };
        let layout = rng.gen_range(0usize..4);
        let base_keys = cases::vec(rng, 0..10, |rng| rng.gen_range(-4i64..5));
        let d = Relation::new(
            Schema::of(&[("g", key_type(layout, false)), ("v", DataType::Int), ("x", DataType::Double)]),
            rows.into_iter()
                .map(|(g, v, x)| Row::new(vec![key(g, layout, false), v, x]))
                .collect(),
        )
        .expect("static schema");
        // Keys -4, 3 and 4 have no local group: their `avg` stays NULL.
        let base = Relation::new(
            Schema::of(&[("g", key_type(layout, true))]),
            base_keys.iter().map(|&g| Row::new(vec![key(g, layout, true)])).collect(),
        )
        .expect("static schema");
        let op1 = Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![AggSpec::count("cnt"), AggSpec::avg("x", "avg")],
        );
        let op2 = Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"])
                .and(Expr::dcol("x").ge(Expr::bcol("avg")))
                .and(Expr::dcol("v").le(Expr::lit(40i64)))
                .build(),
            vec![
                AggSpec::count("above"),
                AggSpec::sum("x", "sum_above"),
                AggSpec::var("x", "var_above"),
            ],
        );
        let serial = EvalOptions { parallelism: 1, ..opts };
        let col = {
            let b1 = eval_full(&base, &d, &op1, opts).expect("op1 evaluates");
            eval_local(&b1, &d, &op2, opts).expect("op2 evaluates")
        };
        let rowk = {
            let b1 = eval_local_rows(&base, &d, &op1, serial).expect("op1 evaluates");
            let b1 = finalize_physical(&b1.physical, base.schema().len(), &op1, d.schema())
                .expect("op1 finalizes");
            eval_local_rows(&b1, &d, &op2, serial).expect("op2 evaluates")
        };
        assert_eq!(&col.matched, &rowk.matched);
        for (a, b) in col.physical.rows().iter().zip(rowk.physical.rows()) {
            for (x, y) in a.values().iter().zip(b.values()) {
                let same = match (x, y) {
                    (Value::Double(p), Value::Double(q)) => p.to_bits() == q.to_bits(),
                    _ => x == y && x.data_type() == y.data_type(),
                };
                assert!(same, "{a} vs {b}");
            }
        }
    });
}

/// Merging is commutative for every aggregate (site arrival order must
/// not matter).
#[test]
fn merge_is_commutative() {
    for_cases("merge_is_commutative", 64, |rng| {
        let a = spec(0, arb_agg(rng));
        let xs = cases::vec(rng, 0..10, |rng| rng.gen_range(-50i64..50));
        let ys = cases::vec(rng, 0..10, |rng| rng.gen_range(-50i64..50));
        let mut acc1 = Vec::new();
        a.init_acc(&mut acc1);
        let mut acc2 = acc1.clone();
        let mut sub_x = acc1.clone();
        let mut sub_y = acc1.clone();
        for x in &xs {
            a.update(&mut sub_x, Some(&Value::Int(*x))).expect("updates");
        }
        for y in &ys {
            a.update(&mut sub_y, Some(&Value::Int(*y))).expect("updates");
        }
        a.merge(&mut acc1, &sub_x).expect("merges");
        a.merge(&mut acc1, &sub_y).expect("merges");
        a.merge(&mut acc2, &sub_y).expect("merges");
        a.merge(&mut acc2, &sub_x).expect("merges");
        let f1 = a.finalize(&acc1).expect("finalizes");
        let f2 = a.finalize(&acc2).expect("finalizes");
        assert!(values_close(&f1, &f2), "{f1} vs {f2}");
    });
}

/// Merging a fresh (identity) accumulator changes nothing.
#[test]
fn merge_identity() {
    for_cases("merge_identity", 64, |rng| {
        let a = spec(0, arb_agg(rng));
        let xs = cases::vec(rng, 0..10, |rng| rng.gen_range(-50i64..50));
        let mut acc = Vec::new();
        a.init_acc(&mut acc);
        for x in &xs {
            a.update(&mut acc, Some(&Value::Int(*x))).expect("updates");
        }
        let before = acc.clone();
        let mut fresh = Vec::new();
        a.init_acc(&mut fresh);
        a.merge(&mut acc, &fresh).expect("merges");
        let f1 = a.finalize(&before).expect("finalizes");
        let f2 = a.finalize(&acc).expect("finalizes");
        assert!(values_close(&f1, &f2));
    });
}

/// An expression tree of at most `depth` operator levels: each level is
/// a leaf or an operator over subtrees one level lower, evenly.
fn arb_expr(rng: &mut StdRng, depth: u32) -> Expr {
    if depth == 0 || rng.gen() {
        return match rng.gen_range(0..6) {
            0 => Expr::True,
            1 => Expr::bcol(cases::string(rng, "abcdefghijklmnopqrstuvwxyz", 1..=6)),
            2 => Expr::dcol(cases::string(rng, "abcdefghijklmnopqrstuvwxyz", 1..=6)),
            3 => Expr::lit(rng.gen::<i64>()),
            4 => Expr::lit(rng.gen_range(-1e9..1e9)),
            _ => Expr::Lit(Value::str(cases::string(rng, "abcdefghijklmnopqrstuvwxyz' ", 0..=8))),
        };
    }
    let sub = |rng: &mut StdRng| arb_expr(rng, depth - 1);
    match rng.gen_range(0..10) {
        0 => sub(rng).eq(sub(rng)),
        1 => sub(rng).lt(sub(rng)),
        2 => sub(rng).ge(sub(rng)),
        3 => sub(rng).add(sub(rng)),
        4 => sub(rng).mul(sub(rng)),
        5 => sub(rng).div(sub(rng)),
        6 => Expr::And(Box::new(sub(rng)), Box::new(sub(rng))),
        7 => sub(rng).or(sub(rng)),
        8 => sub(rng).not(),
        _ => {
            let a = sub(rng);
            a.in_list(cases::vec(rng, 0..4, |rng| Value::Int(rng.gen())))
        }
    }
}

/// Random expression trees survive the binary codec.
#[test]
fn expr_codec_round_trips() {
    for_cases("expr_codec_round_trips", 128, |rng| {
        let e = arb_expr(rng, 4);
        let mut enc = Encoder::new();
        enc.put_expr(&e);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_expr().expect("decodes"), e);
        assert_eq!(dec.remaining(), 0);
    });
}

/// Random single-op GMDJ expressions survive the codec.
#[test]
fn gmdj_expr_codec_round_trips() {
    for_cases("gmdj_expr_codec_round_trips", 128, |rng| {
        let theta = arb_expr(rng, 4);
        let specs: Vec<AggSpec> = cases::vec(rng, 1..4, arb_agg)
            .into_iter()
            .enumerate()
            .map(|(i, f)| spec(i, f))
            .collect();
        let expr = GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(theta, specs))
            .build();
        let mut enc = Encoder::new();
        put_gmdj_expr(&mut enc, &expr);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(get_gmdj_expr(&mut dec).expect("decodes"), expr);
    });
}
