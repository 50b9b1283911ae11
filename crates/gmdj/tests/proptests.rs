//! Property-based tests for the GMDJ layer: Theorem 1 (sub/super
//! decomposition) over random data and partitionings, aggregate merge
//! laws, and codec round-trips for random expressions.

use skalla_core::{plan::Planner, Cluster, OptFlags};
use skalla_datagen::cases::{self, for_cases, Rng, StdRng};
use skalla_datagen::partition::partition_by_int_ranges;
use skalla_gmdj::agg::{AggFunc, AggSpec};
use skalla_gmdj::codec::{get_gmdj_expr, put_gmdj_expr};
use skalla_gmdj::eval::{eval_full, eval_local, EvalOptions, DEFAULT_MORSEL_ROWS};
use skalla_gmdj::oracle::{finalize_rows, merge_all, serial_local};
use skalla_gmdj::prelude::*;
use skalla_gmdj::state::AccStates;
use skalla_obs::Obs;
use skalla_query::cube_with_rollup;
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
        let reference: bool = rng.gen();
        let kernel = if reference { serial_local } else { eval_local };
        let d = detail(&rows);
        let specs: Vec<AggSpec> = aggs.iter().enumerate().map(|(i, f)| spec(i, *f)).collect();
        let op = Gmdj::new("t").block(ThetaBuilder::group_by(&["g"]).build(), specs);
        let base = d.project_distinct(&["g"]).expect("projects");

        let layout = op.layout(d.schema()).expect("lays out");
        let base_arity = base.schema().len();

        // Direct evaluation: the reference finalized row by row, or the
        // engine's own finalizing entry.
        let direct = match reference {
            true => {
                let direct = serial_local(&base, &d, &op, opts).expect("evaluates").physical;
                finalize_rows(&direct, base_arity, &op, d.schema()).expect("finalizes")
            }
            false => eval_full(&base, &d, &op, opts, &Obs::disabled(), 0).expect("evaluates"),
        };

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
                        merge_all(&layout, &mut vals[base_arity..], &src.values()[base_arity..])
                            .expect("merges");
                        *dst = Row::new(vals);
                    }
                    x
                }
            });
        }
        let merged = finalize_rows(
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
            let b1 = eval_full(&base, &d, &op1, opts, &Obs::disabled(), 0).expect("op1 evaluates");
            eval_local(&b1, &d, &op2, opts).expect("op2 evaluates")
        };
        let rowk = {
            let b1 = serial_local(&base, &d, &op1, serial).expect("op1 evaluates");
            let b1 = finalize_rows(&b1.physical, base.schema().len(), &op1, d.schema())
                .expect("op1 finalizes");
            serial_local(&b1, &d, &op2, serial).expect("op2 evaluates")
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

/// The kernel's sub-aggregate of `a` over the Int inputs `xs`, for one
/// base tuple that θ = TRUE gives every input: the physical row, the
/// base column `k` and then `a`'s slots.
fn sub_aggregate(a: &AggSpec, xs: &[i64]) -> Relation {
    let base = Relation::new(Schema::of(&[("k", DataType::Int)]), vec![Row::new(vec![Value::Int(0)])])
        .expect("static schema");
    let d = detail(&xs.iter().map(|&x| (0, x)).collect::<Vec<_>>());
    let op = Gmdj::new("t").block(Expr::True, vec![a.clone()]);
    eval_local(&base, &d, &op, EvalOptions::default()).expect("evaluates").physical
}

/// `n` fresh positions of the typed states of `a`, over [`detail`]'s
/// schema.
fn fresh_states(a: &AggSpec, n: usize) -> AccStates {
    let layout = Gmdj::new("t").block(Expr::True, vec![a.clone()]).layout(detail(&[]).schema());
    AccStates::new(&layout.expect("lays out"), n)
}

/// Merge the sub-aggregate `sub` into position `p` of `st`.
fn absorb(st: &mut AccStates, sub: &Relation, p: usize) {
    st.absorb(sub.columns(), 1, &[p], &[false]).expect("absorbs");
}

/// Position `p`'s finalized value.
fn finalized(st: &AccStates, p: u32) -> Value {
    st.finalize_columns(&[p], &[true; 4])[0].value(0)
}

/// Merging is commutative for every aggregate (site arrival order must
/// not matter): the typed states' X_init ⊕ x ⊕ y and X_init ⊕ y ⊕ x.
#[test]
fn merge_is_commutative() {
    for_cases("merge_is_commutative", 64, |rng| {
        let a = spec(0, arb_agg(rng));
        let xs = cases::vec(rng, 0..10, |rng| rng.gen_range(-50i64..50));
        let ys = cases::vec(rng, 0..10, |rng| rng.gen_range(-50i64..50));
        let (sub_x, sub_y) = (sub_aggregate(&a, &xs), sub_aggregate(&a, &ys));
        let mut st = fresh_states(&a, 4);
        for (p, sub) in [&sub_x, &sub_y, &sub_y, &sub_x].into_iter().enumerate() {
            absorb(&mut st, sub, p);
        }
        st.combine(0, 1, 1, &[true], &[true]);
        st.combine(2, 3, 1, &[true], &[true]);
        let (f1, f2) = (finalized(&st, 0), finalized(&st, 2));
        assert!(values_close(&f1, &f2), "{f1} vs {f2}");
    });
}

/// Merging a fresh (identity) accumulator changes nothing.
#[test]
fn merge_identity() {
    for_cases("merge_identity", 64, |rng| {
        let a = spec(0, arb_agg(rng));
        let xs = cases::vec(rng, 0..10, |rng| rng.gen_range(-50i64..50));
        let sub = sub_aggregate(&a, &xs);
        let mut st = fresh_states(&a, 3);
        absorb(&mut st, &sub, 0);
        absorb(&mut st, &sub, 1);
        st.combine(1, 2, 1, &[true], &[true]);
        let (f1, f2) = (finalized(&st, 0), finalized(&st, 1));
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

/// The bits of a value, with its type: `-0.0` and NaN payloads told
/// apart.
fn bits_of(v: &Value) -> String {
    match v {
        Value::Double(d) => format!("D{:#x}", d.to_bits()),
        v => format!("{v:?}"),
    }
}

/// `x` over an `Int` with NULLs and values past 2⁵³, or over a `Double`
/// with `-0.0`, NaN payloads and ±∞.
fn arb_input(rng: &mut StdRng, double: bool) -> Value {
    match (double, rng.gen_range(0..6)) {
        (_, 0) => Value::Null,
        (false, 1) => Value::Int((1i64 << 53) + rng.gen_range(-3i64..4)),
        (false, 2) => Value::Int(i64::MAX - rng.gen_range(0i64..3)),
        (false, _) => Value::Int(rng.gen_range(-50..50)),
        (true, 1) => Value::Double(-0.0),
        (true, 2) => Value::Double(f64::from_bits(0x7ff8_0000_0000_0000 | rng.gen_range(1u64..9))),
        (true, 3) => Value::Double(cases::pick(rng, &[f64::INFINITY, f64::NEG_INFINITY])),
        (true, _) => Value::Double(rng.gen_range(-90i64..90) as f64 / 7.0),
    }
}

/// Sharing moves no bit: every aggregate of a random block of COUNT(*),
/// COUNT(x), SUM, AVG, VAR, STDDEV, MIN and MAX over one input (repeats
/// allowed) finalizes to the bits of the same aggregate computed alone in
/// its block — through the kernel at any morsel size, through a `Cluster`
/// of one to three sites under every optimization and none, and through
/// the data cube's roll-up (`query::cube`, whose finest query ships the
/// block's slots). An aggregate alone covers a VAR or STDDEV of an `Int`
/// that nothing else types.
#[test]
fn sharing_slots_moves_no_output_bit() {
    for_cases("sharing_slots_moves_no_output_bit", 64, |rng| {
        let double = rng.gen();
        let rows = cases::vec(rng, 0..30, |rng| (rng.gen_range(0i64..3), arb_input(rng, double)));
        let ty = if double { DataType::Double } else { DataType::Int };
        let d = Relation::new(
            Schema::of(&[("g", DataType::Int), ("x", ty)]),
            rows.into_iter().map(|(g, x)| Row::new(vec![Value::Int(g), x])).collect(),
        )
        .expect("static schema");
        let base = Relation::new(Schema::of(&[("g", DataType::Int)]), (0..4).map(|g| Row::new(vec![Value::Int(g)])).collect())
            .expect("static schema");
        let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Var, AggFunc::StdDev, AggFunc::Min, AggFunc::Max];
        let specs: Vec<AggSpec> = (0..rng.gen_range(1..8usize))
            .map(|i| match rng.gen_range(0..8usize) {
                7 => AggSpec::count(format!("a{i}")),
                f => AggSpec::over_expr(funcs[f], Expr::dcol("x"), format!("a{i}")),
            })
            .collect();
        let opts = EvalOptions { parallelism: 1, morsel_rows: cases::pick(rng, &[2, DEFAULT_MORSEL_ROWS]) };
        let cluster = Cluster::from_partitions("t", partition_by_int_ranges(&d, "g", rng.gen_range(1..4)));
        let block = |aggs: Vec<AggSpec>| Gmdj::new("t").block(ThetaBuilder::group_by(&["g"]).build(), aggs);
        // Per path, the outputs of `aggs` as one block: a row per group,
        // its key first.
        let outputs = |aggs: &[AggSpec]| -> Vec<(&str, Relation)> {
            let kernel = eval_full(&base, &d, &block(aggs.to_vec()), opts, &Obs::disabled(), 0).expect("evaluates");
            let expr = GmdjExprBuilder::distinct_base("t", &["g"]).gmdj(block(aggs.to_vec())).build();
            let run = |flags| {
                let plan = Planner::new(cluster.distribution()).optimize(&expr, flags);
                let out = cluster.execute(&plan).expect("executes").relation;
                out.sorted_by(&["g"]).expect("g is a column")
            };
            let cube = cube_with_rollup(&cluster, "t", &["g"], aggs, OptFlags::all(), true).expect("cube");
            vec![("kernel", kernel), ("all", run(OptFlags::all())), ("none", run(OptFlags::none())), ("cube", cube.relation)]
        };
        let shared = outputs(&specs);
        for (k, a) in specs.iter().enumerate() {
            for ((path, s), (_, l)) in shared.iter().zip(outputs(std::slice::from_ref(a))) {
                assert_eq!(s.len(), l.len(), "{path}: {a} in {specs:?}");
                for (s, l) in s.rows().iter().zip(l.rows()) {
                    assert_eq!(bits_of(s.get(1 + k)), bits_of(l.get(1)), "{path}: {a} in {specs:?}");
                }
            }
        }
    });
}

/// The output bits of `SUM, AVG, VAR, STDDEV, COUNT(v)` of one `Double`
/// input over `[-0.0]`, over `[NaN(payload 5)]` and over all-NULL.
#[test]
fn shared_slots_pin_the_bits_of_signed_zero_nan_and_null() {
    let nan5 = f64::from_bits(0x7ff8_0000_0000_0005);
    let aggs = vec![
        AggSpec::sum("v", "s"),
        AggSpec::avg("v", "a"),
        AggSpec::var("v", "vr"),
        AggSpec::stddev("v", "sd"),
        AggSpec::over_expr(AggFunc::Count, Expr::dcol("v"), "c"),
    ];
    let op = Gmdj::new("t").block(Expr::True, aggs);
    let base = Relation::new(Schema::of(&[("k", DataType::Int)]), vec![Row::new(vec![Value::Int(0)])]).expect("static schema");
    let out = |v: Value| {
        let d = Relation::new(Schema::of(&[("v", DataType::Double)]), vec![Row::new(vec![v])]).expect("static schema");
        let r = eval_full(&base, &d, &op, EvalOptions::default(), &Obs::disabled(), 0).expect("evaluates");
        r.rows()[0].values()[1..].iter().map(bits_of).collect::<Vec<_>>()
    };
    let zero = format!("D{:#x}", 0.0f64.to_bits());
    let neg = format!("D{:#x}", (-0.0f64).to_bits());
    assert_eq!(out(Value::Double(-0.0)), [neg.clone(), neg, zero.clone(), zero.clone(), "Int(1)".into()]);
    let nan = format!("D{:#x}", nan5.to_bits());
    assert_eq!(out(Value::Double(nan5)), [nan.clone(), nan, zero.clone(), zero, "Int(1)".into()]);
    assert_eq!(out(Value::Null), ["Null", "Null", "Null", "Null", "Int(0)"]);
}
