//! Property-based tests for the relational substrate.

use proptest::prelude::*;
use skalla_relation::codec::{decode_relation, encode_relation};
use skalla_relation::interval::{derive_base_constraint, eval_interval, BaseConstraint};
use skalla_relation::{
    ArithOp, DataType, Domain, DomainMap, Expr, Relation, Row, Schema, Value,
};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        // Finite doubles only in relations (generators never emit NaN).
        (-1e12f64..1e12).prop_map(Value::Double),
        "[a-zA-Z0-9 ,\"\n]{0,12}".prop_map(Value::str),
    ]
}

/// `v` as a value of type `t` (`NULL` stays `NULL`): a relation holds
/// only values of its fields' types.
fn conform(v: Value, t: DataType) -> Value {
    match (v, t) {
        (Value::Int(i), DataType::Double) => Value::Double(i as f64),
        (Value::Int(i), DataType::Str) => Value::str(i.to_string()),
        (Value::Double(d), DataType::Int) => Value::Int(d as i64),
        (Value::Double(d), DataType::Str) => Value::str(d.to_string()),
        (Value::Str(s), DataType::Int) => Value::Int(s.len() as i64),
        (Value::Str(s), DataType::Double) => Value::Double(s.len() as f64 / 4.0),
        (v, _) => v,
    }
}

/// Relations of 1–4 columns of random types, each cell `NULL` or a value
/// of its column's type.
fn arb_relation() -> impl Strategy<Value = Relation> {
    (1usize..5).prop_flat_map(|arity| {
        let schema_types = proptest::collection::vec(
            prop_oneof![
                Just(DataType::Int),
                Just(DataType::Double),
                Just(DataType::Str)
            ],
            arity,
        );
        let rows =
            proptest::collection::vec(proptest::collection::vec(arb_value(), arity), 0..20);
        (schema_types, rows).prop_map(|(types, rows)| {
            let fields: Vec<(String, DataType)> = types
                .iter()
                .enumerate()
                .map(|(i, t)| (format!("c{i}"), *t))
                .collect();
            let schema = Schema::of(
                &fields
                    .iter()
                    .map(|(n, t)| (n.as_str(), *t))
                    .collect::<Vec<_>>(),
            );
            let rows = rows.into_iter().map(|r| {
                Row::new(r.into_iter().zip(&types).map(|(v, t)| conform(v, *t)).collect())
            });
            Relation::new(schema, rows.collect()).expect("rows conform")
        })
    })
}

/// Relations biased toward the columnar layout's edge cases: Int, Double
/// and Str columns with Nulls everywhere, NaN and -0.0 payloads, and a
/// tiny string alphabet so the dictionary sees repeats.
fn arb_columnar_relation() -> impl Strategy<Value = Relation> {
    fn cell(kind: usize) -> BoxedStrategy<Value> {
        match kind {
            0 => prop_oneof![
                any::<i64>().prop_map(Value::Int),
                any::<i64>().prop_map(Value::Int),
                Just(Value::Null),
            ]
            .boxed(),
            1 => prop_oneof![
                (-1e12f64..1e12).prop_map(Value::Double),
                (-1e12f64..1e12).prop_map(Value::Double),
                Just(Value::Double(f64::NAN)),
                Just(Value::Double(f64::from_bits(0xfff8_0000_0000_0abc))),
                Just(Value::Double(-0.0)),
                Just(Value::Null),
            ]
            .boxed(),
            _ => prop_oneof![
                "[ab]{0,2}".prop_map(Value::str),
                "[ab]{0,2}".prop_map(Value::str),
                Just(Value::Null),
            ]
            .boxed(),
        }
    }
    (
        (0usize..3, 0usize..3, 0usize..3, 0usize..3),
        1usize..5,
        0usize..24,
    )
        .prop_flat_map(|(kinds, arity, n_rows)| {
            let kinds = [kinds.0, kinds.1, kinds.2, kinds.3];
            (
                proptest::collection::vec(cell(kinds[0]), n_rows..n_rows + 1),
                proptest::collection::vec(cell(kinds[1]), n_rows..n_rows + 1),
                proptest::collection::vec(cell(kinds[2]), n_rows..n_rows + 1),
                proptest::collection::vec(cell(kinds[3]), n_rows..n_rows + 1),
            )
                .prop_map(move |(c0, c1, c2, c3)| {
                    let cols = [c0, c1, c2, c3];
                    let fields: Vec<(String, DataType)> = kinds[..arity]
                        .iter()
                        .enumerate()
                        .map(|(i, k)| {
                            let t = match k {
                                1 => DataType::Double,
                                2 => DataType::Str,
                                _ => DataType::Int,
                            };
                            (format!("c{i}"), t)
                        })
                        .collect();
                    let schema = Schema::of(
                        &fields
                            .iter()
                            .map(|(n, t)| (n.as_str(), *t))
                            .collect::<Vec<_>>(),
                    );
                    let rows: Vec<Row> = (0..n_rows)
                        .map(|r| {
                            Row::new(
                                cols[..arity].iter().map(|c| c[r].clone()).collect(),
                            )
                        })
                        .collect();
                    Relation::new(schema, rows).expect("rows conform")
                })
        })
}

/// Relations whose cells collide under `Value`'s `Eq`/`Hash` without being
/// identical — `±0.0`, NaNs with different payloads, `NULL`s, equal
/// strings in one shared and in separate allocations — over Int, Double
/// and Str columns, with a key: a non-empty list of distinct column names
/// in any order.
fn arb_keyed_relation() -> impl Strategy<Value = (Relation, Vec<String>)> {
    fn cell(kind: usize, shared: &std::sync::Arc<str>) -> BoxedStrategy<Value> {
        let ints = prop_oneof![(-2i64..3).prop_map(Value::Int), Just(Value::Null)];
        let doubles = prop_oneof![
            (-2i64..3).prop_map(|i| Value::Double(i as f64)),
            Just(Value::Double(-0.0)),
            Just(Value::Double(0.5)),
            Just(Value::Double(f64::NAN)),
            Just(Value::Double(f64::from_bits(0xfff8_0000_0000_0abc))),
            Just(Value::Null),
        ];
        let strings = prop_oneof![
            "[ab]{0,1}".prop_map(Value::str),
            Just(Value::Str(shared.clone())),
            Just(Value::Null),
        ];
        match kind {
            0 => ints.boxed(),
            1 => doubles.boxed(),
            _ => strings.boxed(),
        }
    }
    (
        proptest::collection::vec(0usize..3, 1..4),
        0usize..30,
        0usize..3,
        1usize..4,
    )
        .prop_flat_map(|(kinds, n_rows, rot, key_len)| {
            let shared: std::sync::Arc<str> = "a".into();
            let arity = kinds.len();
            // Three columns generated whole; the first `arity` are used.
            let column = |i: usize| {
                proptest::collection::vec(cell(kinds[i % arity], &shared), n_rows..n_rows + 1)
            };
            let columns = (column(0), column(1), column(2));
            columns.prop_map(move |(c0, c1, c2)| {
                let cols = [c0, c1, c2];
                let names: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
                let types = [DataType::Int, DataType::Double, DataType::Str];
                let schema = Schema::of(
                    &names
                        .iter()
                        .zip(&kinds)
                        .map(|(n, &k)| (n.as_str(), types[k]))
                        .collect::<Vec<_>>(),
                );
                let rows = (0..n_rows)
                    .map(|r| Row::new(cols[..arity].iter().map(|c| c[r].clone()).collect()))
                    .collect();
                let key = (0..key_len.min(arity))
                    .map(|j| names[(rot + j) % arity].clone())
                    .collect();
                (Relation::new(schema, rows).expect("rows conform"), key)
            })
        })
}

/// What `project_distinct` (and, over every column, `distinct`) has to
/// equal: a row-at-a-time `DISTINCT` over `Row`'s own `Eq`/`Hash`,
/// keeping first occurrences.
fn naive_project_distinct(rel: &Relation, idx: &[usize]) -> Vec<Row> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for r in rel.rows() {
        let p = r.project(idx);
        if seen.insert(p.clone()) {
            out.push(p);
        }
    }
    out
}

/// The same value, not merely an equal one: same variant, same f64 bits,
/// same string allocation.
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => std::sync::Arc::ptr_eq(x, y),
        _ => false,
    }
}

proptest! {
    /// The columnar `DISTINCT` over canonical keys keeps exactly the naive
    /// one's rows: same groups, same first-occurrence order, each group's
    /// first occurrence as its representative down to the bits — and
    /// answers the same from its memo.
    #[test]
    fn project_distinct_matches_naive_distinct((rel, key) in arb_keyed_relation()) {
        let key: Vec<&str> = key.iter().map(String::as_str).collect();
        let idx = rel.schema().indexes_of(&key).expect("key columns exist");
        let want = naive_project_distinct(&rel, &idx);
        for pass in ["computed", "memoized"] {
            let got = rel.project_distinct(&key).expect("projects");
            prop_assert_eq!(got.schema().column_names(), key.clone());
            prop_assert_eq!(got.len(), want.len(), "{} {:?} of\n{}", pass, key, rel);
            for (g, w) in got.rows().iter().zip(&want) {
                prop_assert!(
                    g.values().iter().zip(w.values()).all(|(a, b)| identical(a, b)),
                    "{pass} {key:?}: {g:?} vs {w:?} of\n{rel}"
                );
            }
        }
    }

    /// The wire codec ships a relation column by column and loses nothing
    /// the columnar layout keeps: NULLs, ±0.0, NaN payloads and repeated
    /// strings all decode to the same variant and bits, and decoding then
    /// encoding again gives the same bytes.
    #[test]
    fn columnar_codec_round_trips_bit_for_bit(rel in arb_columnar_relation()) {
        let bytes = encode_relation(&rel);
        let back = decode_relation(&bytes).expect("decode what we encoded");
        prop_assert_eq!(back.schema(), rel.schema());
        prop_assert_eq!(back.len(), rel.len());
        let same_bits = |a: &Value, b: &Value| match (a, b) {
            (Value::Null, Value::Null) => true,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
            (Value::Str(x), Value::Str(y)) => x == y,
            _ => false,
        };
        for (got, want) in back.rows().iter().zip(rel.rows()) {
            for (g, w) in got.values().iter().zip(want.values()) {
                prop_assert!(same_bits(g, w), "{g:?} vs {w:?} of\n{rel}");
            }
        }
        prop_assert_eq!(encode_relation(&back), bytes);
        prop_assert_eq!(rel.encoded_size(), encode_relation(&rel).len());
    }

    #[test]
    fn codec_round_trips(rel in arb_relation()) {
        let bytes = encode_relation(&rel);
        let back = decode_relation(&bytes).expect("decode what we encoded");
        prop_assert_eq!(rel, back);
    }

    /// The columnar physical layout is a lossless re-encoding: every cell
    /// survives `rows → Columns → rows` with exact bits (f64 compared by
    /// bit pattern, so NaN payloads and -0.0 are preserved), Nulls map to
    /// validity-bitmap gaps and back, and equal strings share one
    /// dictionary entry (same `Arc<str>` after reconstruction).
    #[test]
    fn columnar_layout_round_trips(rel in arb_columnar_relation()) {
        let cols = rel.columns();
        prop_assert_eq!(cols.len(), rel.len());
        prop_assert_eq!(cols.arity(), rel.schema().len());
        let bits_equal = |a: &Value, b: &Value| match (a, b) {
            (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        };
        for (i, row) in rel.rows().iter().enumerate() {
            for (c, want) in row.values().iter().enumerate() {
                let got = cols.value(c, i);
                prop_assert!(bits_equal(&got, want), "cell ({c},{i}): {got:?} vs {want:?}");
            }
        }
        let back = cols.to_rows();
        prop_assert_eq!(back.len(), rel.len());
        for (got, want) in back.iter().zip(rel.rows()) {
            for (gv, wv) in got.values().iter().zip(want.values()) {
                prop_assert!(bits_equal(gv, wv), "{gv:?} vs {wv:?}");
            }
        }
        // Shared interning: in a dictionary-encoded column, equal strings
        // come back as the *same* allocation.
        for c in 0..cols.arity() {
            if !matches!(cols.col(c), skalla_relation::Column::Str { .. }) {
                continue;
            }
            let mut seen: Vec<std::sync::Arc<str>> = Vec::new();
            for r in &back {
                if let Value::Str(s) = &r.values()[c] {
                    match seen.iter().find(|p| ***p == **s) {
                        Some(prev) => prop_assert!(
                            std::sync::Arc::ptr_eq(prev, s),
                            "equal strings {s:?} in column {c} not shared"
                        ),
                        None => seen.push(s.clone()),
                    }
                }
            }
        }
    }

    #[test]
    fn value_order_is_total_and_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity for a chain sorted by cmp.
        let mut v = [a, b, c];
        v.sort();
        prop_assert!(v[0] <= v[1] && v[1] <= v[2]);
        // Consistency of Eq with Ordering::Equal.
        prop_assert_eq!(v[0] == v[1], v[0].cmp(&v[1]) == Ordering::Equal);
    }

    /// `distinct` keeps exactly the naive `DISTINCT`'s rows — same order,
    /// same variants, same f64 bits, same string allocations — also where
    /// cells collide under `Eq` without being identical.
    #[test]
    fn distinct_is_idempotent_and_subset(
        rel in arb_relation(),
        (keyed, _) in arb_keyed_relation(),
    ) {
        for rel in [rel, keyed] {
            let d = rel.distinct();
            prop_assert!(d.len() <= rel.len());
            prop_assert!(d.same_bag(&d.distinct()));
            let all: Vec<usize> = (0..rel.schema().len()).collect();
            let want = naive_project_distinct(&rel, &all);
            prop_assert_eq!(d.len(), want.len(), "{}", rel);
            for (g, w) in d.rows().iter().zip(&want) {
                prop_assert!(
                    g.values().iter().zip(w.values()).all(|(a, b)| identical(a, b)),
                    "{g:?} vs {w:?} of\n{rel}"
                );
            }
        }
    }

    #[test]
    fn union_len_adds(a in arb_relation()) {
        let u = a.union_all(&a).expect("same schema");
        prop_assert_eq!(u.len(), a.len() * 2);
    }

    #[test]
    fn csv_round_trips_when_no_nulls(rel in arb_relation()) {
        // NULL round-trips only for non-Str columns (empty string vs NULL is
        // ambiguous in CSV), so replace nulls with typed defaults.
        let schema = rel.schema().clone();
        let rows: Vec<Row> = rel.rows().iter().map(|r| {
            Row::new(r.values().iter().zip(schema.fields()).map(|(v, f)| {
                if v.is_null() {
                    match f.data_type() {
                        DataType::Int => Value::Int(0),
                        DataType::Double => Value::Double(0.0),
                        DataType::Str => Value::str("x"),
                    }
                } else if f.data_type() == DataType::Str && v.as_str() == Some("") {
                    Value::str("x")
                } else { v.clone() }
            }).collect())
        }).collect();
        let clean = Relation::new(schema.clone(), rows).expect("rows conform");
        let text = skalla_relation::csv::to_csv(&clean);
        let back = skalla_relation::csv::from_csv(&text, schema).expect("parse back");
        prop_assert_eq!(clean, back);
    }
}

// Interval soundness: evaluating a detail-only expression on concrete rows
// drawn from the declared domains always lands inside the derived interval.
proptest! {
    #[test]
    fn interval_bounds_are_sound(
        lo in -100i64..100,
        width in 0i64..50,
        mul in -5i64..5,
        add in -50i64..50,
        sample in 0i64..50,
    ) {
        let hi = lo + width;
        let v = lo + (sample % (width + 1));
        let domains = DomainMap::new().with("v", Domain::IntRange(lo, hi));
        let e = Expr::dcol("v")
            .mul(Expr::lit(mul))
            .add(Expr::lit(add));
        let iv = eval_interval(&e, &domains).expect("boundable");
        let concrete = (v * mul + add) as f64;
        prop_assert!(iv.lo <= concrete && concrete <= iv.hi,
            "value {concrete} outside {iv}");
    }

    // ¬ψ soundness: any base tuple with a matching detail tuple at the site
    // passes the derived filter.
    #[test]
    fn derived_filter_never_drops_matching_groups(
        lo in -20i64..20,
        width in 0i64..10,
        g in -40i64..40,
    ) {
        let hi = lo + width;
        let domains = DomainMap::new().with("g", Domain::IntRange(lo, hi));
        let theta = Expr::bcol("g").eq(Expr::dcol("g"));
        let constraint = derive_base_constraint(&theta, &domains);
        // A detail tuple with r.g = g exists at the site iff lo <= g <= hi.
        let matches_at_site = g >= lo && g <= hi;
        match constraint {
            BaseConstraint::Filter(f) => {
                let bschema = Schema::of(&[("g", DataType::Int)]);
                let bound = f.bind(&bschema, None).expect("base-only");
                let keeps = bound
                    .eval_row(&Row::new(vec![Value::Int(g)]))
                    .expect("evaluates")
                    .is_truthy();
                if matches_at_site {
                    prop_assert!(keeps, "filter dropped a matching group");
                }
            }
            BaseConstraint::Unrestricted => {}
            BaseConstraint::Unsatisfiable => {
                prop_assert!(!matches_at_site);
            }
        }
    }

    #[test]
    fn modulo_interval_is_sound(v in 0i64..10_000, m in 1i64..64) {
        let domains = DomainMap::new().with("v", Domain::IntRange(0, 10_000));
        let e = Expr::Arith(
            ArithOp::Mod,
            Box::new(Expr::dcol("v")),
            Box::new(Expr::lit(m)),
        );
        let iv = eval_interval(&e, &domains).expect("boundable");
        let concrete = v.rem_euclid(m) as f64;
        prop_assert!(iv.lo <= concrete && concrete <= iv.hi);
    }
}
