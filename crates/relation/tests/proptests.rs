//! Property-based tests for the relational substrate.

use skalla_datagen::cases::{self, for_cases, Rng, StdRng};
use skalla_relation::codec::{decode_relation, encode_relation};
use skalla_relation::interval::{derive_base_constraint, eval_interval, BaseConstraint};
use skalla_relation::{
    ArithOp, DataType, Domain, DomainMap, Expr, Field, Relation, Row, Schema, Value,
};
use std::ops::Range;
use std::sync::Arc;

/// A quiet NaN with a payload, beside `f64::NAN`'s canonical bits.
const NAN_PAYLOAD: u64 = 0xfff8_0000_0000_0abc;

fn arb_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..4) {
        0 => Value::Null,
        1 => Value::Int(rng.gen()),
        // Finite doubles only in relations (generators never emit NaN).
        2 => Value::Double(rng.gen_range(-1e12..1e12)),
        _ => Value::str(cases::string(
            rng,
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,\"\n",
            0..=12,
        )),
    }
}

/// [`arb_value`] or, three times in four, a value at an edge of
/// `Value`'s order: NaN payloads, `±0.0`, infinities, and Ints and
/// integral Doubles at and next to `anchor` (`±2⁵³` or `±2⁶³`, where
/// `i as f64` rounds; the Ints reach `i64::MIN` and `i64::MAX`).
fn arb_order_value(rng: &mut StdRng, anchor: f64) -> Value {
    let next = |steps: i64| f64::from_bits(anchor.to_bits().wrapping_add_signed(steps));
    let i = anchor as i64;
    match rng.gen_range(0..4) {
        0 => arb_value(rng),
        1 => Value::Double(cases::pick(
            rng,
            &[
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                f64::from_bits(NAN_PAYLOAD),
                f64::from_bits(0x7ff0_0000_0000_0001),
            ],
        )),
        _ => cases::pick(
            rng,
            &[
                Value::Double(next(-1)),
                Value::Double(anchor),
                Value::Double(next(1)),
                Value::Int(i.saturating_sub(1)),
                Value::Int(i),
                Value::Int(i.saturating_add(1)),
            ],
        ),
    }
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

/// A relation of `arity` columns `c0, c1, …` of random types, with
/// `cell(rng, type)` in each of `n_rows` rows (both counts drawn).
fn relation(
    rng: &mut StdRng,
    arity: Range<usize>,
    n_rows: Range<usize>,
    mut cell: impl FnMut(&mut StdRng, DataType) -> Value,
) -> Relation {
    let types = cases::vec(rng, arity, |rng| {
        cases::pick(rng, &[DataType::Int, DataType::Double, DataType::Str])
    });
    let fields = types.iter().enumerate().map(|(i, t)| Field::new(format!("c{i}"), *t));
    let rows = cases::vec(rng, n_rows, |rng| {
        Row::new(types.iter().map(|t| cell(rng, *t)).collect())
    });
    Relation::new(Schema::new(fields.collect()).expect("distinct names"), rows)
        .expect("rows conform")
}

/// Relations of 1–4 columns of random types, each cell `NULL` or a value
/// of its column's type.
fn arb_relation(rng: &mut StdRng) -> Relation {
    relation(rng, 1..5, 0..20, |rng, t| conform(arb_value(rng), t))
}

/// Relations biased toward the columnar layout's edge cases: Int, Double
/// and Str columns with Nulls everywhere, NaN and -0.0 payloads, and a
/// tiny string alphabet so the dictionary sees repeats.
fn arb_columnar_relation(rng: &mut StdRng) -> Relation {
    relation(rng, 1..5, 0..24, |rng, t| match t {
        DataType::Int => match rng.gen_range(0..3) {
            0 => Value::Null,
            _ => Value::Int(rng.gen()),
        },
        DataType::Double => match rng.gen_range(0..6) {
            0 => Value::Null,
            1 => Value::Double(f64::NAN),
            2 => Value::Double(f64::from_bits(NAN_PAYLOAD)),
            3 => Value::Double(-0.0),
            _ => Value::Double(rng.gen_range(-1e12..1e12)),
        },
        DataType::Str => match rng.gen_range(0..3) {
            0 => Value::Null,
            _ => Value::str(cases::string(rng, "ab", 0..=2)),
        },
    })
}

/// Relations whose cells collide under `Value`'s `Eq`/`Hash` without being
/// identical — `±0.0`, NaNs with different payloads, `NULL`s, equal
/// strings in one shared and in separate allocations — over Int, Double
/// and Str columns, with a key: a non-empty list of distinct column names
/// in any order.
fn arb_keyed_relation(rng: &mut StdRng) -> (Relation, Vec<String>) {
    let shared: Arc<str> = "a".into();
    let rel = relation(rng, 1..4, 0..30, |rng, t| match (t, rng.gen_range(0..6)) {
        (DataType::Int, 0..=2) => Value::Int(rng.gen_range(-2..3)),
        (DataType::Double, 0) => Value::Double(rng.gen_range(-2..3) as f64),
        (DataType::Double, 1) => Value::Double(-0.0),
        (DataType::Double, 2) => Value::Double(0.5),
        (DataType::Double, 3) => Value::Double(f64::NAN),
        (DataType::Double, 4) => Value::Double(f64::from_bits(NAN_PAYLOAD)),
        (DataType::Str, 0 | 1) => Value::str(cases::string(rng, "ab", 0..=1)),
        (DataType::Str, 2 | 3) => Value::Str(shared.clone()),
        _ => Value::Null,
    });
    let arity = rel.schema().len();
    let (rot, key_len): (usize, usize) = (rng.gen_range(0..3), rng.gen_range(1..4));
    let key = (0..key_len.min(arity)).map(|j| format!("c{}", (rot + j) % arity)).collect();
    (rel, key)
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
        (Value::Str(x), Value::Str(y)) => Arc::ptr_eq(x, y),
        _ => same_bits(a, b),
    }
}

/// Same variant, same f64 bits, equal strings.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

/// The columnar `DISTINCT` over canonical keys keeps exactly the naive
/// one's rows: same groups, same first-occurrence order, each group's
/// first occurrence as its representative down to the bits — and
/// answers the same from its memo.
#[test]
fn project_distinct_matches_naive_distinct() {
    for_cases("project_distinct_matches_naive_distinct", 64, |rng| {
        let (rel, key) = arb_keyed_relation(rng);
        let key: Vec<&str> = key.iter().map(String::as_str).collect();
        let idx = rel.schema().indexes_of(&key).expect("key columns exist");
        let want = naive_project_distinct(&rel, &idx);
        for pass in ["computed", "memoized"] {
            let got = rel.project_distinct(&key).expect("projects");
            assert_eq!(got.schema().column_names(), key.clone());
            assert_eq!(got.len(), want.len(), "{} {:?} of\n{}", pass, key, rel);
            for (g, w) in got.rows().iter().zip(&want) {
                assert!(
                    g.values().iter().zip(w.values()).all(|(a, b)| identical(a, b)),
                    "{pass} {key:?}: {g:?} vs {w:?} of\n{rel}"
                );
            }
        }
    });
}

/// The wire codec ships a relation column by column and loses nothing
/// the columnar layout keeps: NULLs, ±0.0, NaN payloads and repeated
/// strings all decode to the same variant and bits, and decoding then
/// encoding again gives the same bytes.
#[test]
fn columnar_codec_round_trips_bit_for_bit() {
    for_cases("columnar_codec_round_trips_bit_for_bit", 64, |rng| {
        let rel = arb_columnar_relation(rng);
        let bytes = encode_relation(&rel);
        let back = decode_relation(&bytes).expect("decode what we encoded");
        assert_eq!(back.schema(), rel.schema());
        assert_eq!(back.len(), rel.len());
        for (got, want) in back.rows().iter().zip(rel.rows()) {
            for (g, w) in got.values().iter().zip(want.values()) {
                assert!(same_bits(g, w), "{g:?} vs {w:?} of\n{rel}");
            }
        }
        assert_eq!(encode_relation(&back), bytes);
        assert_eq!(rel.encoded_size(), encode_relation(&rel).len());
    });
}

/// One `Int` column of `n` cells from one of the packed codec's edge
/// families: `i64::MIN` beside `i64::MAX` (64-bit offsets), all equal, a
/// range straddling 0, offsets of a random width above a random minimum,
/// a sorted run of gaps of a random width (a key column), one climbing
/// from `i64::MIN` to `i64::MAX`, or any of these with `NULL`s among them.
fn arb_int_column(rng: &mut StdRng, n: usize) -> Vec<Value> {
    let family = rng.gen_range(0..6);
    let nulls = rng.gen_range(0..3) == 0;
    let one: i64 = rng.gen();
    let span = ((1u64 << rng.gen_range(0..64u32)) - 1) as i64;
    let min = rng.gen_range(i64::MIN..=i64::MAX - span);
    let gap = (1i64 << rng.gen_range(0..12u32)) - 1;
    let mut next = rng.gen_range(-1000..1000i64);
    (0..n)
        .map(|i| match family {
            _ if nulls && rng.gen_range(0..3) == 0 => Value::Null,
            0 => Value::Int([i64::MIN, i64::MAX][i % 2]),
            1 => Value::Int(one),
            2 => Value::Int(rng.gen_range(-1000..1000)),
            3 => Value::Int(min + rng.gen_range(0..=span)),
            4 => {
                next += rng.gen_range(0..=gap);
                Value::Int(next)
            }
            _ => Value::Int(match i {
                0 => i64::MIN,
                i if i + 1 == n => i64::MAX,
                i => i64::MIN / 2 + i as i64,
            }),
        })
        .collect()
}

/// The bits an offset spanning `span` takes, at least 1.
fn width(span: u64) -> usize {
    (64 - span.leading_zeros()).max(1) as usize
}

/// An `Int` column's body as the codec writes it; as it wrote it in
/// protocol v14, the smaller of its raw 8-byte run and its packed form
/// (minimum, width byte, the offsets in `w` bits each, `w` at least 1),
/// raw on a tie; and its raw size. Since v15 a column with no `NULL` whose
/// values never decrease goes delta-coded (first value, the gaps'
/// minimum, width byte, the gaps' offsets) where that is strictly
/// smaller than its v14 form.
fn int_body_sizes(cells: &[Value]) -> (usize, usize, usize) {
    let vals: Vec<i64> = cells.iter().filter_map(|v| v.as_i64()).collect();
    let bitmap = match vals.len() < cells.len() {
        true => cells.len().div_ceil(8),
        false => 0,
    };
    let raw = 1 + bitmap + 8 * vals.len();
    let (Some(lo), Some(hi)) = (vals.iter().min(), vals.iter().max()) else {
        return (raw, raw, raw);
    };
    let v14 = raw.min(1 + bitmap + 9 + (vals.len() * width(hi.wrapping_sub(*lo) as u64)).div_ceil(8));
    let gaps: Vec<u64> = vals.windows(2).map(|w| w[1].wrapping_sub(w[0]) as u64).collect();
    let sorted = bitmap == 0 && vals.len() > 1 && vals.windows(2).all(|w| w[0] <= w[1]);
    let delta = match (gaps.iter().min(), gaps.iter().max()) {
        (Some(lo), Some(hi)) if sorted => 1 + 17 + (gaps.len() * width(hi - lo)).div_ceil(8),
        _ => usize::MAX,
    };
    (v14.min(delta), v14, raw)
}

/// Packed and delta-coded `Int` columns round-trip bit for bit — 64-bit
/// offsets, all equal values, ranges across 0, sorted runs, gaps of 2⁶⁴ −
/// 1, `NULL`s, one-row columns — and a column's body is exactly the
/// smallest of its forms, so never larger than its v14 form, itself never
/// larger than its raw 8-byte run.
#[test]
fn packed_int_columns_round_trip_bit_for_bit() {
    for_cases("packed_int_columns_round_trip_bit_for_bit", 128, |rng| {
        let n = match rng.gen_range(0..4) {
            0 => 1,
            _ => rng.gen_range(0..80),
        };
        let cols: Vec<Vec<Value>> = (0..rng.gen_range(1..4)).map(|_| arb_int_column(rng, n)).collect();
        let fields = (0..cols.len()).map(|c| Field::new(format!("c{c}"), DataType::Int));
        let rows = (0..n).map(|i| Row::new(cols.iter().map(|c| c[i].clone()).collect()));
        let rel = Relation::new(Schema::new(fields.collect()).expect("distinct names"), rows.collect())
            .expect("rows conform");
        let bytes = encode_relation(&rel);
        let back = decode_relation(&bytes).expect("decode what we encoded");
        assert_eq!(back.len(), n);
        for (got, want) in back.rows().iter().zip(rel.rows()) {
            for (g, w) in got.values().iter().zip(want.values()) {
                assert!(same_bits(g, w), "{g:?} vs {w:?} of\n{rel}");
            }
        }
        assert_eq!(encode_relation(&back), bytes);
        assert_eq!(rel.encoded_size(), bytes.len());
        let (body, v14, raw) = match n {
            0 => (0, 0, 0),
            _ => cols.iter().map(|c| int_body_sizes(c)).fold((0, 0, 0), |(b, v, r), (cb, cv, cr)| {
                (b + cb, v + cv, r + cr)
            }),
        };
        assert_eq!(bytes.len(), rel.schema().encoded_size() + 4 + body, "of\n{rel}");
        assert!(body <= v14 && v14 <= raw);
    });
}

/// One `Double` column of `n` cells from one of the packed codec's edge
/// families: NaN payloads, `-0.0` beside `0.0`, infinities, subnormals,
/// prices (positive, so their bits pack), signs mixed (about 2⁶⁴ apart,
/// so raw), all equal, or any of these with `NULL`s among them.
fn arb_double_column(rng: &mut StdRng, n: usize) -> Vec<Value> {
    let family = rng.gen_range(0..7);
    let nulls = rng.gen_range(0..3) == 0;
    let one = f64::from_bits(rng.gen());
    let subnormal_top = 1u64 << rng.gen_range(1..52u32);
    (0..n)
        .map(|i| match family {
            _ if nulls && rng.gen_range(0..3) == 0 => Value::Null,
            0 => Value::Double(f64::from_bits([NAN_PAYLOAD, f64::NAN.to_bits(), 0x7ff0_0000_0000_0001][i % 3])),
            1 => Value::Double([0.0, -0.0][rng.gen_range(0..2usize)]),
            2 => Value::Double([f64::INFINITY, f64::NEG_INFINITY, f64::MAX, f64::MIN_POSITIVE][rng.gen_range(0..4usize)]),
            3 => Value::Double(f64::from_bits(rng.gen_range(1..subnormal_top))),
            4 => Value::Double(rng.gen_range(900.0..105_000.0)),
            5 => Value::Double(rng.gen_range(-1e6..1e6)),
            _ => Value::Double(one),
        })
        .collect()
}

/// A `Double` column's body as the codec writes it: the smaller of its
/// raw 8-byte run and its bits packed (minimum, width byte, each offset
/// in `w` bits, `w` at least 1), raw on a tie.
fn double_body_size(cells: &[Value]) -> usize {
    let words: Vec<i64> = (cells.iter())
        .filter_map(|v| match v {
            Value::Double(d) => Some(d.to_bits() as i64),
            _ => None,
        })
        .collect();
    let bitmap = match words.len() < cells.len() {
        true => cells.len().div_ceil(8),
        false => 0,
    };
    let raw = 1 + bitmap + 8 * words.len();
    let (Some(lo), Some(hi)) = (words.iter().min(), words.iter().max()) else {
        return raw;
    };
    raw.min(1 + bitmap + 9 + (words.len() * width(hi.wrapping_sub(*lo) as u64)).div_ceil(8))
}

/// Packed `Double` columns round-trip bit for bit — NaN payloads, ±0.0,
/// ±inf, subnormals, mixed signs, `NULL`s, all-equal and one-row columns
/// — and a column's body is exactly the smaller of its raw run and its
/// packed bits, which the relation's `encoded_size` predicts.
#[test]
fn packed_double_columns_round_trip_bit_for_bit() {
    for_cases("packed_double_columns_round_trip_bit_for_bit", 128, |rng| {
        let n = match rng.gen_range(0..4) {
            0 => 1,
            _ => rng.gen_range(1..150),
        };
        let cols: Vec<Vec<Value>> = (0..rng.gen_range(1..4)).map(|_| arb_double_column(rng, n)).collect();
        let fields = (0..cols.len()).map(|c| Field::new(format!("c{c}"), DataType::Double));
        let rows = (0..n).map(|i| Row::new(cols.iter().map(|c| c[i].clone()).collect()));
        let rel = Relation::new(Schema::new(fields.collect()).expect("distinct names"), rows.collect())
            .expect("rows conform");
        let bytes = encode_relation(&rel);
        let back = decode_relation(&bytes).expect("decode what we encoded");
        assert_eq!(back.len(), n);
        for (got, want) in back.rows().iter().zip(rel.rows()) {
            for (g, w) in got.values().iter().zip(want.values()) {
                assert!(same_bits(g, w), "{g:?} vs {w:?} of\n{rel}");
            }
        }
        assert_eq!(encode_relation(&back), bytes);
        assert_eq!(rel.encoded_size(), bytes.len());
        let body: usize = cols.iter().map(|c| double_body_size(c)).sum();
        assert_eq!(bytes.len(), rel.schema().encoded_size() + 4 + body, "of\n{rel}");
    });
}

#[test]
fn codec_round_trips() {
    for_cases("codec_round_trips", 64, |rng| {
        let rel = arb_relation(rng);
        let bytes = encode_relation(&rel);
        let back = decode_relation(&bytes).expect("decode what we encoded");
        assert_eq!(rel, back);
    });
}

/// The columnar physical layout is a lossless re-encoding: every cell
/// survives `rows → Columns → rows` with exact bits (f64 compared by
/// bit pattern, so NaN payloads and -0.0 are preserved), Nulls map to
/// validity-bitmap gaps and back, and equal strings share one
/// dictionary entry (same `Arc<str>` after reconstruction).
#[test]
fn columnar_layout_round_trips() {
    for_cases("columnar_layout_round_trips", 64, |rng| {
        let rel = arb_columnar_relation(rng);
        let cols = rel.columns();
        assert_eq!(cols.len(), rel.len());
        assert_eq!(cols.arity(), rel.schema().len());
        for (i, row) in rel.rows().iter().enumerate() {
            for (c, want) in row.values().iter().enumerate() {
                let got = cols.value(c, i);
                assert!(same_bits(&got, want), "cell ({c},{i}): {got:?} vs {want:?}");
            }
        }
        let back = cols.to_rows();
        assert_eq!(back.len(), rel.len());
        for (got, want) in back.iter().zip(rel.rows()) {
            for (gv, wv) in got.values().iter().zip(want.values()) {
                assert!(same_bits(gv, wv), "{gv:?} vs {wv:?}");
            }
        }
        // Shared interning: in a dictionary-encoded column, equal strings
        // come back as the *same* allocation.
        for c in 0..cols.arity() {
            if !matches!(cols.col(c), skalla_relation::Column::Str { .. }) {
                continue;
            }
            let mut seen: Vec<Arc<str>> = Vec::new();
            for r in &back {
                if let Value::Str(s) = &r.values()[c] {
                    match seen.iter().find(|p| ***p == **s) {
                        Some(prev) => assert!(
                            Arc::ptr_eq(prev, s),
                            "equal strings {s:?} in column {c} not shared"
                        ),
                        None => seen.push(s.clone()),
                    }
                }
            }
        }
    });
}

/// `Value`'s order is a total order that agrees with its `Eq` and `Hash`,
/// across types and at the edges where `i64 as f64` rounds.
#[test]
fn value_order_is_total_and_consistent() {
    use std::cmp::Ordering;
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
    let hash = |v: &Value| BuildHasherDefault::<DefaultHasher>::default().hash_one(v);
    for_cases("value_order_is_total_and_consistent", 64, |rng| {
        let anchor = cases::pick(rng, &[1u64 << 53, 1 << 63].map(|p| p as f64));
        let anchor = if rng.gen() { anchor } else { -anchor };
        let v = [(); 3].map(|_| arb_order_value(rng, anchor));
        let orders = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for [a, b, c] in orders.map(|p| p.map(|i| &v[i])) {
            assert_eq!(a.cmp(b), b.cmp(a).reverse(), "antisymmetry: {a:?} vs {b:?}");
            if a <= b && b <= c {
                assert!(a <= c, "transitivity: {a:?} <= {b:?} <= {c:?}");
            }
            assert_eq!(a == b, a.cmp(b) == Ordering::Equal, "{a:?} vs {b:?}");
            if a == b {
                assert_eq!(hash(a), hash(b), "equal values hash apart: {a:?} vs {b:?}");
            }
        }
    });
}

/// `distinct` keeps exactly the naive `DISTINCT`'s rows — same order,
/// same variants, same f64 bits, same string allocations — also where
/// cells collide under `Eq` without being identical.
#[test]
fn distinct_is_idempotent_and_subset() {
    for_cases("distinct_is_idempotent_and_subset", 64, |rng| {
        let rel = arb_relation(rng);
        let (keyed, _) = arb_keyed_relation(rng);
        for rel in [rel, keyed] {
            let d = rel.distinct();
            assert!(d.len() <= rel.len());
            assert!(d.same_bag(&d.distinct()));
            let all: Vec<usize> = (0..rel.schema().len()).collect();
            let want = naive_project_distinct(&rel, &all);
            assert_eq!(d.len(), want.len(), "{}", rel);
            for (g, w) in d.rows().iter().zip(&want) {
                assert!(
                    g.values().iter().zip(w.values()).all(|(a, b)| identical(a, b)),
                    "{g:?} vs {w:?} of\n{rel}"
                );
            }
        }
    });
}

#[test]
fn union_len_adds() {
    for_cases("union_len_adds", 64, |rng| {
        let a = arb_relation(rng);
        let u = a.union_all(&a).expect("same schema");
        assert_eq!(u.len(), a.len() * 2);
    });
}

#[test]
fn csv_round_trips_when_no_nulls() {
    for_cases("csv_round_trips_when_no_nulls", 64, |rng| {
        let rel = arb_relation(rng);
        // NULL round-trips only for non-Str columns (empty string vs NULL
        // is ambiguous in CSV), so replace nulls with typed defaults.
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
        assert_eq!(clean, back);
    });
}

// Interval soundness: evaluating a detail-only expression on concrete rows
// drawn from the declared domains always lands inside the derived interval.
#[test]
fn interval_bounds_are_sound() {
    for_cases("interval_bounds_are_sound", 64, |rng| {
        let lo = rng.gen_range(-100i64..100);
        let width = rng.gen_range(0i64..50);
        let mul = rng.gen_range(-5i64..5);
        let add = rng.gen_range(-50i64..50);
        let sample = rng.gen_range(0i64..50);
        let hi = lo + width;
        let v = lo + (sample % (width + 1));
        let domains = DomainMap::new().with("v", Domain::IntRange(lo, hi));
        let e = Expr::dcol("v")
            .mul(Expr::lit(mul))
            .add(Expr::lit(add));
        let iv = eval_interval(&e, &domains).expect("boundable");
        let concrete = (v * mul + add) as f64;
        assert!(iv.lo <= concrete && concrete <= iv.hi,
            "value {concrete} outside {iv}");
    });
}

// ¬ψ soundness: any base tuple with a matching detail tuple at the site
// passes the derived filter.
#[test]
fn derived_filter_never_drops_matching_groups() {
    for_cases("derived_filter_never_drops_matching_groups", 64, |rng| {
        let lo = rng.gen_range(-20i64..20);
        let width = rng.gen_range(0i64..10);
        let g = rng.gen_range(-40i64..40);
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
                    assert!(keeps, "filter dropped a matching group");
                }
            }
            BaseConstraint::Unrestricted => {}
            BaseConstraint::Unsatisfiable => {
                assert!(!matches_at_site);
            }
        }
    });
}

#[test]
fn modulo_interval_is_sound() {
    for_cases("modulo_interval_is_sound", 64, |rng| {
        let (v, m) = (rng.gen_range(0i64..10_000), rng.gen_range(1i64..64));
        let domains = DomainMap::new().with("v", Domain::IntRange(0, 10_000));
        let e = Expr::Arith(
            ArithOp::Mod,
            Box::new(Expr::dcol("v")),
            Box::new(Expr::lit(m)),
        );
        let iv = eval_interval(&e, &domains).expect("boundable");
        let concrete = v.rem_euclid(m) as f64;
        assert!(iv.lo <= concrete && concrete <= iv.hi);
    });
}
