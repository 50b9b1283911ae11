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

/// The width the codec packs `n` words spanning `span` in (`None`: no
/// word): the span's, raised to 64 — the words as they are — where the
/// minimum and the offsets would take no less room than 8 bytes a word.
fn numeric_width(n: usize, span: Option<u64>) -> usize {
    let w = span.map_or(64, width);
    match 8 + (n * w).div_ceil(8) >= 8 * n {
        true => 64,
        false => w,
    }
}

/// The numeric form of `n` words spanning `span`: the width byte, the
/// minimum below width 64, then `n` offsets in that width.
fn numeric_size(n: usize, span: Option<u64>) -> usize {
    let w = numeric_width(n, span);
    1 + if w < 64 { 8 } else { 0 } + (n * w).div_ceil(8)
}

/// The span of `words` in `i64` order (`None`: no word).
fn span_of(words: &[i64]) -> Option<u64> {
    Some(words.iter().max()?.wrapping_sub(*words.iter().min()?) as u64)
}

/// An `Int` column's body as the codec writes it; its numeric form; and
/// that form at width 64, its words as they are. A column with no `NULL`
/// whose values never decrease goes delta-coded (the first value, then
/// the gaps in the numeric form) where that is strictly smaller.
fn int_body_sizes(cells: &[Value]) -> (usize, usize, usize) {
    let vals: Vec<i64> = cells.iter().filter_map(|v| v.as_i64()).collect();
    let bitmap = match vals.len() < cells.len() {
        true => cells.len().div_ceil(8),
        false => 0,
    };
    let numeric = 1 + bitmap + numeric_size(vals.len(), span_of(&vals));
    let gaps: Vec<u64> = vals.windows(2).map(|w| w[1].wrapping_sub(w[0]) as u64).collect();
    let sorted = bitmap == 0 && vals.len() > 1 && vals.windows(2).all(|w| w[0] <= w[1]);
    let delta = match (gaps.iter().min(), gaps.iter().max()) {
        (Some(lo), Some(hi)) if sorted => 1 + 8 + numeric_size(gaps.len(), Some(hi - lo)),
        _ => usize::MAX,
    };
    (numeric.min(delta), numeric, 1 + bitmap + 1 + 8 * vals.len())
}

/// Packed and delta-coded `Int` columns round-trip bit for bit — 64-bit
/// offsets, all equal values, ranges across 0, sorted runs, gaps of 2⁶⁴ −
/// 1, `NULL`s, one-row columns — and a column's body is exactly the
/// smaller of its numeric and delta-coded forms, so never larger than its
/// numeric form, itself never larger than its words as they are.
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
        let (body, numeric, raw) = match n {
            0 => (0, 0, 0),
            _ => cols.iter().map(|c| int_body_sizes(c)).fold((0, 0, 0), |(b, v, r), (cb, cv, cr)| {
                (b + cb, v + cv, r + cr)
            }),
        };
        assert_eq!(bytes.len(), rel.schema().encoded_size() + 4 + body, "of\n{rel}");
        assert!(body <= numeric && numeric <= raw);
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

/// A `Double` column's body as the codec writes it: its bits' numeric
/// form.
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
    1 + bitmap + numeric_size(words.len(), span_of(&words))
}

/// Packed `Double` columns round-trip bit for bit — NaN payloads, ±0.0,
/// ±inf, subnormals, mixed signs, `NULL`s, all-equal and one-row columns
/// — and a column's body is exactly its bits' numeric form, which the
/// relation's `encoded_size` predicts.
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

/// `offsets` in `width` bits apiece, LSB-first, the last byte's unused
/// bits clear.
fn pack_bits(offsets: &[u64], width: usize) -> Vec<u8> {
    let mut run = vec![0u8; (offsets.len() * width).div_ceil(8)];
    for (i, &off) in offsets.iter().enumerate() {
        for b in (0..width).filter(|&b| off >> b & 1 == 1) {
            run[(i * width + b) / 8] |= 1 << ((i * width + b) % 8);
        }
    }
    run
}

/// A numeric run written by hand: the width byte, the minimum below
/// width 64, then each word's offset from it in `width` bits.
fn numeric_run(words: &[i64], width: usize, min: i64) -> Vec<u8> {
    let min = if width < 64 { min } else { 0 };
    let offsets: Vec<u64> = words.iter().map(|w| w.wrapping_sub(min) as u64).collect();
    let head = if width < 64 { min.to_le_bytes().to_vec() } else { vec![] };
    [[width as u8].as_slice(), &head, &pack_bits(&offsets, width)].concat()
}

/// `words`' numeric run as the codec writes it; `in_u64`: their order is
/// `u64`'s (a delta-coded column's gaps), not `i64`'s.
fn canonical_run(words: &[i64], in_u64: bool) -> Vec<u8> {
    let key = |w: &&i64| if in_u64 { **w as u64 } else { (**w as u64) ^ 1 << 63 };
    let min = words.iter().min_by_key(key).copied().unwrap_or(0);
    let span = words.iter().max_by_key(key).map(|max| max.wrapping_sub(min) as u64);
    numeric_run(words, numeric_width(words.len(), span), min)
}

/// A dictionary body written by hand: its length, its strings, then the
/// codes in the bits of its greatest code.
fn dict_body(dict: &[&str], codes: &[u64]) -> Vec<u8> {
    let mut out = (dict.len() as u32).to_le_bytes().to_vec();
    out.extend(plain_body(dict));
    out.extend(pack_bits(codes, width(dict.len().saturating_sub(1) as u64)));
    out
}

/// Strings written by hand, each length-prefixed.
fn plain_body(strings: &[&str]) -> Vec<u8> {
    strings.iter().flat_map(|s| [(s.len() as u32).to_le_bytes().as_slice(), s.as_bytes()].concat()).collect()
}

/// One column of `n` cells of type `ty`, from the codec's edge families:
/// `NULL`s among them or only `NULL`s, and for strings 1 or 300 distinct
/// values or a few.
fn arb_canonical_column(rng: &mut StdRng, ty: DataType, n: usize) -> Vec<Value> {
    let mut cells = match ty {
        DataType::Int => arb_int_column(rng, n),
        DataType::Double => arb_double_column(rng, n),
        DataType::Str => {
            let few = rng.gen_range(2..12);
            let distinct = cases::pick(rng, &[1, 300, few]);
            let nulls = rng.gen_range(0..3) == 0;
            (0..n)
                .map(|_| match nulls && rng.gen_range(0..3) == 0 {
                    true => Value::Null,
                    false => Value::str(format!("s{}", rng.gen_range(0..distinct))),
                })
                .collect()
        }
    };
    if rng.gen_range(0..8) == 0 {
        cells.iter_mut().for_each(|c| *c = Value::Null);
    }
    cells
}

/// Every column form is canonical. A column's body is the one written
/// here by hand from its values — so it decodes, re-encodes byte for byte
/// and is `encoded_size` long — and each non-canonical twin of it is
/// refused: its words as they are where packing is smaller, packed where
/// they are no larger, a width one wider, delta coding swapped for the
/// numeric form or the reverse, plain strings where a dictionary is
/// smaller and the reverse, two dictionary entries swapped and an unused
/// entry appended.
#[test]
fn every_column_form_is_canonical() {
    for_cases("every_column_form_is_canonical", 192, |rng| {
        let ty = cases::pick(rng, &[DataType::Int, DataType::Double, DataType::Str]);
        let n = match rng.gen_range(0..4) {
            0 => 1,
            _ if ty == DataType::Str => rng.gen_range(1..700),
            _ => rng.gen_range(1..150),
        };
        let cells = arb_canonical_column(rng, ty, n);
        let schema = Schema::new(vec![Field::new("c", ty)]).expect("one field");
        let rel = Relation::new(schema.clone(), cells.iter().map(|v| Row::new(vec![v.clone()])).collect())
            .expect("cells conform");
        let bytes = encode_relation(&rel);
        assert_eq!(encode_relation(&decode_relation(&bytes).expect("decode what we encoded")), bytes);
        assert_eq!(rel.encoded_size(), bytes.len());

        let head = schema.encoded_size() + 4;
        let with_body = |enc: u8, body: &[u8]| {
            let bitmap = match cells.iter().any(Value::is_null) {
                true => pack_bits(&cells.iter().map(|c| u64::from(!c.is_null())).collect::<Vec<_>>(), 1),
                false => vec![],
            };
            let nulls = if bitmap.is_empty() { 0 } else { 0x80 };
            [&bytes[..head], &[enc | nulls], &bitmap, body].concat()
        };
        let valid: Vec<&Value> = cells.iter().filter(|c| !c.is_null()).collect();
        let (want, twins): (Vec<u8>, Vec<(&str, Vec<u8>)>) = match ty {
            DataType::Str => {
                let strings: Vec<&str> = valid.iter().map(|v| v.as_str().expect("a string")).collect();
                let mut dict: Vec<&str> = Vec::new();
                let codes: Vec<u64> = (strings.iter())
                    .map(|s| match dict.iter().position(|d| d == s) {
                        Some(c) => c as u64,
                        None => {
                            dict.push(s);
                            dict.len() as u64 - 1
                        }
                    })
                    .collect();
                let (in_dict, plain) = (with_body(3, &dict_body(&dict, &codes)), with_body(4, &plain_body(&strings)));
                let mut twins = Vec::new();
                if dict.len() > 1 {
                    let swapped: Vec<u64> = codes.iter().map(|&c| [1, 0].get(c as usize).copied().unwrap_or(c)).collect();
                    let mut dict = dict.clone();
                    dict.swap(0, 1);
                    twins.push(("two dictionary entries swapped", with_body(3, &dict_body(&dict, &swapped))));
                }
                let unused = [dict.as_slice(), &["unused"]].concat();
                twins.push(("an unused entry appended", with_body(3, &dict_body(&unused, &codes))));
                match in_dict.len() < plain.len() {
                    true => (in_dict, [twins, vec![("plain where a dictionary is smaller", plain)]].concat()),
                    false => (plain, [twins, vec![("a dictionary where plain is no larger", in_dict)]].concat()),
                }
            }
            _ => {
                let words: Vec<i64> = (valid.iter())
                    .map(|v| match v {
                        Value::Int(i) => *i,
                        Value::Double(d) => d.to_bits() as i64,
                        _ => unreachable!("a numeric column"),
                    })
                    .collect();
                let numeric = with_body(1, &canonical_run(&words, false));
                let min = words.iter().min().copied().unwrap_or(0);
                let w = width(span_of(&words).unwrap_or(0));
                let mut twins = vec![];
                match numeric_width(words.len(), span_of(&words)) {
                    64 if !words.is_empty() && w < 64 => {
                        twins.push(("packed where the words are no larger", with_body(1, &numeric_run(&words, w, min))))
                    }
                    64 => {}
                    w => {
                        twins.push(("the words as they are where packing is smaller", with_body(1, &numeric_run(&words, 64, 0))));
                        if w < 63 {
                            twins.push(("a width one wider", with_body(1, &numeric_run(&words, w + 1, min))));
                        }
                    }
                }
                let sorted = ty == DataType::Int && valid.len() == n && n > 1 && words.windows(2).all(|p| p[0] <= p[1]);
                if !sorted {
                    (numeric, twins)
                } else {
                    let gaps: Vec<i64> = words.windows(2).map(|p| p[1].wrapping_sub(p[0])).collect();
                    let delta = with_body(0x41, &[words[0].to_le_bytes().as_slice(), &canonical_run(&gaps, true)].concat());
                    match delta.len() < numeric.len() {
                        true => (delta, [twins, vec![("the numeric form where delta coding is smaller", numeric)]].concat()),
                        false => (numeric, [twins, vec![("delta coding where it is no smaller", delta)]].concat()),
                    }
                }
            }
        };
        assert_eq!(bytes, want, "of\n{rel}");
        for (what, twin) in twins {
            assert!(decode_relation(&twin).is_err(), "{what} was accepted, of\n{rel}");
        }
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
