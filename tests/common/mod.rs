//! Helpers shared by the integration suites (`mod common;`).

use skalla::datagen::cases::{self, Rng, StdRng};
use skalla::relation::{DataType, Relation, Row, Schema, Value};
use std::ops::Range;

/// Detail rows `(g, h, v)`: `g` in `groups`, three sub-groups `h`, small
/// measures `v`.
pub fn arb_rows(rng: &mut StdRng, groups: Range<i64>, len: Range<usize>) -> Vec<(i64, i64, i64)> {
    cases::vec(rng, len, |rng| {
        (rng.gen_range(groups.clone()), rng.gen_range(0..3), rng.gen_range(-20..20))
    })
}

/// The Int detail relation `t(g, h, v)` over `rows`.
pub fn detail_relation(rows: Vec<(i64, i64, i64)>) -> Relation {
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

/// The house invariant: `got` and `want` hold the same rows with the same
/// bits. Both are sorted on `key` first (arrival order is transport- and
/// schedule-dependent; an empty key compares the rows as they stand),
/// then compared cell by cell with `f64` by bit pattern — `Value` equality
/// would let `-0.0 == 0.0` and reassociated sums that round alike pass.
pub fn assert_bit_identical(got: &Relation, want: &Relation, key: &[&str], ctx: &str) {
    let got = got.sorted_by(key).expect("key columns sort");
    let want = want.sorted_by(key).expect("key columns sort");
    assert_eq!(got.len(), want.len(), "{ctx}: row count\n{got}\nvs\n{want}");
    for (i, (g, w)) in got.rows().iter().zip(want.rows()).enumerate() {
        for (gv, wv) in g.values().iter().zip(w.values()) {
            let same = match (gv, wv) {
                (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
                _ => gv == wv,
            };
            assert!(same, "{ctx}: row {i}: {gv:?} vs {wv:?}\nrow {g:?}\nvs  {w:?}");
        }
    }
}
