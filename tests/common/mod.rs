//! Helpers shared by the integration suites (`mod common;`).

use skalla::relation::{Relation, Value};

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
