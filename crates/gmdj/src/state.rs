//! Typed accumulator states: the one statement of what an aggregate's
//! physical slots hold and how they update, merge and finalize.
//!
//! An aggregate's accumulators over `n` positions live in typed arrays
//! (`Vec<i64>`, `Vec<f64>`, `Vec<bool>` has-flags, and shared strings for
//! a string MIN/MAX). A has-flag says the slot holds a value (SUM, MIN and
//! MAX are NULL over an empty range): a stored number counts only where
//! its flag is set, and the first value is *taken*, not added, so `-0.0`
//! and NaN payloads survive. A column is of its declared type, so every
//! aggregate a plan can hold has a typed state, and columns a typed state
//! cannot take (malformed remote input) are an error.
//!
//! The kernel ([`crate::columnar`]) keeps one state per aggregate over a
//! morsel's base positions. The coordinator keeps [`AccStates`] over its
//! merge tree's slots: it absorbs a site's frame columns into them and
//! merges slot ranges pairwise; `finalize_physical` and the cube's
//! roll-up absorb and finalize through them too. All merge through the
//! `fold_*` functions below. Only the test suites' reference restates
//! these semantics, over `Value`s and apart from the engine.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::agg::{AccLayout, AggFunc, AggSpec};
use skalla_relation::{
    f64_add, total_f64_cmp, Bitmap, Column, ColumnBuilder, Columns, DataType, Error, Result, Value,
};
use std::cmp::Ordering;
use std::sync::Arc;

/// Which typed state an aggregate keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Count,
    SumI,
    SumF,
    MinMaxI,
    MinMaxF,
    MinMaxS,
    AvgI,
    AvgF,
    Var,
}

impl Kind {
    /// The state of `spec` whose physical slots are declared `types`, if
    /// a plan can type them so.
    fn of_physical(spec: &AggSpec, types: &[DataType]) -> Result<Kind> {
        use DataType::{Double, Int, Str};
        Ok(match (spec.func, types) {
            (AggFunc::Count, [Int]) => Kind::Count,
            (AggFunc::Sum, [Int]) => Kind::SumI,
            (AggFunc::Sum, [Double]) => Kind::SumF,
            (AggFunc::Min | AggFunc::Max, [Int]) => Kind::MinMaxI,
            (AggFunc::Min | AggFunc::Max, [Double]) => Kind::MinMaxF,
            (AggFunc::Min | AggFunc::Max, [Str]) => Kind::MinMaxS,
            (AggFunc::Avg, [Int, Int]) => Kind::AvgI,
            (AggFunc::Avg, [Double, Int]) => Kind::AvgF,
            (AggFunc::Var | AggFunc::StdDev, [Double, Double, Int]) => Kind::Var,
            _ => {
                return Err(Error::Execution(format!(
                    "{spec} has no accumulators of types {types:?}"
                )))
            }
        })
    }
}

/// One aggregate's accumulators, one slot per position.
#[derive(Debug)]
pub(crate) enum AggState {
    /// `COUNT` slots.
    Count(Vec<i64>),
    /// Int SUM.
    SumI { s: Vec<i64>, has: Vec<bool> },
    /// Double SUM.
    SumF { s: Vec<f64>, has: Vec<bool> },
    /// Int MIN/MAX.
    MinMaxI { m: Vec<i64>, has: Vec<bool> },
    /// Double MIN/MAX (total order, NaN greatest).
    MinMaxF { m: Vec<f64>, has: Vec<bool> },
    /// String MIN/MAX (`None`: no value yet).
    MinMaxS { m: Vec<Option<Arc<str>>> },
    /// Int AVG: wrapping sum + count (count > 0 ⇔ sum present).
    AvgI { s: Vec<i64>, cnt: Vec<i64> },
    /// Double AVG.
    AvgF { s: Vec<f64>, cnt: Vec<i64> },
    /// VAR/STDDEV: sum, sum of squares, count — all start at zero and
    /// accumulate unconditionally, like `add_f64`.
    Var {
        s: Vec<f64>,
        sq: Vec<f64>,
        cnt: Vec<i64>,
    },
}

/// Fold `v` into a SUM slot (`has`: the slot holds a value): the first
/// value is taken, later ones add, wrapping like `eval_arith`.
#[inline]
pub(crate) fn fold_sum_i(acc: &mut i64, v: i64, has: bool) {
    *acc = if has { acc.wrapping_add(v) } else { v };
}

/// [`fold_sum_i`] for doubles.
#[inline]
pub(crate) fn fold_sum_f(acc: &mut f64, v: f64, has: bool) {
    *acc = if has { f64_add(*acc, v) } else { v };
}

/// Fold `v` into an Int MIN (`max` false) or MAX slot.
#[inline]
pub(crate) fn fold_min_max_i(acc: &mut i64, v: i64, has: bool, max: bool) {
    let better = if max { v > *acc } else { v < *acc };
    if !has || better {
        *acc = v;
    }
}

/// Fold `v` into a Double MIN or MAX slot under [`Value`]'s total order
/// (NaN greatest), with the doubles it holds equal — `-0.0` and `0.0`,
/// NaNs of other payloads — told apart by their bits ([`f64::total_cmp`]):
/// which one a slot keeps never depends on the order it meets them, so a
/// MIN or MAX is the same bits however sites, morsels or a cube's groups
/// are merged.
#[inline]
pub(crate) fn fold_min_max_f(acc: &mut f64, v: f64, has: bool, max: bool) {
    let want = if max {
        Ordering::Greater
    } else {
        Ordering::Less
    };
    if !has || total_f64_cmp(v, *acc).then_with(|| v.total_cmp(acc)) == want {
        *acc = v;
    }
}

/// Fold `v` into a string MIN (`max` false) or MAX slot.
#[inline]
pub(crate) fn fold_min_max_s(acc: &mut Option<Arc<str>>, v: &Arc<str>, max: bool) {
    let better = match acc {
        None => true,
        Some(a) if max => **v > **a,
        Some(a) => **v < **a,
    };
    if better {
        *acc = Some(Arc::clone(v));
    }
}

/// Merge an AVG sub-aggregate `(s, c)` into `(acc, cnt)`.
#[inline]
fn fold_avg<T: Copy>(acc: &mut T, cnt: &mut i64, s: T, c: i64, fold: impl Fn(&mut T, T, bool)) {
    if c > 0 {
        fold(acc, s, *cnt > 0);
    }
    *cnt += c;
}

/// A population VAR (or, with `stddev`, STDDEV) from its merged
/// sub-aggregate — sum, sum of squares and a non-zero count: E[x²] − E[x]²,
/// clamped against rounding noise.
pub(crate) fn finalize_var(sum: f64, sumsq: f64, cnt: i64, stddev: bool) -> f64 {
    let n = cnt as f64;
    let var = (sumsq / n - (sum / n) * (sum / n)).max(0.0);
    if stddev {
        var.sqrt()
    } else {
        var
    }
}

/// Merge a VAR sub-aggregate into `(s, sq, cnt)`.
#[inline]
fn fold_var(acc: (&mut f64, &mut f64, &mut i64), s: f64, sq: f64, c: i64) {
    *acc.0 = f64_add(*acc.0, s);
    *acc.1 = f64_add(*acc.1, sq);
    *acc.2 += c;
}

impl AggState {
    /// `n` fresh slots of `kind`.
    pub(crate) fn new(kind: Kind, n: usize) -> AggState {
        let (f, i, has) = (|| vec![0.0; n], || vec![0; n], || vec![false; n]);
        match kind {
            Kind::Count => AggState::Count(i()),
            Kind::SumI => AggState::SumI { s: i(), has: has() },
            Kind::SumF => AggState::SumF { s: f(), has: has() },
            Kind::MinMaxI => AggState::MinMaxI { m: i(), has: has() },
            Kind::MinMaxF => AggState::MinMaxF { m: f(), has: has() },
            Kind::MinMaxS => AggState::MinMaxS { m: vec![None; n] },
            Kind::AvgI => AggState::AvgI { s: i(), cnt: i() },
            Kind::AvgF => AggState::AvgF { s: f(), cnt: i() },
            Kind::Var => AggState::Var { s: f(), sq: f(), cnt: i() },
        }
    }

    /// Make every slot fresh again, reusing the arrays.
    pub(crate) fn reset(&mut self) {
        match self {
            AggState::Count(c) => c.fill(0),
            AggState::SumI { has, .. }
            | AggState::SumF { has, .. }
            | AggState::MinMaxI { has, .. }
            | AggState::MinMaxF { has, .. } => has.fill(false),
            AggState::MinMaxS { m } => m.fill(None),
            AggState::AvgI { cnt, .. } | AggState::AvgF { cnt, .. } => cnt.fill(0),
            AggState::Var { s, sq, cnt } => {
                s.fill(0.0);
                sq.fill(0.0);
                cnt.fill(0);
            }
        }
    }

    /// Merge a later morsel's state into this one, slot by slot.
    pub(crate) fn merge(&mut self, src: &AggState, spec: &AggSpec) -> Result<()> {
        let max = spec.func == AggFunc::Max;
        match (self, src) {
            (AggState::Count(d), AggState::Count(s)) => {
                d.iter_mut().zip(s).for_each(|(d, s)| *d += *s);
            }
            (AggState::SumI { s: ds, has: dh }, AggState::SumI { s: ss, has: sh }) => {
                merge_valued(ds, dh, ss, sh, fold_sum_i);
            }
            (AggState::SumF { s: ds, has: dh }, AggState::SumF { s: ss, has: sh }) => {
                merge_valued(ds, dh, ss, sh, fold_sum_f);
            }
            (AggState::MinMaxI { m: dm, has: dh }, AggState::MinMaxI { m: sm, has: sh }) => {
                merge_valued(dm, dh, sm, sh, |a, v, h| fold_min_max_i(a, v, h, max));
            }
            (AggState::MinMaxF { m: dm, has: dh }, AggState::MinMaxF { m: sm, has: sh }) => {
                merge_valued(dm, dh, sm, sh, |a, v, h| fold_min_max_f(a, v, h, max));
            }
            (AggState::MinMaxS { m: dm }, AggState::MinMaxS { m: sm }) => {
                for (d, s) in dm.iter_mut().zip(sm) {
                    if let Some(s) = s {
                        fold_min_max_s(d, s, max);
                    }
                }
            }
            (AggState::AvgI { s: ds, cnt: dc }, AggState::AvgI { s: ss, cnt: sc }) => {
                for p in 0..ds.len() {
                    fold_avg(&mut ds[p], &mut dc[p], ss[p], sc[p], fold_sum_i);
                }
            }
            (AggState::AvgF { s: ds, cnt: dc }, AggState::AvgF { s: ss, cnt: sc }) => {
                for p in 0..ds.len() {
                    fold_avg(&mut ds[p], &mut dc[p], ss[p], sc[p], fold_sum_f);
                }
            }
            (
                AggState::Var {
                    s: ds,
                    sq: dq,
                    cnt: dc,
                },
                AggState::Var {
                    s: ss,
                    sq: sq2,
                    cnt: sc,
                },
            ) => {
                for p in 0..ds.len() {
                    fold_var((&mut ds[p], &mut dq[p], &mut dc[p]), ss[p], sq2[p], sc[p]);
                }
            }
            _ => {
                return Err(Error::Execution(
                    "merging accumulator states of two kinds".into(),
                ))
            }
        }
        Ok(())
    }

    /// Slots `at`'s physical columns, in slot order, under
    /// [`ColumnBuilder`]'s rule: written straight from the arrays, the
    /// has-flags (or `cnt > 0`) the validity.
    pub(crate) fn physical_columns(&self, at: &[u32], out: &mut Vec<Arc<Column>>) {
        let mut put = |c: Column| out.push(Arc::new(c));
        let all = |_: usize| true;
        match self {
            AggState::Count(c) => put(ints(pick(c, at, all), None)),
            AggState::SumI { s, has } | AggState::MinMaxI { m: s, has } => {
                let valid = |p: usize| has[p];
                put(ints(pick(s, at, valid), validity(at, valid)));
            }
            AggState::SumF { s, has } | AggState::MinMaxF { m: s, has } => {
                let valid = |p: usize| has[p];
                put(doubles(pick(s, at, valid), validity(at, valid)));
            }
            AggState::MinMaxS { m } => put(strs(m, at, all)),
            AggState::AvgI { s, cnt } => {
                let valid = |p: usize| cnt[p] > 0;
                put(ints(pick(s, at, valid), validity(at, valid)));
                put(ints(pick(cnt, at, all), None));
            }
            AggState::AvgF { s, cnt } => {
                let valid = |p: usize| cnt[p] > 0;
                put(doubles(pick(s, at, valid), validity(at, valid)));
                put(ints(pick(cnt, at, all), None));
            }
            AggState::Var { s, sq, cnt } => {
                put(doubles(pick(s, at, all), None));
                put(doubles(pick(sq, at, all), None));
                put(ints(pick(cnt, at, all), None));
            }
        }
    }

    /// Slots `at`'s logical values as one column, slot `p` finalized where
    /// `present(p)` and X_init finalized elsewhere, column-wise: COUNT,
    /// SUM, MIN and MAX as they are, AVG as sum ÷ count and VAR/STDDEV
    /// through [`finalize_var`], NULL over no value.
    fn finalize_column(&self, spec: &AggSpec, at: &[u32], present: &[bool]) -> Column {
        let on = |p: usize| present[p];
        match self {
            // X_init: a count of 0, and NULL for every other aggregate.
            AggState::Count(c) => ints(pick(c, at, on), None),
            AggState::SumI { s, has } | AggState::MinMaxI { m: s, has } => {
                let valid = |p: usize| present[p] && has[p];
                ints(pick(s, at, valid), validity(at, valid))
            }
            AggState::SumF { s, has } | AggState::MinMaxF { m: s, has } => {
                let valid = |p: usize| present[p] && has[p];
                doubles(pick(s, at, valid), validity(at, valid))
            }
            AggState::MinMaxS { m } => strs(m, at, on),
            AggState::AvgI { s, cnt } => {
                let valid = |p: usize| present[p] && cnt[p] != 0;
                let avg = |p: usize| s[p] as f64 / cnt[p] as f64;
                doubles(map(at, valid, avg), validity(at, valid))
            }
            AggState::AvgF { s, cnt } => {
                let valid = |p: usize| present[p] && cnt[p] != 0;
                let avg = |p: usize| s[p] / cnt[p] as f64;
                doubles(map(at, valid, avg), validity(at, valid))
            }
            AggState::Var { s, sq, cnt } => {
                let valid = |p: usize| present[p] && cnt[p] != 0;
                let stddev = spec.func == AggFunc::StdDev;
                let var = |p: usize| finalize_var(s[p], sq[p], cnt[p], stddev);
                doubles(map(at, valid, var), validity(at, valid))
            }
        }
    }

    /// Append fresh slots up to `n` in all, in place: the arrays grow
    /// as a `Vec` does, so adding a leaf rarely allocates.
    fn resize(&mut self, n: usize) {
        match self {
            AggState::Count(c) => c.resize(n, 0),
            AggState::SumI { s, has } | AggState::MinMaxI { m: s, has } => {
                s.resize(n, 0);
                has.resize(n, false);
            }
            AggState::SumF { s, has } | AggState::MinMaxF { m: s, has } => {
                s.resize(n, 0.0);
                has.resize(n, false);
            }
            AggState::MinMaxS { m } => m.resize(n, None),
            AggState::AvgI { s, cnt } => {
                s.resize(n, 0);
                cnt.resize(n, 0);
            }
            AggState::AvgF { s, cnt } => {
                s.resize(n, 0.0);
                cnt.resize(n, 0);
            }
            AggState::Var { s, sq, cnt } => {
                s.resize(n, 0.0);
                sq.resize(n, 0.0);
                cnt.resize(n, 0);
            }
        }
    }


    /// Absorb rows of the physical columns `cols`: row `i` is loaded into
    /// slot `slots[i]` where `first[i]`, and merged into it otherwise, in
    /// row order. Columns that are not this state's layout — a type, a
    /// `NULL` or an AVG count it cannot hold — are refused, with nothing
    /// changed.
    fn absorb(&mut self, spec: &AggSpec, cols: &[&Column], slots: &[usize], first: &[bool]) -> Result<()> {
        let max = spec.func == AggFunc::Max;
        let rows = slots
            .iter()
            .zip(first)
            .enumerate()
            .map(|(i, (&p, &f))| (i, p, f));
        match (self, cols) {
            (AggState::Count(c), [col]) => {
                let Some(data) = int_no_nulls(col) else {
                    return Err(malformed(spec));
                };
                for (i, p, first) in rows {
                    c[p] = if first { data[i] } else { c[p] + data[i] };
                }
            }
            (AggState::SumI { s, has }, [Column::Int { data, valid }]) => {
                absorb_valued(s, has, data, valid.as_ref(), rows, fold_sum_i);
            }
            (AggState::SumF { s, has }, [Column::Double { data, valid }]) => {
                absorb_valued(s, has, data, valid.as_ref(), rows, fold_sum_f);
            }
            (AggState::MinMaxI { m, has }, [Column::Int { data, valid }]) => {
                let fold = |a: &mut i64, v, h| fold_min_max_i(a, v, h, max);
                absorb_valued(m, has, data, valid.as_ref(), rows, fold);
            }
            (AggState::MinMaxF { m, has }, [Column::Double { data, valid }]) => {
                let fold = |a: &mut f64, v, h| fold_min_max_f(a, v, h, max);
                absorb_valued(m, has, data, valid.as_ref(), rows, fold);
            }
            (AggState::MinMaxS { m }, [Column::Str { codes, dict, valid }]) => {
                for (i, p, first) in rows {
                    let v = valid.as_ref().is_none_or(|b| b.get(i)).then(|| &dict[codes[i] as usize]);
                    match v {
                        _ if first => m[p] = v.cloned(),
                        Some(v) => fold_min_max_s(&mut m[p], v, max),
                        None => {}
                    }
                }
            }
            (AggState::AvgI { s, cnt }, [Column::Int { data, valid }, c]) => {
                let Some(c) = avg_counts(valid.as_ref(), c) else {
                    return Err(malformed(spec));
                };
                absorb_avg(s, cnt, data, c, rows, fold_sum_i);
            }
            (AggState::AvgF { s, cnt }, [Column::Double { data, valid }, c]) => {
                let Some(c) = avg_counts(valid.as_ref(), c) else {
                    return Err(malformed(spec));
                };
                absorb_avg(s, cnt, data, c, rows, fold_sum_f);
            }
            (AggState::Var { s, sq, cnt }, [a, b, c]) => {
                let (Some(a), Some(b), Some(c)) =
                    (f64_no_nulls(a), f64_no_nulls(b), int_no_nulls(c))
                else {
                    return Err(malformed(spec));
                };
                for (i, p, first) in rows {
                    if first {
                        (s[p], sq[p], cnt[p]) = (a[i], b[i], c[i]);
                    } else {
                        fold_var((&mut s[p], &mut sq[p], &mut cnt[p]), a[i], b[i], c[i]);
                    }
                }
            }
            _ => return Err(malformed(spec)),
        }
        Ok(())
    }

    /// The merge tree's step over two runs of `n` slots, `dst` before
    /// `src`: where both are present (`dp`, `sp`) `src` merges into
    /// `dst`, where only `src` is it moves across.
    fn combine(
        &mut self,
        spec: &AggSpec,
        dst: usize,
        src: usize,
        n: usize,
        dp: &[bool],
        sp: &[bool],
    ) {
        let max = spec.func == AggFunc::Max;
        let steps = (0..n).filter(|&i| sp[i]).map(|i| (i, dp[i]));
        match self {
            AggState::Count(c) => {
                let (d, s) = runs(c, dst, src, n);
                for (i, both) in steps {
                    d[i] = if both { d[i] + s[i] } else { s[i] };
                }
            }
            AggState::SumI { s, has } => combine_valued(s, has, (dst, src, n), steps, fold_sum_i),
            AggState::SumF { s, has } => combine_valued(s, has, (dst, src, n), steps, fold_sum_f),
            AggState::MinMaxI { m, has } => {
                let fold = |a: &mut i64, v, h| fold_min_max_i(a, v, h, max);
                combine_valued(m, has, (dst, src, n), steps, fold);
            }
            AggState::MinMaxF { m, has } => {
                let fold = |a: &mut f64, v, h| fold_min_max_f(a, v, h, max);
                combine_valued(m, has, (dst, src, n), steps, fold);
            }
            AggState::MinMaxS { m } => {
                let (d, s) = runs(m, dst, src, n);
                for (i, both) in steps {
                    match (&s[i], both) {
                        (Some(v), true) => fold_min_max_s(&mut d[i], v, max),
                        (None, true) => {}
                        (v, false) => d[i].clone_from(v),
                    }
                }
            }
            AggState::AvgI { s, cnt } => combine_avg(s, cnt, (dst, src, n), steps, fold_sum_i),
            AggState::AvgF { s, cnt } => combine_avg(s, cnt, (dst, src, n), steps, fold_sum_f),
            AggState::Var { s, sq, cnt } => {
                let (ds, ss) = runs(s, dst, src, n);
                let (dq, sq) = runs(sq, dst, src, n);
                let (dc, sc) = runs(cnt, dst, src, n);
                for (i, both) in steps {
                    if both {
                        fold_var((&mut ds[i], &mut dq[i], &mut dc[i]), ss[i], sq[i], sc[i]);
                    } else {
                        (ds[i], dq[i], dc[i]) = (ss[i], sq[i], sc[i]);
                    }
                }
            }
        }
    }
}

/// The error for physical columns a typed state cannot take.
fn malformed(spec: &AggSpec) -> Error {
    Error::Execution(format!("malformed accumulator columns for {spec}"))
}

/// The SUM/MIN/MAX merge shape over whole arrays: each present source
/// slot folds into its destination slot.
fn merge_valued<T: Copy>(
    d: &mut [T],
    dh: &mut [bool],
    s: &[T],
    sh: &[bool],
    fold: impl Fn(&mut T, T, bool),
) {
    for p in 0..d.len() {
        if sh[p] {
            fold(&mut d[p], s[p], dh[p]);
            dh[p] = true;
        }
    }
}

/// [`AggState::absorb`] for the SUM/MIN/MAX shape: a `NULL` row loads an
/// absent slot and merges as nothing.
fn absorb_valued<T: Copy>(
    acc: &mut [T],
    has: &mut [bool],
    data: &[T],
    valid: Option<&Bitmap>,
    rows: impl Iterator<Item = (usize, usize, bool)>,
    fold: impl Fn(&mut T, T, bool),
) {
    for (i, p, first) in rows {
        let ok = valid.is_none_or(|b| b.get(i));
        if first {
            (acc[p], has[p]) = (data[i], ok);
        } else if ok {
            fold(&mut acc[p], data[i], has[p]);
            has[p] = true;
        }
    }
}

/// [`AggState::absorb`] for AVG: the sum half is present exactly where the
/// count is positive ([`avg_counts`] checked that of the rows).
fn absorb_avg<T: Copy>(
    acc: &mut [T],
    cnt: &mut [i64],
    data: &[T],
    c: &[i64],
    rows: impl Iterator<Item = (usize, usize, bool)>,
    fold: impl Fn(&mut T, T, bool),
) {
    for (i, p, first) in rows {
        if first {
            (acc[p], cnt[p]) = (data[i], c[i]);
        } else {
            fold_avg(&mut acc[p], &mut cnt[p], data[i], c[i], &fold);
        }
    }
}

/// [`AggState::combine`] for the SUM/MIN/MAX shape.
fn combine_valued<T: Copy>(
    acc: &mut [T],
    has: &mut [bool],
    (dst, src, n): (usize, usize, usize),
    steps: impl Iterator<Item = (usize, bool)>,
    fold: impl Fn(&mut T, T, bool),
) {
    let (d, s) = runs(acc, dst, src, n);
    let (dh, sh) = runs(has, dst, src, n);
    for (i, both) in steps {
        if both {
            if sh[i] {
                fold(&mut d[i], s[i], dh[i]);
                dh[i] = true;
            }
        } else {
            (d[i], dh[i]) = (s[i], sh[i]);
        }
    }
}

/// [`AggState::combine`] for AVG.
fn combine_avg<T: Copy>(
    acc: &mut [T],
    cnt: &mut [i64],
    (dst, src, n): (usize, usize, usize),
    steps: impl Iterator<Item = (usize, bool)>,
    fold: impl Fn(&mut T, T, bool),
) {
    let (d, s) = runs(acc, dst, src, n);
    let (dc, sc) = runs(cnt, dst, src, n);
    for (i, both) in steps {
        if both {
            fold_avg(&mut d[i], &mut dc[i], s[i], sc[i], &fold);
        } else {
            (d[i], dc[i]) = (s[i], sc[i]);
        }
    }
}

/// The runs `dst..dst + n` (mutable) and `src..src + n` of `v`, `dst`
/// ending at or before `src`.
fn runs<T>(v: &mut [T], dst: usize, src: usize, n: usize) -> (&mut [T], &[T]) {
    debug_assert!(dst + n <= src);
    let (head, tail) = v.split_at_mut(src);
    (&mut head[dst..dst + n], &tail[..n])
}

/// `v` at slots `at`, 0 where `valid` fails: a typed column's vector.
fn pick<T: Copy + Default>(v: &[T], at: &[u32], valid: impl Fn(usize) -> bool) -> Vec<T> {
    map(at, valid, |p| v[p])
}

/// `f` of slots `at`, 0 where `valid` fails.
fn map<T: Default>(at: &[u32], valid: impl Fn(usize) -> bool, f: impl Fn(usize) -> T) -> Vec<T> {
    at.iter()
        .map(|&p| {
            let p = p as usize;
            if valid(p) {
                f(p)
            } else {
                T::default()
            }
        })
        .collect()
}

/// The validity of slots `at` (`None` when every one is valid).
fn validity(at: &[u32], valid: impl Fn(usize) -> bool) -> Option<Bitmap> {
    Bitmap::of(at.len(), |k| valid(at[k] as usize))
}

/// The `Int` column of `data`, `NULL` where `valid` is clear.
fn ints(data: Vec<i64>, valid: Option<Bitmap>) -> Column {
    Column::Int { data, valid }
}

/// The `Double` column of `data`, `NULL` where `valid` is clear.
fn doubles(data: Vec<f64>, valid: Option<Bitmap>) -> Column {
    Column::Double { data, valid }
}

/// The `Str` column of slots `at` of `m`, `NULL` where a slot holds no
/// string or `valid` fails.
fn strs(m: &[Option<Arc<str>>], at: &[u32], valid: impl Fn(usize) -> bool) -> Column {
    let mut b = ColumnBuilder::new(DataType::Str, at.len());
    for &p in at {
        let p = p as usize;
        b.push(&match &m[p] {
            Some(s) if valid(p) => Value::Str(Arc::clone(s)),
            _ => Value::Null,
        });
    }
    b.finish()
}

/// An `Int` column's values, if it holds no `NULL`.
fn int_no_nulls(col: &Column) -> Option<&[i64]> {
    match col {
        Column::Int { data, valid } if valid.as_ref().is_none_or(Bitmap::all_set) => Some(data),
        _ => None,
    }
}

/// A `Double` column's values, if it holds no `NULL`.
fn f64_no_nulls(col: &Column) -> Option<&[f64]> {
    match col {
        Column::Double { data, valid } if valid.as_ref().is_none_or(Bitmap::all_set) => Some(data),
        _ => None,
    }
}

/// An AVG count column, if its rows keep the typed state's invariant
/// against the sum column's validity `sums`: no count is negative, and a
/// sum is present exactly where its count is positive.
fn avg_counts<'a>(sums: Option<&Bitmap>, col: &'a Column) -> Option<&'a [i64]> {
    let c = int_no_nulls(col)?;
    let ok = c
        .iter()
        .enumerate()
        .all(|(i, &n)| n >= 0 && (n > 0) == sums.is_none_or(|b| b.get(i)));
    ok.then_some(c)
}

/// The typed accumulators of every aggregate of one [`AccLayout`], over
/// `len` positions: what the coordinator merges its sites' sub-aggregates
/// in, and what finalizing and the cube's roll-up go through. Position `p`
/// of every aggregate together is one physical row of the layout
/// ([`AccStates::physical_columns`]).
#[derive(Debug)]
pub struct AccStates {
    layout: AccLayout,
    states: Vec<AggState>,
}

impl AccStates {
    /// `n` fresh positions of `layout`, each aggregate typed after the
    /// declared types of its physical slots (`types`, one per slot, in
    /// layout order). Types no plan gives an aggregate are refused.
    pub fn new(layout: &AccLayout, types: &[DataType], n: usize) -> Result<AccStates> {
        let states = layout
            .entries()
            .iter()
            .map(|(_, spec, off)| {
                let slots = types.get(*off..off + spec.acc_width()).unwrap_or(&[]);
                Ok(AggState::new(Kind::of_physical(spec, slots)?, n))
            })
            .collect::<Result<_>>()?;
        Ok(AccStates {
            layout: layout.clone(),
            states,
        })
    }

    fn specs(&mut self) -> impl Iterator<Item = (&AggSpec, usize, &mut AggState)> {
        let entries = self.layout.entries().iter();
        entries
            .zip(&mut self.states)
            .map(|((_, spec, off), st)| (spec, *off, st))
    }

    /// Append fresh positions up to `n` in all.
    pub fn resize(&mut self, n: usize) {
        self.states.iter_mut().for_each(|st| st.resize(n));
    }

    /// Absorb rows of the physical columns of `cols` that start at column
    /// `from` (one per slot, in layout order): row `i` is copied into
    /// position `slots[i]` where `first[i]`, and merged into it otherwise,
    /// in row order. Columns that do not have an aggregate's typed layout
    /// — a type, a `NULL` or an AVG count it cannot hold — are malformed
    /// remote input, refused with [`Error::Execution`].
    pub fn absorb(
        &mut self,
        cols: &Columns,
        from: usize,
        slots: &[usize],
        first: &[bool],
    ) -> Result<()> {
        for (spec, off, st) in self.specs() {
            let w = spec.acc_width();
            // At most three slots an aggregate: a stack array, so an answer
            // allocates nothing here.
            let mut slot_cols = [cols.col(from + off); 3];
            for (k, c) in slot_cols.iter_mut().enumerate().take(w) {
                *c = cols.col(from + off + k);
            }
            st.absorb(spec, &slot_cols[..w], slots, first)?;
        }
        Ok(())
    }

    /// One merge-tree step between the runs of `n` positions at `dst` and
    /// at `src` (`dst + n <= src`), present where `dst_present` /
    /// `src_present` say: where both are, `src` merges into `dst`
    /// (`dst` is the left operand); where only
    /// `src` is, it moves across.
    pub fn combine(
        &mut self,
        dst: usize,
        src: usize,
        n: usize,
        dst_present: &[bool],
        src_present: &[bool],
    ) {
        for (spec, _, st) in self.specs() {
            st.combine(spec, dst, src, n, dst_present, src_present);
        }
    }

    /// Positions `at`'s physical columns, in layout order, one per slot,
    /// built as the kernel builds a site's.
    pub fn physical_columns(&self, at: &[u32]) -> Vec<Arc<Column>> {
        let mut out = Vec::with_capacity(self.layout.width());
        self.states.iter().for_each(|st| st.physical_columns(at, &mut out));
        out
    }

    /// Finalize positions `at` into the logical columns, one per aggregate
    /// (in layout order): position `p`'s accumulators where `present[p]`,
    /// X_init elsewhere, as columns under [`ColumnBuilder`]'s rule.
    pub fn finalize_columns(&self, at: &[u32], present: &[bool]) -> Vec<Arc<Column>> {
        let entries = self.layout.entries().iter().zip(&self.states);
        entries
            .map(|((_, spec, _), st)| Arc::new(st.finalize_column(spec, at, present)))
            .collect()
    }
}
