//! Typed accumulator states: the one typed mirror of [`AggSpec::merge`].
//!
//! An aggregate's accumulators over `n` positions live in typed arrays
//! (`Vec<i64>`, `Vec<f64>`, `Vec<bool>` has-flags) instead of one
//! `Vec<Value>` per position. The has-flags mirror the `Value` path's
//! `Null` accumulator states: a stored number counts only where its flag
//! is set, and the first value is *taken*, not added, so `-0.0` and NaN
//! payloads survive exactly as they do through `AggSpec::merge`. Every
//! aggregate the typed arrays cannot hold (string MIN/MAX, computed or
//! mixed-type inputs, physical slots of an unexpected type) keeps
//! `Value` accumulators and merges through [`AggSpec::merge`] itself.
//!
//! The kernel ([`crate::columnar`]) keeps one state per aggregate over a
//! morsel's base positions. The coordinator keeps [`AccStates`] over its
//! merge tree's slots: it absorbs a site's frame columns into them and
//! merges slot ranges pairwise. Both merge through the `fold_*` functions
//! below, which are the only statement of the typed merge.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::agg::{finalize_var, AccLayout, AggFunc, AggSpec};
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
    AvgI,
    AvgF,
    Var,
    Fallback,
}

impl Kind {
    /// The state of `spec` whose physical slots are declared `types`: a
    /// typed one where the slots hold the numbers it keeps, the `Value`
    /// fallback otherwise.
    fn of_physical(spec: &AggSpec, types: &[DataType]) -> Kind {
        use DataType::{Double, Int};
        match (spec.func, types) {
            (AggFunc::Count, [Int]) => Kind::Count,
            (AggFunc::Sum, [Int]) => Kind::SumI,
            (AggFunc::Sum, [Double]) => Kind::SumF,
            (AggFunc::Min | AggFunc::Max, [Int]) => Kind::MinMaxI,
            (AggFunc::Min | AggFunc::Max, [Double]) => Kind::MinMaxF,
            (AggFunc::Avg, [Int, Int]) => Kind::AvgI,
            (AggFunc::Avg, [Double, Int]) => Kind::AvgF,
            (AggFunc::Var | AggFunc::StdDev, [Double, Double, Int]) => Kind::Var,
            _ => Kind::Fallback,
        }
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
    /// `Value` accumulators, `spec.acc_width()` per position.
    Fallback(Vec<Value>),
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

/// Fold `v` into a Double MIN or MAX slot under the total order (NaN
/// greatest) that [`Value`]'s `Ord` gives `MIN`/`MAX`.
#[inline]
pub(crate) fn fold_min_max_f(acc: &mut f64, v: f64, has: bool, max: bool) {
    let want = if max {
        Ordering::Greater
    } else {
        Ordering::Less
    };
    if !has || total_f64_cmp(v, *acc) == want {
        *acc = v;
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

/// Merge a VAR sub-aggregate into `(s, sq, cnt)`.
#[inline]
fn fold_var(acc: (&mut f64, &mut f64, &mut i64), s: f64, sq: f64, c: i64) {
    *acc.0 = f64_add(*acc.0, s);
    *acc.1 = f64_add(*acc.1, sq);
    *acc.2 += c;
}

impl AggState {
    /// `n` fresh slots of `kind`.
    pub(crate) fn new(kind: Kind, spec: &AggSpec, n: usize) -> AggState {
        let mut st = match kind {
            Kind::Count => AggState::Count(Vec::new()),
            Kind::SumI => AggState::SumI {
                s: Vec::new(),
                has: Vec::new(),
            },
            Kind::SumF => AggState::SumF {
                s: Vec::new(),
                has: Vec::new(),
            },
            Kind::MinMaxI => AggState::MinMaxI {
                m: Vec::new(),
                has: Vec::new(),
            },
            Kind::MinMaxF => AggState::MinMaxF {
                m: Vec::new(),
                has: Vec::new(),
            },
            Kind::AvgI => AggState::AvgI {
                s: Vec::new(),
                cnt: Vec::new(),
            },
            Kind::AvgF => AggState::AvgF {
                s: Vec::new(),
                cnt: Vec::new(),
            },
            Kind::Var => AggState::Var {
                s: Vec::new(),
                sq: Vec::new(),
                cnt: Vec::new(),
            },
            Kind::Fallback => AggState::Fallback(Vec::new()),
        };
        st.resize(spec, n);
        st
    }

    /// Number of slots.
    fn len(&self, spec: &AggSpec) -> usize {
        match self {
            AggState::Count(c) => c.len(),
            AggState::SumI { has, .. }
            | AggState::SumF { has, .. }
            | AggState::MinMaxI { has, .. }
            | AggState::MinMaxF { has, .. } => has.len(),
            AggState::AvgI { cnt, .. } | AggState::AvgF { cnt, .. } | AggState::Var { cnt, .. } => {
                cnt.len()
            }
            AggState::Fallback(vals) => vals.len() / spec.acc_width(),
        }
    }

    /// Make every slot fresh again, reusing the arrays.
    pub(crate) fn reset(&mut self, spec: &AggSpec) {
        match self {
            AggState::Count(c) => c.fill(0),
            AggState::SumI { has, .. }
            | AggState::SumF { has, .. }
            | AggState::MinMaxI { has, .. }
            | AggState::MinMaxF { has, .. } => has.fill(false),
            AggState::AvgI { cnt, .. } | AggState::AvgF { cnt, .. } => cnt.fill(0),
            AggState::Var { s, sq, cnt } => {
                s.fill(0.0);
                sq.fill(0.0);
                cnt.fill(0);
            }
            AggState::Fallback(vals) => {
                let n = vals.len() / spec.acc_width();
                vals.clear();
                for _ in 0..n {
                    spec.init_acc(vals);
                }
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
            (AggState::Fallback(d), AggState::Fallback(s)) => {
                let w = spec.acc_width();
                for (d, s) in d.chunks_mut(w).zip(s.chunks(w)) {
                    spec.merge(d, s)?;
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

    /// Append slot `pos`'s physical values — exactly what the `Value`
    /// accumulator holds after the same updates and merges.
    pub(crate) fn push_values(&self, pos: usize, spec: &AggSpec, out: &mut Vec<Value>) {
        let opt = |has: bool, v: Value| if has { v } else { Value::Null };
        match self {
            AggState::Count(c) => out.push(Value::Int(c[pos])),
            AggState::SumI { s, has } => out.push(opt(has[pos], Value::Int(s[pos]))),
            AggState::SumF { s, has } => out.push(opt(has[pos], Value::Double(s[pos]))),
            AggState::MinMaxI { m, has } => out.push(opt(has[pos], Value::Int(m[pos]))),
            AggState::MinMaxF { m, has } => out.push(opt(has[pos], Value::Double(m[pos]))),
            AggState::AvgI { s, cnt } => {
                out.push(opt(cnt[pos] > 0, Value::Int(s[pos])));
                out.push(Value::Int(cnt[pos]));
            }
            AggState::AvgF { s, cnt } => {
                out.push(opt(cnt[pos] > 0, Value::Double(s[pos])));
                out.push(Value::Int(cnt[pos]));
            }
            AggState::Var { s, sq, cnt } => {
                out.push(Value::Double(s[pos]));
                out.push(Value::Double(sq[pos]));
                out.push(Value::Int(cnt[pos]));
            }
            AggState::Fallback(vals) => {
                let w = spec.acc_width();
                out.extend_from_slice(&vals[pos * w..(pos + 1) * w]);
            }
        }
    }

    /// Slots `at`'s physical columns, in slot order, declared `types`:
    /// the columns of what [`AggState::push_values`] gives, under
    /// [`ColumnBuilder`]'s rule. A typed state writes each column straight
    /// from its arrays, its has-flags (or `cnt > 0`) the validity; only a
    /// `Fallback` state goes value by value.
    pub(crate) fn physical_columns(
        &self,
        spec: &AggSpec,
        types: &[DataType],
        at: &[u32],
        out: &mut Vec<Arc<Column>>,
    ) {
        let mut put = |c: Column| out.push(Arc::new(c));
        match self {
            AggState::Count(c) => put(Column::ints(types[0], pick(c, at, |_| true), None)),
            AggState::SumI { s, has } | AggState::MinMaxI { m: s, has } => {
                let valid = |p: usize| has[p];
                put(Column::ints(types[0], pick(s, at, valid), validity(at, valid)));
            }
            AggState::SumF { s, has } | AggState::MinMaxF { m: s, has } => {
                let valid = |p: usize| has[p];
                put(Column::doubles(types[0], pick(s, at, valid), validity(at, valid)));
            }
            AggState::AvgI { s, cnt } => {
                let valid = |p: usize| cnt[p] > 0;
                put(Column::ints(types[0], pick(s, at, valid), validity(at, valid)));
                put(Column::ints(types[1], pick(cnt, at, |_| true), None));
            }
            AggState::AvgF { s, cnt } => {
                let valid = |p: usize| cnt[p] > 0;
                put(Column::doubles(types[0], pick(s, at, valid), validity(at, valid)));
                put(Column::ints(types[1], pick(cnt, at, |_| true), None));
            }
            AggState::Var { s, sq, cnt } => {
                put(Column::doubles(types[0], pick(s, at, |_| true), None));
                put(Column::doubles(types[1], pick(sq, at, |_| true), None));
                put(Column::ints(types[2], pick(cnt, at, |_| true), None));
            }
            AggState::Fallback(vals) => {
                let w = spec.acc_width();
                for k in 0..w {
                    let mut b = ColumnBuilder::new(types[k], at.len());
                    at.iter().for_each(|&p| b.push(&vals[p as usize * w + k]));
                    put(b.finish());
                }
            }
        }
    }

    /// Slots `at`'s logical values as one column of declared type `ty`,
    /// slot `p` finalized where `present(p)` and X_init finalized
    /// elsewhere: [`AggSpec::finalize`] per typed kind, column-wise, and
    /// through `AggSpec::finalize` itself for a `Fallback` state.
    fn finalize_column(
        &self,
        spec: &AggSpec,
        ty: DataType,
        at: &[u32],
        present: &[bool],
    ) -> Result<Column> {
        let on = |p: usize| present[p];
        Ok(match self {
            // X_init: a count of 0, and NULL for every other aggregate.
            AggState::Count(c) => Column::ints(ty, pick(c, at, on), None),
            AggState::SumI { s, has } | AggState::MinMaxI { m: s, has } => {
                let valid = |p: usize| present[p] && has[p];
                Column::ints(ty, pick(s, at, valid), validity(at, valid))
            }
            AggState::SumF { s, has } | AggState::MinMaxF { m: s, has } => {
                let valid = |p: usize| present[p] && has[p];
                Column::doubles(ty, pick(s, at, valid), validity(at, valid))
            }
            AggState::AvgI { s, cnt } => {
                let valid = |p: usize| present[p] && cnt[p] != 0;
                let avg = |p: usize| s[p] as f64 / cnt[p] as f64;
                Column::doubles(ty, map(at, valid, avg), validity(at, valid))
            }
            AggState::AvgF { s, cnt } => {
                let valid = |p: usize| present[p] && cnt[p] != 0;
                let avg = |p: usize| s[p] / cnt[p] as f64;
                Column::doubles(ty, map(at, valid, avg), validity(at, valid))
            }
            AggState::Var { s, sq, cnt } => {
                let valid = |p: usize| present[p] && cnt[p] != 0;
                let stddev = spec.func == AggFunc::StdDev;
                let var = |p: usize| finalize_var(s[p], sq[p], cnt[p], stddev);
                Column::doubles(ty, map(at, valid, var), validity(at, valid))
            }
            AggState::Fallback(vals) => {
                let w = spec.acc_width();
                let mut init = Vec::with_capacity(w);
                spec.init_acc(&mut init);
                let mut b = ColumnBuilder::new(ty, at.len());
                for &p in at {
                    let p = p as usize;
                    let acc = if present[p] { &vals[p * w..(p + 1) * w] } else { &init[..] };
                    b.push(&spec.finalize(acc)?);
                }
                b.finish()
            }
        })
    }

    /// Turn the state into `Value` accumulators holding the same values,
    /// for the rest of its life.
    fn degrade(&mut self, spec: &AggSpec) {
        if matches!(self, AggState::Fallback(_)) {
            return;
        }
        let n = self.len(spec);
        let mut vals = Vec::with_capacity(n * spec.acc_width());
        for p in 0..n {
            self.push_values(p, spec, &mut vals);
        }
        *self = AggState::Fallback(vals);
    }

    /// Append fresh slots up to `n` in all, in place: the arrays grow
    /// as a `Vec` does, so adding a leaf rarely allocates.
    fn resize(&mut self, spec: &AggSpec, n: usize) {
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
            AggState::Fallback(vals) => {
                let mut init = Vec::with_capacity(spec.acc_width());
                spec.init_acc(&mut init);
                while vals.len() < n * init.len() {
                    vals.extend_from_slice(&init);
                }
            }
        }
    }

    /// Lay `blocks` runs of `cap` slots out as runs of `new_cap`, the new
    /// slots of each run fresh.
    fn regrow(&mut self, spec: &AggSpec, blocks: usize, cap: usize, new_cap: usize) {
        let runs = (blocks, cap, new_cap);
        match self {
            AggState::Count(c) => relayout(c, &[0], runs),
            AggState::SumI { s, has } | AggState::MinMaxI { m: s, has } => {
                relayout(s, &[0], runs);
                relayout(has, &[false], runs);
            }
            AggState::SumF { s, has } | AggState::MinMaxF { m: s, has } => {
                relayout(s, &[0.0], runs);
                relayout(has, &[false], runs);
            }
            AggState::AvgI { s, cnt } => {
                relayout(s, &[0], runs);
                relayout(cnt, &[0], runs);
            }
            AggState::AvgF { s, cnt } => {
                relayout(s, &[0.0], runs);
                relayout(cnt, &[0], runs);
            }
            AggState::Var { s, sq, cnt } => {
                relayout(s, &[0.0], runs);
                relayout(sq, &[0.0], runs);
                relayout(cnt, &[0], runs);
            }
            AggState::Fallback(vals) => {
                let mut init = Vec::with_capacity(spec.acc_width());
                spec.init_acc(&mut init);
                relayout(vals, &init, runs);
            }
        }
    }

    /// Absorb rows of the physical columns `cols`: row `i` is loaded into
    /// slot `slots[i]` where `first[i]`, and merged into it otherwise, in
    /// row order. `Ok(false)`, with nothing changed, when the columns are
    /// not this typed state's layout.
    fn absorb(
        &mut self,
        spec: &AggSpec,
        cols: &[&Column],
        slots: &[usize],
        first: &[bool],
    ) -> Result<bool> {
        let max = spec.func == AggFunc::Max;
        let rows = slots
            .iter()
            .zip(first)
            .enumerate()
            .map(|(i, (&p, &f))| (i, p, f));
        match (self, cols) {
            (AggState::Count(c), [col]) => {
                let Some(data) = int_no_nulls(col) else {
                    return Ok(false);
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
            (AggState::AvgI { s, cnt }, [Column::Int { data, valid }, c]) => {
                let Some(c) = avg_counts(valid.as_ref(), c) else {
                    return Ok(false);
                };
                absorb_avg(s, cnt, data, c, rows, fold_sum_i);
            }
            (AggState::AvgF { s, cnt }, [Column::Double { data, valid }, c]) => {
                let Some(c) = avg_counts(valid.as_ref(), c) else {
                    return Ok(false);
                };
                absorb_avg(s, cnt, data, c, rows, fold_sum_f);
            }
            (AggState::Var { s, sq, cnt }, [a, b, c]) => {
                let (Some(a), Some(b), Some(c)) =
                    (f64_no_nulls(a), f64_no_nulls(b), int_no_nulls(c))
                else {
                    return Ok(false);
                };
                for (i, p, first) in rows {
                    if first {
                        (s[p], sq[p], cnt[p]) = (a[i], b[i], c[i]);
                    } else {
                        fold_var((&mut s[p], &mut sq[p], &mut cnt[p]), a[i], b[i], c[i]);
                    }
                }
            }
            (AggState::Fallback(vals), cols) => {
                let w = spec.acc_width();
                let mut other = Vec::with_capacity(w);
                for (i, p, first) in rows {
                    let slot = &mut vals[p * w..(p + 1) * w];
                    if first {
                        for (v, col) in slot.iter_mut().zip(cols) {
                            *v = col.value(i);
                        }
                    } else {
                        other.clear();
                        other.extend(cols.iter().map(|c| c.value(i)));
                        spec.merge(slot, &other)?;
                    }
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
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
    ) -> Result<()> {
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
            AggState::Fallback(vals) => {
                let w = spec.acc_width();
                let (d, s) = runs(vals, dst * w, src * w, n * w);
                for (i, both) in steps {
                    let (d, s) = (&mut d[i * w..(i + 1) * w], &s[i * w..(i + 1) * w]);
                    if both {
                        spec.merge(d, s)?;
                    } else {
                        d.clone_from_slice(s);
                    }
                }
            }
        }
        Ok(())
    }
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

/// Re-lay `v`, `fill.len()` values per slot, from `blocks` runs of `cap`
/// slots into runs of `new_cap`, each new slot `fill`.
fn relayout<T: Clone>(v: &mut Vec<T>, fill: &[T], (blocks, cap, new_cap): (usize, usize, usize)) {
    let w = fill.len();
    let mut out = Vec::with_capacity(blocks * new_cap * w);
    for b in 0..blocks {
        out.extend_from_slice(&v[b * cap * w..(b + 1) * cap * w]);
        for _ in cap..new_cap {
            out.extend_from_slice(fill);
        }
    }
    *v = out;
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
/// in. Position `p` of every aggregate together is one `Vec<Value>`
/// accumulator of the layout ([`AccStates::push_values`]).
#[derive(Debug)]
pub struct AccStates {
    layout: AccLayout,
    states: Vec<AggState>,
}

impl AccStates {
    /// `n` fresh positions of `layout`, each aggregate typed after the
    /// declared types of its physical slots (`types`, one per slot, in
    /// layout order).
    pub fn new(layout: &AccLayout, types: &[DataType], n: usize) -> AccStates {
        let states = layout
            .entries()
            .iter()
            .map(|(_, spec, off)| {
                let slots = types.get(*off..off + spec.acc_width()).unwrap_or(&[]);
                AggState::new(Kind::of_physical(spec, slots), spec, n)
            })
            .collect();
        AccStates {
            layout: layout.clone(),
            states,
        }
    }

    fn specs(&mut self) -> impl Iterator<Item = (&AggSpec, usize, &mut AggState)> {
        let entries = self.layout.entries().iter();
        entries
            .zip(&mut self.states)
            .map(|((_, spec, off), st)| (spec, *off, st))
    }

    /// Append fresh positions up to `n` in all.
    pub fn resize(&mut self, n: usize) {
        for (spec, _, st) in self.specs() {
            st.resize(spec, n);
        }
    }

    /// Lay the positions, `blocks` runs of `cap`, out as runs of
    /// `new_cap`; the new positions of each run are fresh.
    pub fn regrow(&mut self, blocks: usize, cap: usize, new_cap: usize) {
        for (spec, _, st) in self.specs() {
            st.regrow(spec, blocks, cap, new_cap);
        }
    }

    /// Absorb rows of the physical columns of `cols` that start at column
    /// `from` (one per slot, in layout order): row `i` is copied into
    /// position `slots[i]` where `first[i]`, and merged into it otherwise,
    /// in row order. An aggregate whose columns do not have its typed
    /// state's layout — a type, a `NULL` or an AVG count it cannot hold —
    /// turns to `Value` accumulators first, for good, as the kernel does
    /// for `Mixed` columns.
    pub fn absorb(
        &mut self,
        cols: &Columns,
        from: usize,
        slots: &[usize],
        first: &[bool],
    ) -> Result<()> {
        for (spec, off, st) in self.specs() {
            let w = spec.acc_width();
            // At most three slots an aggregate: a stack array, so a chunk
            // allocates nothing here.
            let mut slot_cols = [cols.col(from + off); 3];
            for (k, c) in slot_cols.iter_mut().enumerate().take(w) {
                *c = cols.col(from + off + k);
            }
            let cols = &slot_cols[..w];
            if !st.absorb(spec, cols, slots, first)? {
                st.degrade(spec);
                st.absorb(spec, cols, slots, first)?;
            }
        }
        Ok(())
    }

    /// One merge-tree step between the runs of `n` positions at `dst` and
    /// at `src` (`dst + n <= src`), present where `dst_present` /
    /// `src_present` say: where both are, `src` merges into `dst`
    /// ([`AggSpec::merge`]'s order: `dst` is the left operand); where only
    /// `src` is, it moves across.
    pub fn combine(
        &mut self,
        dst: usize,
        src: usize,
        n: usize,
        dst_present: &[bool],
        src_present: &[bool],
    ) -> Result<()> {
        for (spec, _, st) in self.specs() {
            st.combine(spec, dst, src, n, dst_present, src_present)?;
        }
        Ok(())
    }

    /// Append position `p`'s physical slot values, in layout order: the
    /// `Value` accumulator the states hold there, which the tests' row
    /// references read.
    pub fn push_values(&self, p: usize, out: &mut Vec<Value>) {
        for ((_, spec, _), st) in self.layout.entries().iter().zip(&self.states) {
            st.push_values(p, spec, out);
        }
    }

    /// Positions `at`'s physical columns, in layout order, one per slot
    /// declared `types`: the columns of the `Value` accumulators, built as
    /// the kernel builds a site's.
    pub fn physical_columns(&self, types: &[DataType], at: &[u32]) -> Vec<Arc<Column>> {
        let mut out = Vec::with_capacity(self.layout.width());
        for ((_, spec, off), st) in self.layout.entries().iter().zip(&self.states) {
            let w = spec.acc_width();
            st.physical_columns(spec, &types[*off..off + w], at, &mut out);
        }
        out
    }

    /// Finalize positions `at` into the logical columns, one per
    /// aggregate declared `types` (in layout order): position `p`'s
    /// accumulators where `present[p]`, X_init elsewhere. Column-wise per
    /// typed kind, it gives [`AggSpec::finalize`]'s values, bit for bit,
    /// as columns under [`ColumnBuilder`]'s rule.
    pub fn finalize_columns(
        &self,
        types: &[DataType],
        at: &[u32],
        present: &[bool],
    ) -> Result<Vec<Arc<Column>>> {
        let entries = self.layout.entries().iter().zip(&self.states).enumerate();
        entries
            .map(|(k, ((_, spec, _), st))| Ok(Arc::new(st.finalize_column(spec, types[k], at, present)?)))
            .collect()
    }
}
