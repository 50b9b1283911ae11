//! Typed accumulator states: the one statement of what a physical slot
//! holds and how it updates, merges and finalizes.
//!
//! A layout's slots are each block's distinct sub-aggregates
//! ([`AccLayout`]): `COUNT(*)`, `COUNT(x)`, `SUM(x)`, `SUM(x as f64)`,
//! `SUM(x²)`, `MIN(x)` and `MAX(x)`. AVG, VAR and STDDEV keep no state
//! of their own; they finalize from the slots of their block that they
//! share with each other and with SUM and COUNT. A slot's accumulators
//! over `n` positions live in a typed array (`Vec<i64>`, `Vec<f64>`,
//! `Vec<bool>` has-flags, and shared strings for a string MIN/MAX). A
//! has-flag says the slot holds a value (SUM, MIN and MAX are NULL over
//! an empty range): a stored number counts only where its flag is set,
//! and the first value is *taken*, not added, so `-0.0` and NaN payloads
//! survive. A sum of squares starts at 0 and adds every value. A column
//! is of its slot's type, so columns a typed state cannot take (malformed
//! remote input) are an error, as is a `SUM(x)` that holds a value where
//! its block's `COUNT(x)` is 0, or none where it is not.
//!
//! The kernel ([`crate::columnar`]) keeps one state per slot over a
//! morsel's base positions and merges them, in morsel order, into one
//! [`AccStates`] over the base, off which a site reads both of its
//! answers: the physical columns it ships and, in a locally chained unit
//! or on one machine, the finalized ones. The coordinator keeps
//! [`AccStates`] over its merge tree's slots: it absorbs a site's frame
//! columns into them and merges slot ranges pairwise; the cube's roll-up
//! absorbs and finalizes through them too. All merge through the
//! `fold_*` functions below. Only the test suites' reference restates
//! these semantics, over `Value`s and apart from the engine.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::agg::{AccLayout, Finalize, Slot, SlotKind};
use skalla_relation::{
    f64_add, total_f64_cmp, Bitmap, Column, ColumnBuilder, Columns, DataType, Error, Result, Value,
};
use std::cmp::Ordering;
use std::sync::Arc;

/// Which typed state a slot keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Count,
    SumI,
    SumF,
    MinMaxI,
    MinMaxF,
    MinMaxS,
    SumSq,
}

impl Kind {
    /// The state of `slot`, after its kind and type.
    pub(crate) fn of(slot: &Slot) -> Kind {
        use DataType::{Int, Str};
        match (slot.kind, slot.field.data_type()) {
            (SlotKind::CountStar | SlotKind::Count, _) => Kind::Count,
            (SlotKind::Sum, Int) => Kind::SumI,
            (SlotKind::Sum | SlotKind::SumF64, _) => Kind::SumF,
            (SlotKind::SumSq, _) => Kind::SumSq,
            (SlotKind::Min | SlotKind::Max, Int) => Kind::MinMaxI,
            (SlotKind::Min | SlotKind::Max, Str) => Kind::MinMaxS,
            (SlotKind::Min | SlotKind::Max, _) => Kind::MinMaxF,
        }
    }
}

/// One slot's accumulators, one per position.
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
    /// SUM of squares: from 0.0, every value added, like `f64_add`.
    SumSq(Vec<f64>),
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
            Kind::SumSq => AggState::SumSq(f()),
        }
    }

    /// Merge a later morsel's state into this one, position by position
    /// (`max`: the slot is a MAX).
    pub(crate) fn merge(&mut self, src: &AggState, max: bool) -> Result<()> {
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
            (AggState::SumSq(d), AggState::SumSq(s)) => {
                d.iter_mut().zip(s).for_each(|(d, s)| *d = f64_add(*d, *s));
            }
            _ => {
                return Err(Error::Execution(
                    "merging accumulator states of two kinds".into(),
                ))
            }
        }
        Ok(())
    }

    /// Slots `at`'s physical column under [`ColumnBuilder`]'s rule:
    /// written straight from the arrays, the has-flags the validity.
    pub(crate) fn physical_column(&self, at: &[u32]) -> Column {
        let all = |_: usize| true;
        match self {
            AggState::Count(c) => ints(pick(c, at, all), None),
            AggState::SumI { s, has } | AggState::MinMaxI { m: s, has } => {
                let valid = |p: usize| has[p];
                ints(pick(s, at, valid), validity(at, valid))
            }
            AggState::SumF { s, has } | AggState::MinMaxF { m: s, has } => {
                let valid = |p: usize| has[p];
                doubles(pick(s, at, valid), validity(at, valid))
            }
            AggState::MinMaxS { m } => strs(m, at, all),
            AggState::SumSq(q) => doubles(pick(q, at, all), None),
        }
    }

    /// Slots `at`'s values as COUNT, SUM, MIN or MAX finalize them: as
    /// they are where `present(p)`, X_init (a count of 0, NULL for the
    /// rest) elsewhere.
    fn value_column(&self, at: &[u32], present: &[bool]) -> Column {
        let on = |p: usize| present[p];
        match self {
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
            AggState::SumSq(q) => doubles(pick(q, at, on), validity(at, on)),
        }
    }

    /// A COUNT slot's count at `p` (0 for a slot of another kind, which no
    /// formula reads as a count).
    fn count_at(&self, p: usize) -> i64 {
        match self {
            AggState::Count(c) => c[p],
            _ => 0,
        }
    }

    /// A sum slot's value at `p` as AVG and VAR divide it: an Int sum
    /// converted, 0.0 where a SUM holds no value.
    fn sum_at(&self, p: usize) -> f64 {
        match self {
            AggState::SumI { s, has } if has[p] => s[p] as f64,
            AggState::SumF { s, has } if has[p] => s[p],
            AggState::SumSq(q) => q[p],
            _ => 0.0,
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
            AggState::SumSq(q) => q.resize(n, 0.0),
        }
    }

    /// Absorb rows of the physical column `col`: row `i` is loaded into
    /// position `slots[i]` where `first[i]`, and merged into it otherwise,
    /// in row order. A column that is not this state's — a type, or a
    /// `NULL` where it holds none — is refused, with nothing changed.
    fn absorb(&mut self, slot: &Slot, col: &Column, slots: &[usize], first: &[bool]) -> Result<()> {
        let max = slot.kind == SlotKind::Max;
        let rows = slots
            .iter()
            .zip(first)
            .enumerate()
            .map(|(i, (&p, &f))| (i, p, f));
        match (self, col) {
            (AggState::Count(c), col) => {
                let Some(data) = int_no_nulls(col) else {
                    return Err(malformed(slot));
                };
                for (i, p, first) in rows {
                    c[p] = if first { data[i] } else { c[p] + data[i] };
                }
            }
            (AggState::SumI { s, has }, Column::Int { data, valid }) => {
                absorb_valued(s, has, data, valid.as_ref(), rows, fold_sum_i);
            }
            (AggState::SumF { s, has }, Column::Double { data, valid }) => {
                absorb_valued(s, has, data, valid.as_ref(), rows, fold_sum_f);
            }
            (AggState::MinMaxI { m, has }, Column::Int { data, valid }) => {
                let fold = |a: &mut i64, v, h| fold_min_max_i(a, v, h, max);
                absorb_valued(m, has, data, valid.as_ref(), rows, fold);
            }
            (AggState::MinMaxF { m, has }, Column::Double { data, valid }) => {
                let fold = |a: &mut f64, v, h| fold_min_max_f(a, v, h, max);
                absorb_valued(m, has, data, valid.as_ref(), rows, fold);
            }
            (AggState::MinMaxS { m }, Column::Str { codes, dict, valid }) => {
                for (i, p, first) in rows {
                    let v = valid.as_ref().is_none_or(|b| b.get(i)).then(|| &dict[codes[i] as usize]);
                    match v {
                        _ if first => m[p] = v.cloned(),
                        Some(v) => fold_min_max_s(&mut m[p], v, max),
                        None => {}
                    }
                }
            }
            (AggState::SumSq(q), col) => {
                let Some(data) = f64_no_nulls(col) else {
                    return Err(malformed(slot));
                };
                for (i, p, first) in rows {
                    q[p] = if first { data[i] } else { f64_add(q[p], data[i]) };
                }
            }
            _ => return Err(malformed(slot)),
        }
        Ok(())
    }

    /// The merge tree's step over two runs of `n` slots, `dst` before
    /// `src`: where both are present (`dp`, `sp`) `src` merges into
    /// `dst`, where only `src` is it moves across.
    fn combine(&mut self, max: bool, (dst, src, n): (usize, usize, usize), dp: &[bool], sp: &[bool]) {
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
            AggState::SumSq(q) => {
                let (d, s) = runs(q, dst, src, n);
                for (i, both) in steps {
                    d[i] = if both { f64_add(d[i], s[i]) } else { s[i] };
                }
            }
        }
    }
}

/// The error for a physical column a slot's typed state cannot take.
fn malformed(slot: &Slot) -> Error {
    Error::Execution(format!("malformed accumulator columns for {slot}"))
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

/// Whether a SUM column and its block's COUNT column of the same input
/// keep the typed states' invariant: no count is negative, and the sum
/// holds a value exactly where its count is positive.
fn sum_agrees_with_count(sum: &Column, cnt: &Column) -> bool {
    let sums = sum.validity();
    int_no_nulls(cnt).is_some_and(|c| {
        c.len() == sum.len() && c.iter().enumerate().all(|(i, &n)| n >= 0 && (n > 0) == sums.is_none_or(|b| b.get(i)))
    })
}

/// The typed accumulators of every slot of one [`AccLayout`], over `len`
/// positions: what the coordinator merges its sites' sub-aggregates in,
/// and what finalizing and the cube's roll-up go through. Position `p` of
/// every slot together is one physical row of the layout
/// ([`AccStates::physical_columns`]).
#[derive(Debug)]
pub struct AccStates {
    layout: AccLayout,
    states: Vec<AggState>,
}

impl AccStates {
    /// `n` fresh positions of `layout`, each slot's state typed as the
    /// slot is.
    pub fn new(layout: &AccLayout, n: usize) -> AccStates {
        let states = layout.slots().iter().map(|s| AggState::new(Kind::of(s), n)).collect();
        AccStates {
            layout: layout.clone(),
            states,
        }
    }

    /// The kernel's merged states of every slot of `layout`, in layout
    /// order.
    pub(crate) fn of_states(layout: AccLayout, states: Vec<AggState>) -> AccStates {
        AccStates { layout, states }
    }

    /// The layout the states are of.
    pub fn layout(&self) -> &AccLayout {
        &self.layout
    }

    /// Append fresh positions up to `n` in all.
    pub fn resize(&mut self, n: usize) {
        self.states.iter_mut().for_each(|st| st.resize(n));
    }

    /// Absorb rows of the physical columns of `cols` that start at column
    /// `from` (one per slot, in layout order): row `i` is copied into
    /// position `slots[i]` where `first[i]`, and merged into it otherwise,
    /// in row order. Columns that are not the layout's — too few or too
    /// many, a type or a `NULL` a slot cannot hold, a SUM at odds with its
    /// COUNT — are malformed remote input, refused with
    /// [`Error::Execution`].
    pub fn absorb(
        &mut self,
        cols: &Columns,
        from: usize,
        slots: &[usize],
        first: &[bool],
    ) -> Result<()> {
        let width = self.states.len();
        if cols.arity() != from + width {
            return Err(Error::Execution(format!(
                "{} accumulator columns for a layout of {width} slots",
                cols.arity().saturating_sub(from)
            )));
        }
        for &(sum, cnt) in self.layout.pairs() {
            if !sum_agrees_with_count(cols.col(from + sum), cols.col(from + cnt)) {
                let (s, c) = (&self.layout.slots()[sum], &self.layout.slots()[cnt]);
                return Err(Error::Execution(format!(
                    "malformed accumulator columns: {s} holds a value exactly where {c} is positive, or {c} is negative"
                )));
            }
        }
        for (k, (slot, st)) in self.layout.slots().iter().zip(&mut self.states).enumerate() {
            st.absorb(slot, cols.col(from + k), slots, first)?;
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
        for (slot, st) in self.layout.slots().iter().zip(&mut self.states) {
            st.combine(slot.kind == SlotKind::Max, (dst, src, n), dst_present, src_present);
        }
    }

    /// Positions `at`'s physical columns, in layout order, one per slot,
    /// built as the kernel builds a site's.
    pub fn physical_columns(&self, at: &[u32]) -> Vec<Arc<Column>> {
        self.states.iter().map(|st| Arc::new(st.physical_column(at))).collect()
    }

    /// Finalize positions `at` into the logical columns, one per aggregate
    /// (in layout order): position `p`'s accumulators where `present[p]`,
    /// X_init elsewhere, as columns under [`ColumnBuilder`]'s rule. COUNT,
    /// SUM, MIN and MAX are their slot; AVG is its sum over its count and
    /// VAR/STDDEV go through `finalize_var`, NULL over a count of 0.
    pub fn finalize_columns(&self, at: &[u32], present: &[bool]) -> Vec<Arc<Column>> {
        let st = &self.states;
        let column = |fin: &Finalize| match *fin {
            Finalize::Slot(s) => st[s].value_column(at, present),
            Finalize::Avg { sum, cnt } => {
                let valid = |p: usize| present[p] && st[cnt].count_at(p) != 0;
                let avg = |p: usize| st[sum].sum_at(p) / st[cnt].count_at(p) as f64;
                doubles(map(at, valid, avg), validity(at, valid))
            }
            Finalize::Var { sum, sq, cnt, stddev } => {
                let valid = |p: usize| present[p] && st[cnt].count_at(p) != 0;
                let var = |p: usize| finalize_var(st[sum].sum_at(p), st[sq].sum_at(p), st[cnt].count_at(p), stddev);
                doubles(map(at, valid, var), validity(at, valid))
            }
        };
        self.layout.aggs().iter().map(|(_, _, fin)| Arc::new(column(fin))).collect()
    }
}
