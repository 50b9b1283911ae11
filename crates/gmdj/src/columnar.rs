//! The vectorized (columnar) GMDJ kernel.
//!
//! The test suites' serial row reference walks `Row`s and folds every
//! matching detail tuple into `Vec<Value>` accumulators — one enum
//! dispatch plus one possible clone per (tuple, aggregate). This kernel
//! computes the same function on the relation's columns, read in place
//! ([`Relation::column`]). Per morsel and block it makes a selection of matching
//! `(detail row, base position)` pairs in two steps, then runs at most
//! **one typed inner loop per aggregate** over `&[i64]` / `&[f64]` column
//! slices into typed accumulator arrays (`Vec<i64>`, `Vec<f64>`,
//! `Vec<bool>` has-flags) — no `Value` is materialized per row. A slot of
//! the layout is a block's distinct sub-aggregate ([`AccLayout`]), filled
//! once: by the loop of the first aggregate of its block that needs it,
//! which fills all the slots it needs unfilled in one pass, so `SUM(v),
//! AVG(v), VAR(v)` run one loop, not three:
//!
//! - **Candidates.** An equi-key block writes one `(row, first base
//!   position with the row's key)` pair per detail row unconditionally and
//!   advances its output only when the key has a base position, so the
//!   loop has no data-dependent branch. Only when the base repeats a key
//!   does a second sweep append each row's further positions. A
//!   nested-loop block makes its candidates per base position: every row
//!   of the morsel.
//! - **Filter.** Each residual θ conjunct then compacts the candidates in
//!   place, in conjunct order, so a pair reaches conjunct k only when
//!   conjuncts 1..k−1 held for it. A conjunct of the shape
//!   `detail col ⟨cmp⟩ base col | literal` over a numeric detail column
//!   (`TypedCmp`) runs a loop specialised per operator and operand types
//!   against a typed right-hand-side array per base position (a base
//!   column is of one type), branch-free; any other conjunct calls
//!   [`BoundExpr::eval_cols`] per surviving pair.
//!   The survivors set the match flags.
//!
//! **Group-id probing.** Equi-key blocks never hash a detail row. The
//! detail relation numbers its rows' local groups once per partition and
//! key-column list ([`Relation::groups`], memoized beside the distinct
//! groups a folded base reads). Once per operator call, each group's
//! representative and each base tuple collapse to *canonical keys* — a
//! `(tag, word)` pair per column such that two values are
//! [`Value`]-equal iff their pairs are equal ([`canon_value`], strings
//! interned through one table for both sides) — and every group is
//! resolved to its first equal-key base position (and, for a repeated
//! key, a chain of the others): O(|base| + |groups|). The per-row probe
//! is then `ghead[ids[i]]`, an array load.
//!
//! **Bit identity.** The kernel runs under the morsel driver
//! (`eval::drive`) with the reference's morsel decomposition, fresh
//! accumulators per morsel and merge in morsel order. Within a morsel
//! every accumulator slot receives its matching detail rows in ascending
//! order, as in the reference — a base position is either a key's first
//! position or on its chain, never both, and each sweep runs the rows in
//! ascending order — so each slot sees the identical sequence of
//! floating-point operations and the output bits match the reference's
//! for every thread count. A computed aggregate input reads the detail
//! side only, so it is evaluated once per call, for every detail row, into
//! a column of its inferred type ([`Expr::infer_type`]), and takes the same
//! typed loops; string MIN/MAX keeps a typed state of shared strings.
//!
//! [`Expr::infer_type`]: skalla_relation::Expr::infer_type

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::agg::{AccLayout, AggSpec, SlotKind};
use crate::eval::{drive, morsels, prepare_blocks, EvalOptions, MorselKernel};
use crate::operator::Gmdj;
use crate::state::{
    fold_min_max_f, fold_min_max_i, fold_min_max_s, fold_sum_f, fold_sum_i, AccStates, AggState,
    Kind,
};
use skalla_obs::Obs;
use skalla_relation::columns::{canon_eq, canon_hash, canon_value, CanonKeys, IdTable, StrCodes};
use skalla_relation::{
    f64_add, Bitmap, BoundExpr, CmpOp, Column, ColumnBuilder, Error, Groups, Relation,
    Result, Schema, Side, StrDictView, Value, TWO_POW_63,
};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Arc;

/// One equi-key pair's map from the detail partition's local groups to
/// the base positions with the same key. Blocks sharing
/// `(base_keys, detail_keys)` share one entry.
struct CanonPair {
    /// The detail relation's groups over the detail key columns — the
    /// partition's memo, shared, not built per call.
    groups: Arc<Groups>,
    /// Group → first base position with its key + 1 (0 = none).
    ghead: Vec<u32>,
    /// Base position → next base position with the same key + 1 (0 =
    /// end), starting from a key's first position. Empty when every base
    /// key is unique, which is the common case (a base is usually a
    /// `DISTINCT` projection).
    eqnext: Vec<u32>,
}

impl CanonPair {
    /// O(|base| + |groups|): nothing here runs per detail row.
    fn build(base: &Relation, detail: &Relation, base_keys: &[usize], detail_keys: &[usize]) -> CanonPair {
        let groups = detail.groups(detail_keys);
        let reps = groups.first_rows();
        // Each group's representative and each base tuple, canonicalized
        // under one interner, so equal strings get equal words.
        let mut codes = StrCodes::default();
        let gkeys: Vec<CanonKeys> = detail_keys
            .iter()
            .map(|&dk| {
                let col = detail.column(dk);
                reps.iter().map(|&r| canon_value(&col.value(r as usize), &mut codes)).collect()
            })
            .collect();
        let bkeys: Vec<CanonKeys> = base_keys
            .iter()
            .map(|&bk| {
                let col = base.column(bk);
                (0..base.len()).map(|p| canon_value(&col.value(p), &mut codes)).collect()
            })
            .collect();
        let mut index = IdTable::with_capacity(reps.len());
        for g in 0..reps.len() {
            index.insert(canon_hash(&gkeys, g));
        }
        let n = base.len();
        assert!(n < u32::MAX as usize, "base relation too large to index");
        let mut ghead = vec![0u32; reps.len()];
        let mut eqnext = Vec::new();
        // Every base position with the group's key is linked: each owns
        // its own accumulator slots (duplicate base tuples included). A
        // repeat goes onto the chain behind the key's first position.
        for pos in 0..n {
            let h = canon_hash(&bkeys, pos);
            let Some(g) = index.find(h, |g| canon_eq(&gkeys, g, &bkeys, pos)) else {
                continue;
            };
            match ghead[g] {
                0 => ghead[g] = pos as u32 + 1,
                head => {
                    if eqnext.is_empty() {
                        eqnext = vec![0u32; n];
                    }
                    let head = head as usize - 1;
                    eqnext[pos] = eqnext[head];
                    eqnext[head] = pos as u32 + 1;
                }
            }
        }
        CanonPair {
            groups,
            ghead,
            eqnext,
        }
    }

    /// The candidate pairs of detail rows `lo..hi`: per row, its key's
    /// first base position, written unconditionally and kept when there
    /// is one; then, only when the base repeats a key, a second sweep
    /// with the rest of each chain.
    fn candidates(&self, lo: usize, hi: usize, sel: &mut Pairs) {
        let ids = &self.groups.ids()[lo..hi];
        let (rows, poss) = sel.room(hi - lo);
        let mut n = 0;
        for (i, &g) in (lo..hi).zip(ids) {
            let head = self.ghead[g as usize];
            rows[n] = i as u32;
            poss[n] = head.wrapping_sub(1);
            n += (head != 0) as usize;
        }
        sel.len += n;
        if self.eqnext.is_empty() {
            return;
        }
        // The positions after group `g`'s first, along its chain.
        let tail = |g: u32| {
            let mut cur = match self.ghead[g as usize] {
                0 => 0,
                head => self.eqnext[head as usize - 1],
            };
            std::iter::from_fn(move || {
                (cur != 0).then(|| {
                    let pos = cur - 1;
                    cur = self.eqnext[pos as usize];
                    pos
                })
            })
        };
        let extra = ids.iter().map(|&g| tail(g).count()).sum();
        let (rows, poss) = sel.room(extra);
        let chained = (lo..hi).zip(ids).flat_map(|(i, &g)| tail(g).map(move |pos| (i as u32, pos)));
        for ((i, pos), (r, p)) in chained.zip(rows.iter_mut().zip(poss.iter_mut())) {
            *r = i;
            *p = pos;
        }
        sel.len += extra;
    }
}

/// The `(detail row, base position)` pairs of one block in one morsel:
/// the candidates, compacted in place by each residual conjunct into the
/// selection the aggregate loops fold. The buffers only grow (zero-filled
/// once), so a worker reuses them morsel after morsel; `len` counts the
/// live pairs.
#[derive(Default)]
struct Pairs {
    rows: Vec<u32>,
    poss: Vec<u32>,
    len: usize,
}

impl Pairs {
    fn clear(&mut self) {
        self.len = 0;
    }

    /// The `extra` slots past the live pairs, for writing; `len` is
    /// unchanged.
    fn room(&mut self, extra: usize) -> (&mut [u32], &mut [u32]) {
        let need = self.len + extra;
        if self.rows.len() < need {
            self.rows.resize(need, 0);
            self.poss.resize(need, 0);
        }
        (&mut self.rows[self.len..need], &mut self.poss[self.len..need])
    }

    fn rows(&self) -> &[u32] {
        &self.rows[..self.len]
    }

    fn poss(&self) -> &[u32] {
        &self.poss[..self.len]
    }

    /// Keep the pairs from `from` on for which `keep(row, pos)` holds, in
    /// order; the first error ends the pass. Every pair is written back
    /// and the output advances by the predicate, so the loop itself has no
    /// data-dependent branch.
    #[inline]
    fn retain_from<E>(
        &mut self,
        from: usize,
        keep: impl Fn(usize, usize) -> std::result::Result<bool, E>,
    ) -> std::result::Result<(), E> {
        let (rows, poss) = (&mut self.rows[..self.len], &mut self.poss[..self.len]);
        let mut n = from;
        for k in from..rows.len() {
            let (i, p) = (rows[k], poss[k]);
            let kept = keep(i as usize, p as usize)?;
            rows[n] = i;
            poss[n] = p;
            n += kept as usize;
        }
        self.len = n;
        Ok(())
    }
}

/// A typed `Int` column: the values and the validity mask.
type IntCol<'a> = (&'a [i64], Option<&'a Bitmap>);
/// A typed `Double` column: the values and the validity mask.
type F64Col<'a> = (&'a [f64], Option<&'a Bitmap>);

/// The slots one pass of sums fills (indexes into the layout's slots):
/// the SUM of one input — over an `Int`, the wrapping SUM or VAR's SUM as
/// `f64`, never both, as no aggregate needs both — its SUM of squares and
/// its COUNT.
#[derive(Debug, Clone, Copy, Default)]
struct Sums {
    sum: Option<usize>,
    sq: Option<usize>,
    cnt: Option<usize>,
}

/// One typed inner loop over a block's selection, filling the slots that
/// the first aggregate needing them finds unfilled, over their input
/// column's slices (borrowed at classification, which is also what builds
/// the column).
enum Fill<'a> {
    /// `COUNT(*)`.
    CountStar(usize),
    /// `COUNT(col)` — counts valid (non-`NULL`) rows of a column of any
    /// type.
    CountCol(&'a Column, usize),
    /// `MIN`/`MAX` over an `Int` column (`max` = true for MAX).
    MinMaxInt { col: IntCol<'a>, max: bool, slot: usize },
    /// `MIN`/`MAX` over a `Double` column (total order, NaN greatest).
    MinMaxF64 { col: F64Col<'a>, max: bool, slot: usize },
    /// `MIN`/`MAX` over a `Str` column.
    MinMaxStr { col: StrDictView<'a>, max: bool, slot: usize },
    /// Sums of an `Int` column in one pass: the wrapping SUM (like
    /// `eval_arith`) or the SUM as `f64`, the SUM of squares (`x as f64`,
    /// like `as_f64`), the COUNT.
    IntSums { col: IntCol<'a>, to: Sums },
    /// Sums of a `Double` column in one pass.
    F64Sums { col: F64Col<'a>, to: Sums },
}

/// The loop that fills `new`, the slots of `layout` that an aggregate
/// needs and finds unfilled, over the aggregate's input column (`None`
/// for `COUNT(*)`). A sum over strings, which validation refuses, is a
/// type error here too.
fn classify<'a>(layout: &AccLayout, new: &[usize], spec: &AggSpec, column: Option<&'a Column>) -> Result<Fill<'a>> {
    let slots = layout.slots();
    let kinds: Vec<SlotKind> = new.iter().map(|&s| slots[s].kind).collect();
    let type_error = |column: Option<&Column>| {
        let input = column.map_or("no input".into(), |c| format!("a {} column", c.data_type()));
        Error::TypeError(format!("{spec} over {input}"))
    };
    Ok(match (&kinds[..], column) {
        ([SlotKind::CountStar], _) => Fill::CountStar(new[0]),
        ([SlotKind::Count], Some(c)) => Fill::CountCol(c, new[0]),
        ([k @ (SlotKind::Min | SlotKind::Max)], Some(column)) => {
            let (max, slot) = (*k == SlotKind::Max, new[0]);
            match column {
                Column::Int { data, valid } => Fill::MinMaxInt { col: (data, valid.as_ref()), max, slot },
                Column::Double { data, valid } => Fill::MinMaxF64 { col: (data, valid.as_ref()), max, slot },
                Column::Str { codes, dict, valid } => Fill::MinMaxStr { col: (codes, dict, valid.as_ref()), max, slot },
            }
        }
        (_, Some(column @ (Column::Int { .. } | Column::Double { .. }))) => {
            let mut to = Sums::default();
            for (&s, kind) in new.iter().zip(&kinds) {
                let at = match kind {
                    SlotKind::Sum | SlotKind::SumF64 => &mut to.sum,
                    SlotKind::SumSq => &mut to.sq,
                    SlotKind::Count => &mut to.cnt,
                    _ => return Err(type_error(Some(column))),
                };
                if at.replace(s).is_some() {
                    return Err(type_error(Some(column)));
                }
            }
            match column {
                Column::Int { data, valid } => Fill::IntSums { col: (data, valid.as_ref()), to },
                Column::Double { data, valid } => Fill::F64Sums { col: (data, valid.as_ref()), to },
                Column::Str { .. } => return Err(type_error(Some(column))),
            }
        }
        (_, column) => return Err(type_error(column)),
    })
}

/// A computed aggregate input over the detail side, evaluated for every
/// detail row into a column of its inferred type.
fn computed_column(spec: &AggSpec, input: &BoundExpr, detail: &Relation) -> Result<Column> {
    let Some(expr) = &spec.input else {
        return Err(Error::Plan(format!("{spec} has no input expression")));
    };
    let ty = expr.infer_type(&Schema::of(&[]), Some(detail.schema()))?;
    // The input reads no base column (`AggSpec::validate`).
    let mut b = ColumnBuilder::new(ty, detail.len());
    for i in 0..detail.len() {
        let v = input.eval_cols(None, Some((detail, i)))?;
        if v.data_type().is_some_and(|t| t != ty) {
            return Err(Error::TypeError(format!("{spec}: {v:?} from a {ty} input")));
        }
        b.push(&v);
    }
    Ok(b.finish())
}

/// A detail value against a right-hand-side number in [`Value`]'s total
/// order, without a branch: ints natively, doubles in the order of
/// [`total_f64_cmp`] (NaN above every number and equal to itself, −0.0 =
/// 0.0), an int against a double exactly ([`cmp_i64_f64`]).
///
/// [`total_f64_cmp`]: skalla_relation::total_f64_cmp
/// [`cmp_i64_f64`]: skalla_relation::cmp_i64_f64
trait TotalCmp<R>: Copy {
    fn lt(self, r: R) -> bool;
    fn gt(self, r: R) -> bool;
    fn eq(self, r: R) -> bool;
}

#[inline]
fn f64_lt(a: f64, b: f64) -> bool {
    (a < b) | (!a.is_nan() & b.is_nan())
}

#[inline]
fn f64_eq(a: f64, b: f64) -> bool {
    (a == b) | (a.is_nan() & b.is_nan())
}

impl TotalCmp<i64> for i64 {
    fn lt(self, r: i64) -> bool {
        self < r
    }
    fn gt(self, r: i64) -> bool {
        self > r
    }
    fn eq(self, r: i64) -> bool {
        self == r
    }
}

impl TotalCmp<f64> for f64 {
    fn lt(self, r: f64) -> bool {
        f64_lt(self, r)
    }
    fn gt(self, r: f64) -> bool {
        f64_lt(r, self)
    }
    fn eq(self, r: f64) -> bool {
        f64_eq(self, r)
    }
}

impl TotalCmp<f64> for i64 {
    fn lt(self, r: f64) -> bool {
        int_lt_f64(self, r)
    }
    fn gt(self, r: f64) -> bool {
        int_gt_f64(self, r)
    }
    fn eq(self, r: f64) -> bool {
        int_eq_f64(self, r)
    }
}

impl TotalCmp<i64> for f64 {
    fn lt(self, r: i64) -> bool {
        int_gt_f64(r, self)
    }
    fn gt(self, r: i64) -> bool {
        int_lt_f64(r, self)
    }
    fn eq(self, r: i64) -> bool {
        int_eq_f64(r, self)
    }
}

// `i` against `d` exactly, without a branch: `i as f64` decides
// wherever it differs from `d`, and where it equals `d`, `d` is an
// integer the integers compare.

/// `i < d`, NaN greatest.
#[inline]
fn int_lt_f64(i: i64, d: f64) -> bool {
    let f = i as f64;
    (f < d) | d.is_nan() | ((f == d) & ((d >= TWO_POW_63) | (i < d as i64)))
}

/// `i > d`.
#[inline]
fn int_gt_f64(i: i64, d: f64) -> bool {
    let f = i as f64;
    (f > d) | ((f == d) & (d < TWO_POW_63) & (i > d as i64))
}

/// `i = d`.
#[inline]
fn int_eq_f64(i: i64, d: f64) -> bool {
    (i as f64 == d) & (d < TWO_POW_63) & (i == d as i64)
}

/// A [`Fixed`] entry: compare the detail value with the right-hand side.
const COMPARE: u8 = 0;
/// A [`Fixed`] entry: the conjunct holds for every valid detail value
/// (a string right-hand side under `<>`, `<` or `<=`).
const HOLDS: u8 = 1;
/// A [`Fixed`] entry: the conjunct holds for no detail value (a `NULL`
/// right-hand side, or a string one under `=`, `>` or `>=`).
const FAILS: u8 = 2;

/// Per base position, how a conjunct whose right-hand side is not a
/// number there resolves: [`COMPARE`], [`HOLDS`] or [`FAILS`]. `None`
/// when every position holds a number.
type Fixed = Option<Vec<u8>>;

/// One residual conjunct `detail col ⟨op⟩ base col | literal` over an
/// `Int` or `Double` detail column, lowered to a typed comparison: the
/// slice element against a typed right-hand-side array with one entry per
/// base position (a literal fills it). Mirrors [`CmpOp::apply`] over
/// [`Value`]'s order exactly — `NULL` on either side is not truthy,
/// doubles compare in the order of [`total_f64_cmp`] (NaN greatest), an
/// `Int` against a `Double` exactly, a string outranks every number.
///
/// [`total_f64_cmp`]: skalla_relation::total_f64_cmp
struct TypedCmp<'a> {
    op: CmpOp,
    lhs: NumSlice<'a>,
    valid: Option<&'a Bitmap>,
    rhs: Rhs,
}

enum NumSlice<'a> {
    Int(&'a [i64]),
    F64(&'a [f64]),
}

/// The right-hand side, one entry per base position.
enum Rhs {
    /// An `Int` column or literal (0 where [`Fixed`] decides).
    Int(Vec<i64>, Fixed),
    /// A `Double` column or literal (0 where [`Fixed`] decides).
    F64(Vec<f64>, Fixed),
}

impl<'a> TypedCmp<'a> {
    /// Lower `e` if it has the typed shape (either operand order).
    fn lower(e: &BoundExpr, base: &Relation, detail: &'a Relation) -> Option<TypedCmp<'a>> {
        let BoundExpr::Cmp(op, a, b) = e else {
            return None;
        };
        let (op, col, other) = match (&**a, &**b) {
            (BoundExpr::Col(Side::Detail, c), other) => (*op, *c, other),
            (other, BoundExpr::Col(Side::Detail, c)) => (op.flipped(), *c, other),
            _ => return None,
        };
        let (lhs, valid) = match detail.column(col) {
            Column::Int { data, valid } => (NumSlice::Int(data), valid.as_ref()),
            Column::Double { data, valid } => (NumSlice::F64(data), valid.as_ref()),
            Column::Str { .. } => return None,
        };
        let n = base.len();
        // A string outranks every number; a `NULL` is never truthy.
        let str_holds = if op.holds(Ordering::Less) { HOLDS } else { FAILS };
        let rhs = match other {
            BoundExpr::Lit(Value::Int(y)) => Rhs::Int(vec![*y; n], None),
            BoundExpr::Lit(Value::Double(y)) => Rhs::F64(vec![*y; n], None),
            BoundExpr::Lit(Value::Str(_)) => Rhs::Int(vec![0; n], Some(vec![str_holds; n])),
            BoundExpr::Lit(Value::Null) => Rhs::Int(vec![0; n], Some(vec![FAILS; n])),
            BoundExpr::Col(Side::Base, b) => {
                let col = base.column(*b);
                let fixed = |hit: u8| (0..n).map(|p| if col.is_valid(p) { hit } else { FAILS }).collect();
                match col {
                    Column::Int { data, valid } => Rhs::Int(data.clone(), valid.is_some().then(|| fixed(COMPARE))),
                    Column::Double { data, valid } => Rhs::F64(data.clone(), valid.is_some().then(|| fixed(COMPARE))),
                    Column::Str { .. } => Rhs::Int(vec![0; n], Some(fixed(str_holds))),
                }
            }
            _ => return None,
        };
        Some(TypedCmp {
            op,
            lhs,
            valid,
            rhs,
        })
    }

    /// Keep the pairs from `from` on for which the conjunct is truthy.
    fn filter(&self, sel: &mut Pairs, from: usize) {
        match (&self.lhs, &self.rhs) {
            (NumSlice::Int(x), Rhs::Int(y, f)) => self.by_op(sel, from, x, y, f),
            (NumSlice::Int(x), Rhs::F64(y, f)) => self.by_op(sel, from, x, y, f),
            (NumSlice::F64(x), Rhs::Int(y, f)) => self.by_op(sel, from, x, y, f),
            (NumSlice::F64(x), Rhs::F64(y, f)) => self.by_op(sel, from, x, y, f),
        }
    }

    /// One loop per operator, chosen outside it.
    fn by_op<L: TotalCmp<R>, R: Copy>(&self, sel: &mut Pairs, from: usize, x: &[L], y: &[R], f: &Fixed) {
        match self.op {
            CmpOp::Eq => self.compact(sel, from, x, y, f, |a, b| a.eq(b)),
            CmpOp::Ne => self.compact(sel, from, x, y, f, |a, b| !a.eq(b)),
            CmpOp::Lt => self.compact(sel, from, x, y, f, |a, b| a.lt(b)),
            CmpOp::Le => self.compact(sel, from, x, y, f, |a, b| !a.gt(b)),
            CmpOp::Gt => self.compact(sel, from, x, y, f, |a, b| a.gt(b)),
            CmpOp::Ge => self.compact(sel, from, x, y, f, |a, b| !a.lt(b)),
        }
    }

    /// The branch-free compaction, one loop per (validity mask, fixed
    /// entries) shape. A `NULL` detail value's slot holds a placeholder,
    /// masked out by its validity bit.
    #[inline]
    fn compact<L: Copy, R: Copy>(
        &self,
        sel: &mut Pairs,
        from: usize,
        x: &[L],
        y: &[R],
        fixed: &Fixed,
        holds: impl Fn(L, R) -> bool,
    ) {
        let resolve = |f: u8, cmp: bool| ((f == COMPARE) & cmp) | (f == HOLDS);
        let Ok(()) = match (self.valid, fixed) {
            (None, None) => sel.retain_from(from, |i, p| Ok::<_, Infallible>(holds(x[i], y[p]))),
            (None, Some(f)) => sel.retain_from(from, |i, p| Ok(resolve(f[p], holds(x[i], y[p])))),
            (Some(v), None) => sel.retain_from(from, |i, p| Ok(v.get(i) & holds(x[i], y[p]))),
            (Some(v), Some(f)) => {
                sel.retain_from(from, |i, p| Ok(v.get(i) & resolve(f[p], holds(x[i], y[p]))))
            }
        };
    }
}

/// One conjunct of a block's residual θ.
enum Conjunct<'a> {
    Typed(TypedCmp<'a>),
    /// Anything else: [`BoundExpr::eval_cols`].
    Interpreted(&'a BoundExpr),
}

/// Split a residual into its top-level `AND` conjuncts, left to right —
/// the order [`BoundExpr::eval_cols`] short-circuits in, so an erroring
/// conjunct is reached under exactly the same conditions.
fn lower_residual<'a>(
    e: &'a BoundExpr,
    base: &Relation,
    detail: &'a Relation,
    out: &mut Vec<Conjunct<'a>>,
) {
    match e {
        BoundExpr::And(a, b) => {
            lower_residual(a, base, detail, out);
            lower_residual(b, base, detail, out);
        }
        _ => out.push(match TypedCmp::lower(e, base, detail) {
            Some(t) => Conjunct::Typed(t),
            None => Conjunct::Interpreted(e),
        }),
    }
}

/// One block, lowered for columnar evaluation.
struct ColBlock<'a> {
    /// Index into the shared [`CanonPair`] cache (`None` ⇒ nested loop).
    pair: Option<usize>,
    /// Residual θ as a conjunction (empty when trivially true).
    residual: Vec<Conjunct<'a>>,
    /// The block's loops: at most one per aggregate, none for one whose
    /// slots an aggregate before it filled.
    fills: Vec<Fill<'a>>,
}

/// Per-morsel accumulation state: one typed array per slot plus the
/// match flags.
struct ColState {
    slots: Vec<AggState>,
    matched: Vec<bool>,
}

/// The immutable columnar evaluation context shared across the pool.
struct ColKernel<'a> {
    base: &'a Relation,
    detail: &'a Relation,
    layout: &'a AccLayout,
    blocks: Vec<ColBlock<'a>>,
    pairs: Vec<CanonPair>,
    morsel_rows: usize,
    n_morsels: usize,
}

impl ColKernel<'_> {
    /// Compact the pairs of `sel` from `from` on to those every residual
    /// conjunct of `cb` holds for, one conjunct at a time, in order.
    fn filter(&self, cb: &ColBlock<'_>, sel: &mut Pairs, from: usize) -> Result<()> {
        for c in &cb.residual {
            match c {
                Conjunct::Typed(t) => t.filter(sel, from),
                Conjunct::Interpreted(e) => sel.retain_from(from, |i, pos| {
                    Ok(e.eval_cols(Some((self.base, pos)), Some((self.detail, i)))?.is_truthy())
                })?,
            }
        }
        Ok(())
    }
}

impl MorselKernel for ColKernel<'_> {
    type State = ColState;
    type Buffers = Pairs;

    fn n_morsels(&self) -> usize {
        self.n_morsels
    }

    fn morsel_rows_in(&self, m: usize) -> usize {
        ((m + 1) * self.morsel_rows).min(self.detail.len()) - m * self.morsel_rows
    }

    fn init_state(&self) -> ColState {
        let n = self.base.len();
        ColState {
            slots: self.layout.slots().iter().map(|s| AggState::new(Kind::of(s), n)).collect(),
            matched: vec![false; n],
        }
    }

    fn merge_state(&self, dst: &mut ColState, src: &ColState) -> Result<()> {
        for ((d, s), slot) in dst.slots.iter_mut().zip(&src.slots).zip(self.layout.slots()) {
            d.merge(s, slot.kind == SlotKind::Max)?;
        }
        for (d, s) in dst.matched.iter_mut().zip(&src.matched) {
            *d |= *s;
        }
        Ok(())
    }

    fn run_morsel_into(&self, m: usize, state: &mut ColState, sel: &mut Pairs) -> Result<()> {
        let lo = m * self.morsel_rows;
        let hi = ((m + 1) * self.morsel_rows).min(self.detail.len());
        for cb in &self.blocks {
            // Candidates, then the residual's filter: each base position
            // meets its detail rows in ascending order (see module docs —
            // this is what makes the bits the reference's).
            sel.clear();
            match cb.pair {
                Some(pi) => {
                    self.pairs[pi].candidates(lo, hi, sel);
                    self.filter(cb, sel, 0)?;
                }
                None => {
                    for pos in 0..self.base.len() {
                        let from = sel.len;
                        let (rows, poss) = sel.room(hi - lo);
                        for (r, i) in rows.iter_mut().zip(lo..hi) {
                            *r = i as u32;
                        }
                        poss.fill(pos as u32);
                        sel.len += hi - lo;
                        self.filter(cb, sel, from)?;
                    }
                }
            }
            for &p in sel.poss() {
                state.matched[p as usize] = true;
            }
            // Aggregate pass: the block's typed loops over the selection.
            for fill in &cb.fills {
                run_fill(fill, &mut state.slots, sel.rows(), sel.poss());
            }
        }
        Ok(())
    }
}

/// Run one fill's typed inner loop over the selected `(row, pos)` pairs.
/// Each slot's state is of the kind its fill was classified against
/// (`Kind::of`), so every state a loop looks for is there.
fn run_fill(fill: &Fill<'_>, slots: &mut [AggState], rows: &[u32], poss: &[u32]) {
    match fill {
        Fill::IntSums { col, to } => {
            let [sum, sq, cnt] = targets(slots, to);
            let (sq, cnt) = (sq.and_then(sum_sq), cnt.and_then(counts));
            match sum {
                Some(AggState::SumI { s, has }) => sums_with(*col, IntSum(s, has), sq, cnt, rows, poss),
                Some(AggState::SumF { s, has }) => sums_with(*col, F64Sum(s, has), sq, cnt, rows, poss),
                _ => sums_with(*col, NoSum, sq, cnt, rows, poss),
            }
        }
        Fill::F64Sums { col, to } => {
            let [sum, sq, cnt] = targets(slots, to);
            let (sq, cnt) = (sq.and_then(sum_sq), cnt.and_then(counts));
            match sum {
                Some(AggState::SumF { s, has }) => sums_with(*col, F64Sum(s, has), sq, cnt, rows, poss),
                _ => sums_with(*col, NoSum, sq, cnt, rows, poss),
            }
        }
        Fill::CountStar(s) => {
            if let Some(c) = counts(&mut slots[*s]) {
                for &p in poss {
                    c[p as usize] += 1;
                }
            }
        }
        Fill::CountCol(column, s) => {
            if let Some(c) = counts(&mut slots[*s]) {
                match column.validity() {
                    None => {
                        for &p in poss {
                            c[p as usize] += 1;
                        }
                    }
                    Some(vb) => {
                        for (&i, &p) in rows.iter().zip(poss) {
                            c[p as usize] += vb.get(i as usize) as i64;
                        }
                    }
                }
            }
        }
        Fill::MinMaxInt { col: (data, valid), max, slot } => {
            if let AggState::MinMaxI { m, has } = &mut slots[*slot] {
                let max = *max;
                let fold = move |acc: &mut i64, v, h| fold_min_max_i(acc, v, h, max);
                valued_loop(rows, poss, data, *valid, fold, m, has);
            }
        }
        Fill::MinMaxF64 { col: (data, valid), max, slot } => {
            if let AggState::MinMaxF { m, has } = &mut slots[*slot] {
                let max = *max;
                let fold = move |acc: &mut f64, v, h| fold_min_max_f(acc, v, h, max);
                valued_loop(rows, poss, data, *valid, fold, m, has);
            }
        }
        Fill::MinMaxStr { col: (codes, dict, valid), max, slot } => {
            if let AggState::MinMaxS { m } = &mut slots[*slot] {
                each_valid(rows, poss, *valid, |i, p| fold_min_max_s(&mut m[p], &dict[codes[i] as usize], *max));
            }
        }
    }
}

/// The states of a pass of sums' slots — its SUM, SUM of squares and
/// COUNT, each where it has one — borrowed at once.
fn targets<'s>(slots: &'s mut [AggState], to: &Sums) -> [Option<&'s mut AggState>; 3] {
    let want = [to.sum, to.sq, to.cnt];
    let mut out = [None, None, None];
    for (s, st) in slots.iter_mut().enumerate() {
        if let Some(k) = want.iter().position(|&w| w == Some(s)) {
            out[k] = Some(st);
        }
    }
    out
}

/// A number a pass of sums adds up: as the `f64` that a SUM as `f64` and
/// a SUM of squares add.
trait Num: Copy {
    fn f64(self) -> f64;
}

impl Num for i64 {
    #[inline]
    fn f64(self) -> f64 {
        self as f64
    }
}

impl Num for f64 {
    #[inline]
    fn f64(self) -> f64 {
        self
    }
}

/// The SUM slot a pass of sums adds each value to, if it has one.
trait SumTo<X> {
    fn add(&mut self, p: usize, x: X);
}

/// No SUM slot.
struct NoSum;

impl<X> SumTo<X> for NoSum {
    #[inline]
    fn add(&mut self, _: usize, _: X) {}
}

/// The wrapping SUM of an `Int` input.
struct IntSum<'s>(&'s mut [i64], &'s mut [bool]);

impl SumTo<i64> for IntSum<'_> {
    #[inline]
    fn add(&mut self, p: usize, x: i64) {
        fold_sum_i(&mut self.0[p], x, self.1[p]);
        self.1[p] = true;
    }
}

/// A `Double` SUM: of a `Double` input, or of an `Int` one as `f64`.
struct F64Sum<'s>(&'s mut [f64], &'s mut [bool]);

impl<X: Num> SumTo<X> for F64Sum<'_> {
    #[inline]
    fn add(&mut self, p: usize, x: X) {
        fold_sum_f(&mut self.0[p], x.f64(), self.1[p]);
        self.1[p] = true;
    }
}

/// Run a pass of sums over `col` into `sum` and, where it has them, `sq`
/// and `cnt`. Which of them it has picks the loop, once per pass, so no
/// row tests for a slot.
fn sums_with<X: Num>(
    col: (&[X], Option<&Bitmap>),
    sum: impl SumTo<X>,
    sq: Option<&mut [f64]>,
    cnt: Option<&mut [i64]>,
    rows: &[u32],
    poss: &[u32],
) {
    match (sq, cnt) {
        (Some(q), Some(c)) => sums::<X, _, true, true>(col, sum, q, c, rows, poss),
        (Some(q), None) => sums::<X, _, true, false>(col, sum, q, &mut [], rows, poss),
        (None, Some(c)) => sums::<X, _, false, true>(col, sum, &mut [], c, rows, poss),
        (None, None) => sums::<X, _, false, false>(col, sum, &mut [], &mut [], rows, poss),
    }
}

/// One pass of sums of a shape fixed at compile time: every valid value
/// into `sum`, its square (as `f64`) into `sq` if `SQ`, one into `cnt` if
/// `CNT`.
#[inline]
fn sums<X: Num, S: SumTo<X>, const SQ: bool, const CNT: bool>(
    (data, valid): (&[X], Option<&Bitmap>),
    mut sum: S,
    sq: &mut [f64],
    cnt: &mut [i64],
    rows: &[u32],
    poss: &[u32],
) {
    each_valid(rows, poss, valid, |i, p| {
        let x = data[i];
        sum.add(p, x);
        if SQ {
            let f = x.f64();
            sq[p] = f64_add(sq[p], f * f);
        }
        if CNT {
            cnt[p] += 1;
        }
    });
}

/// A SUM of squares state's array.
fn sum_sq(st: &mut AggState) -> Option<&mut [f64]> {
    match st {
        AggState::SumSq(q) => Some(q),
        _ => None,
    }
}

/// A COUNT state's array.
fn counts(st: &mut AggState) -> Option<&mut [i64]> {
    match st {
        AggState::Count(c) => Some(c),
        _ => None,
    }
}

/// Apply `f(row, pos)` to every selected pair whose detail row is valid.
#[inline]
fn each_valid(rows: &[u32], poss: &[u32], valid: Option<&Bitmap>, mut f: impl FnMut(usize, usize)) {
    match valid {
        None => {
            for (&i, &p) in rows.iter().zip(poss) {
                f(i as usize, p as usize);
            }
        }
        Some(vb) => {
            for (&i, &p) in rows.iter().zip(poss) {
                if vb.get(i as usize) {
                    f(i as usize, p as usize);
                }
            }
        }
    }
}

/// The shared shape of the null-skipping MIN/MAX loops: apply `fold` to
/// the slot of every selected pair whose detail value is valid, then mark
/// the slot present.
#[inline]
fn valued_loop<T: Copy>(
    rows: &[u32],
    poss: &[u32],
    data: &[T],
    valid: Option<&Bitmap>,
    fold: impl Fn(&mut T, T, bool),
    acc: &mut [T],
    has: &mut [bool],
) {
    each_valid(rows, poss, valid, |i, p| {
        fold(&mut acc[p], data[i], has[p]);
        has[p] = true;
    });
}

/// Evaluate a GMDJ through the columnar kernel: the merged typed states
/// of every slot over the base positions, in base order, and every base
/// tuple's match flag — what both of a site's answers are read off
/// ([`crate::eval::eval_shipped`], [`crate::eval::eval_full`]).
pub(crate) fn eval_columnar(
    base: &Relation,
    detail: &Relation,
    gmdj: &Gmdj,
    opts: EvalOptions,
    obs: &Obs,
    site: usize,
) -> Result<(AccStates, Vec<bool>)> {
    let (layout, blocks) = prepare_blocks(gmdj, base.schema(), detail.schema())?;
    assert!(detail.len() < u32::MAX as usize, "detail relation too large");

    // Per aggregate, in layout order, the slots of its block that it is
    // the first to need: what its loop fills, if it runs one.
    let new = layout.first_needs();
    // Computed aggregate inputs of the aggregates that run a loop, each
    // evaluated once over the detail rows.
    let inputs = blocks.iter().zip(&gmdj.blocks).flat_map(|(pb, b)| b.aggs.iter().zip(&pb.aggs));
    let computed = inputs
        .zip(&new)
        .map(|((spec, input), new)| match input {
            Some(e) if !new.is_empty() && !matches!(e, BoundExpr::Col(Side::Detail, _)) => {
                computed_column(spec, e, detail).map(Some)
            }
            _ => Ok(None),
        })
        .collect::<Result<Vec<_>>>()?;

    // Lower blocks: share canonical pairs between blocks with identical
    // equi-keys, classify every residual conjunct and aggregate loop
    // against the column layouts — which builds exactly the detail
    // columns this operator touches.
    let mut cache: HashMap<(Vec<usize>, Vec<usize>), usize> = HashMap::new();
    let mut pairs: Vec<CanonPair> = Vec::new();
    let mut cblocks = Vec::with_capacity(blocks.len());
    let mut gi = 0usize;
    for (bi, pb) in blocks.iter().enumerate() {
        let pair = if !pb.base_keys.is_empty() {
            let key = (pb.base_keys.clone(), pb.detail_keys.clone());
            let slot = *cache.entry(key).or_insert_with(|| {
                pairs.push(CanonPair::build(base, detail, &pb.base_keys, &pb.detail_keys));
                pairs.len() - 1
            });
            Some(slot)
        } else {
            None
        };
        let mut residual = Vec::new();
        if !pb.trivial_condition {
            lower_residual(&pb.condition, base, detail, &mut residual);
        }
        let mut fills = Vec::with_capacity(pb.aggs.len());
        for (spec, input) in gmdj.blocks[bi].aggs.iter().zip(&pb.aggs) {
            if !new[gi].is_empty() {
                let column = match input {
                    Some(BoundExpr::Col(Side::Detail, c)) => Some(detail.column(*c)),
                    _ => computed[gi].as_ref(),
                };
                fills.push(classify(&layout, &new[gi], spec, column)?);
            }
            gi += 1;
        }
        cblocks.push(ColBlock {
            pair,
            residual,
            fills,
        });
    }

    let (morsel_rows, n_morsels) = morsels(detail.len(), opts);
    let kernel = ColKernel {
        base,
        detail,
        layout: &layout,
        blocks: cblocks,
        pairs,
        morsel_rows,
        n_morsels,
    };
    let merged = drive(&kernel, opts, obs, site)?;
    Ok((AccStates::of_states(layout, merged.slots), merged.matched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggFunc, AggSpec};
    use crate::eval::{eval_full, eval_local};
    use crate::oracle::{finalize_rows, serial_local};
    use crate::theta::ThetaBuilder;
    use skalla_relation::{row, DataType, Expr, Row, Schema};

    fn opts() -> EvalOptions {
        EvalOptions {
            parallelism: 1,
            ..EvalOptions::default()
        }
    }

    /// The row reference kernel's finalized answer.
    fn full_rows(b: &Relation, d: &Relation, g: &Gmdj) -> Relation {
        let local = serial_local(b, d, g, opts()).unwrap();
        finalize_rows(&local.physical, b.schema().len(), g, d.schema()).unwrap()
    }

    fn detail() -> Relation {
        Relation::new(
            Schema::of(&[
                ("g", DataType::Int),
                ("v", DataType::Int),
                ("x", DataType::Double),
                ("s", DataType::Str),
            ]),
            vec![
                row![1i64, 10i64, 1.5, "a"],
                row![1i64, 20i64, -0.0, "b"],
                row![2i64, 5i64, f64::NAN, "a"],
                row![2i64, 7i64, 2.5, Value::Null],
                row![2i64, Value::Null, 0.25, "c"],
            ],
        )
        .unwrap()
    }

    fn base() -> Relation {
        Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            vec![row![1i64], row![2i64], row![3i64]],
        )
        .unwrap()
    }

    fn wide_gmdj() -> Gmdj {
        Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![
                AggSpec::count("cnt"),
                AggSpec::over_expr(AggFunc::Count, Expr::dcol("v"), "cnt_v"),
                AggSpec::sum("v", "sum_v"),
                AggSpec::sum("x", "sum_x"),
                AggSpec::min("v", "min_v"),
                AggSpec::max("x", "max_x"),
                AggSpec::avg("v", "avg_v"),
                AggSpec::avg("x", "avg_x"),
                AggSpec::var("x", "var_x"),
                AggSpec::min("s", "min_s"),
                AggSpec::over_expr(
                    AggFunc::Sum,
                    Expr::dcol("v").mul(Expr::lit(2i64)),
                    "sum_2v",
                ),
            ],
        )
    }

    /// Bitwise comparison of two local results (PartialEq on Double is
    /// not bitwise: -0.0 == 0.0 and NaN payloads compare equal).
    fn assert_bits_equal(a: &crate::eval::LocalGmdj, b: &crate::eval::LocalGmdj) {
        assert_eq!(a.matched, b.matched);
        assert_eq!(a.physical.len(), b.physical.len());
        for (ra, rb) in a.physical.iter().zip(b.physical.iter()) {
            for (va, vb) in ra.values().iter().zip(rb.values()) {
                match (va, vb) {
                    (Value::Double(x), Value::Double(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits(), "double bits differ")
                    }
                    _ => assert_eq!(va, vb),
                }
            }
        }
    }

    #[test]
    fn columnar_matches_row_kernel_wide_aggregates() {
        let col = eval_local(&base(), &detail(), &wide_gmdj(), opts()).unwrap();
        let rowk = serial_local(&base(), &detail(), &wide_gmdj(), opts()).unwrap();
        assert_bits_equal(&col, &rowk);
    }

    #[test]
    fn columnar_matches_row_kernel_tiny_morsels_and_threads() {
        for morsel_rows in [1usize, 2, 3] {
            for p in [1usize, 2, 4] {
                let col = eval_local(
                    &base(),
                    &detail(),
                    &wide_gmdj(),
                    EvalOptions {
                        morsel_rows,
                        parallelism: p,
                    },
                )
                .unwrap();
                let rowk = serial_local(
                    &base(),
                    &detail(),
                    &wide_gmdj(),
                    EvalOptions {
                        morsel_rows,
                        ..opts()
                    },
                )
                .unwrap();
                assert_bits_equal(&col, &rowk);
            }
        }
    }

    #[test]
    fn columnar_nested_loop_and_residual() {
        // Non-equi θ forces the nested loop; a residual exercises
        // eval_cols against the columnar store.
        let b = Relation::new(
            Schema::of(&[("lo", DataType::Int)]),
            vec![row![0i64], row![8i64]],
        )
        .unwrap();
        let g = Gmdj::new("t").block(
            Expr::dcol("v").ge(Expr::bcol("lo")),
            vec![AggSpec::count("cnt"), AggSpec::sum("x", "sx")],
        );
        let col = eval_full(&b, &detail(), &g, opts(), &Obs::disabled(), 0).unwrap();
        let rowk = full_rows(&b, &detail(), &g);
        assert_eq!(col, rowk);
        // Group-by with an extra residual conjunct (hash path + residual).
        let g2 = Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"])
                .and(Expr::dcol("v").gt(Expr::lit(6i64)))
                .build(),
            vec![AggSpec::count("cnt"), AggSpec::max("v", "mx")],
        );
        let col = eval_full(&base(), &detail(), &g2, opts(), &Obs::disabled(), 0).unwrap();
        let rowk = full_rows(&base(), &detail(), &g2);
        assert_eq!(col, rowk);
    }

    /// The typed comparisons of an `Int` against a `Double` order the two
    /// exactly as [`Value`]'s `Ord` does, past 2⁵³ and at 2⁶³ too.
    #[test]
    fn int_double_comparisons_are_exact() {
        let big = 1i64 << 53;
        let ints = [0, -1, big, big + 1, -big - 1, i64::MAX, i64::MIN, i64::MAX - 1];
        let doubles = [
            0.0,
            -0.0,
            big as f64,
            -(big as f64),
            9_223_372_036_854_775_808.0,
            -9_223_372_036_854_775_808.0,
            2.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for &i in &ints {
            for &d in &doubles {
                let want = Value::Int(i).cmp(&Value::Double(d));
                let got = (i.lt(d), i.gt(d), TotalCmp::eq(i, d));
                let flip = (d.gt(i), d.lt(i), TotalCmp::eq(d, i));
                let expect = (want.is_lt(), want.is_gt(), want.is_eq());
                assert_eq!(got, expect, "{i} vs {d}");
                assert_eq!(flip, expect, "{d} vs {i}");
            }
        }
    }

    #[test]
    fn typed_residual_matches_eval_cols() {
        // Every CmpOp × {Int, Double} detail column (with NULL, NaN, -0.0)
        // × {Int, Double, Str base column, literal} right-hand side holding
        // Int, Double, NaN, NULL and a string — in both operand orders.
        // Each case runs the filter over every (row, position) candidate,
        // behind a prefix of pairs it must leave alone.
        let d = Relation::new(
            Schema::of(&[("i", DataType::Int), ("x", DataType::Double)]),
            vec![
                row![1i64, 1.0],
                row![2i64, -0.0],
                row![Value::Null, f64::NAN],
                row![-3i64, Value::Null],
                row![0i64, 1.5],
            ],
        )
        .unwrap();
        let rhs_values = [
            Value::Int(1),
            Value::Int(0),
            Value::Double(1.0),
            Value::Double(1.5),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Null,
            Value::str("s"),
        ];
        let b = Relation::new(
            Schema::of(&[("yi", DataType::Int), ("yd", DataType::Double), ("ys", DataType::Str)]),
            vec![
                row![1i64, 1.0, "s"],
                row![0i64, 1.5, Value::Null],
                row![Value::Null, -0.0, ""],
                row![-3i64, f64::NAN, "s"],
                row![2i64, Value::Null, Value::Null],
                row![1i64, 0.0, "b"],
                row![0i64, -3.0, "a"],
                row![Value::Null, 2.0, "s"],
            ],
        )
        .unwrap();
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let mut rhs_exprs = vec![Expr::bcol("yi"), Expr::bcol("yd"), Expr::bcol("ys")];
        rhs_exprs.extend(rhs_values.iter().cloned().map(Expr::Lit));
        let prefix = [(4u32, 7u32), (0, 0), (2, 3)];
        let mut checked = 0;
        for op in ops {
            for col in ["i", "x"] {
                for rhs in &rhs_exprs {
                    for flip in [false, true] {
                        let (l, r) = (Box::new(Expr::dcol(col)), Box::new(rhs.clone()));
                        let e = if flip { Expr::Cmp(op, r, l) } else { Expr::Cmp(op, l, r) };
                        let bound = e.bind(b.schema(), Some(d.schema())).unwrap();
                        let typed = TypedCmp::lower(&bound, &b, &d).expect("typed shape");
                        let candidates = prefix.iter().copied().chain(
                            (0..b.len() as u32).flat_map(|pos| (0..d.len() as u32).map(move |i| (i, pos))),
                        );
                        let mut sel = Pairs::default();
                        let (rows, poss) = sel.room(prefix.len() + b.len() * d.len());
                        for ((i, pos), (r, p)) in candidates.zip(rows.iter_mut().zip(poss.iter_mut())) {
                            *r = i;
                            *p = pos;
                        }
                        sel.len = rows.len();
                        typed.filter(&mut sel, prefix.len());
                        let got: Vec<(u32, u32)> =
                            sel.rows().iter().copied().zip(sel.poss().iter().copied()).collect();
                        assert_eq!(got[..prefix.len()], prefix, "{e}: prefix");
                        let mut want = Vec::new();
                        for pos in 0..b.len() {
                            for i in 0..d.len() {
                                if bound.eval_cols(Some((&b, pos)), Some((&d, i))).unwrap().is_truthy() {
                                    want.push((i as u32, pos as u32));
                                }
                                checked += 1;
                            }
                        }
                        assert_eq!(got[prefix.len()..], want, "{e}");
                    }
                }
            }
        }
        assert_eq!(checked, 6 * 2 * 11 * 2 * 8 * 5);
        // Other shapes stay interpreted: a string column, a
        // computed side, two detail columns.
        let s = detail();
        for e in [
            Expr::dcol("s").ge(Expr::lit("a")),
            Expr::dcol("v").ge(Expr::bcol("g").mul(Expr::lit(2i64))),
            Expr::dcol("v").ge(Expr::dcol("g")),
            Expr::dcol("v").in_list(vec![Value::Int(1)]),
        ] {
            let bound = e.bind(base().schema(), Some(s.schema())).unwrap();
            assert!(TypedCmp::lower(&bound, &base(), &s).is_none(), "{e}");
        }
        // A conjunction lowers conjunct by conjunct, in order.
        let e = Expr::dcol("v")
            .gt(Expr::lit(6i64))
            .and(Expr::dcol("s").ne(Expr::lit("b")))
            .and(Expr::dcol("x").le(Expr::bcol("g")));
        let bound = e.bind(base().schema(), Some(s.schema())).unwrap();
        let mut out = Vec::new();
        lower_residual(&bound, &base(), &s, &mut out);
        assert!(matches!(
            out[..],
            [Conjunct::Typed(_), Conjunct::Interpreted(_), Conjunct::Typed(_)]
        ));
    }

    /// Forty detail rows over four keys, with NULL, NaN and -0.0 spread
    /// through every column.
    fn spiky_detail() -> Relation {
        let rows = (0..40i64)
            .map(|i| {
                let v = if i % 9 == 4 { Value::Null } else { Value::Int((i * 7) % 13 - 3) };
                let x = match i {
                    _ if i % 5 == 2 => Value::Double(f64::NAN),
                    _ if i % 7 == 3 => Value::Double(-0.0),
                    _ if i % 11 == 6 => Value::Null,
                    _ if i % 6 == 1 => Value::Double(0.0),
                    _ => Value::Double(i as f64 * 0.37 - 4.0),
                };
                let s = if i % 8 == 5 { Value::Null } else { Value::str(["a", "b", "c"][i as usize % 3]) };
                Row::new(vec![Value::Int(i % 4), v, x, s])
            })
            .collect();
        Relation::new(
            Schema::of(&[
                ("g", DataType::Int),
                ("v", DataType::Int),
                ("x", DataType::Double),
                ("s", DataType::Str),
            ]),
            rows,
        )
        .unwrap()
    }

    /// Seven base tuples repeating keys 0 and 1 (5 is in no detail row):
    /// `lo` doubles with NULL, NaN and both zeros, `hi` ints with NULL,
    /// `y` integral and fractional doubles with a NULL and a NaN, `t`
    /// strings with a NULL.
    fn spiky_base() -> Relation {
        Relation::new(
            Schema::of(&[
                ("g", DataType::Int),
                ("lo", DataType::Double),
                ("hi", DataType::Int),
                ("y", DataType::Double),
                ("t", DataType::Str),
            ]),
            vec![
                row![0i64, 0.0, 5i64, 2.0, "s"],
                row![1i64, -0.0, 3i64, -0.5, Value::Null],
                row![1i64, f64::NAN, Value::Null, Value::Null, "a"],
                row![2i64, Value::Null, 10i64, 0.5, "s"],
                row![0i64, 1.5, 0i64, -1.0, ""],
                row![3i64, -2.0, 7i64, f64::NAN, "b"],
                row![5i64, 3.25, 2i64, 0.0, Value::Null],
            ],
        )
        .unwrap()
    }

    /// The kernel against the row reference, bit for bit, at every morsel
    /// size and thread count of the filter's spec.
    fn assert_matches_reference(b: &Relation, d: &Relation, g: &Gmdj) {
        for morsel_rows in [1usize, 2, 3, 65_536] {
            let reference = serial_local(b, d, g, EvalOptions { morsel_rows, ..opts() }).unwrap();
            assert!(reference.matched.iter().any(|&m| m), "the case matches something");
            for parallelism in [1usize, 2, 4] {
                let o = EvalOptions {
                    morsel_rows,
                    parallelism,
                };
                assert_bits_equal(&eval_local(b, d, g, o).unwrap(), &reference);
            }
        }
    }

    #[test]
    fn candidate_filter_matches_reference_bits() {
        let (b, d) = (spiky_base(), spiky_detail());
        let by_g = || ThetaBuilder::group_by(&["g"]);
        // One block's aggregates, their names suffixed with `k`.
        let aggs = |k: u8| {
            vec![
                AggSpec::count(format!("cnt{k}")),
                AggSpec::sum("x", format!("sum_x{k}")),
                AggSpec::avg("v", format!("avg_v{k}")),
                AggSpec::max("x", format!("max_x{k}")),
                AggSpec::var("x", format!("var_x{k}")),
                AggSpec::min("s", format!("min_s{k}")),
            ]
        };
        let cases = [
            // Duplicate equi-keys: the chain sweep, without and with a
            // residual over NULL, NaN and -0.0 on both sides.
            ("duplicate keys", Gmdj::new("t").block(by_g().build(), aggs(1))),
            (
                "duplicate keys, residual",
                Gmdj::new("t")
                    .block(by_g().and(Expr::dcol("x").ge(Expr::bcol("lo"))).build(), aggs(1))
                    .block(by_g().and(Expr::dcol("x").eq(Expr::bcol("lo"))).build(), aggs(2)),
            ),
            // Two typed conjuncts around an interpreted one.
            (
                "typed, interpreted, typed",
                Gmdj::new("t").block(
                    by_g()
                        .and(Expr::dcol("v").gt(Expr::lit(0i64)))
                        .and(Expr::dcol("s").ne(Expr::lit("b")))
                        .and(Expr::dcol("x").le(Expr::bcol("hi")))
                        .build(),
                    aggs(1),
                ),
            ),
            // Right-hand sides of another type than the detail column:
            // doubles (with NULL and NaN) against ints, strings against
            // both numeric types.
            (
                "cross-type right-hand sides",
                Gmdj::new("t")
                    .block(by_g().and(Expr::dcol("x").ge(Expr::bcol("y"))).build(), aggs(1))
                    .block(by_g().and(Expr::bcol("y").gt(Expr::dcol("v"))).build(), aggs(2))
                    .block(by_g().and(Expr::dcol("v").lt(Expr::bcol("t"))).build(), aggs(3))
                    .block(by_g().and(Expr::bcol("t").le(Expr::dcol("x"))).build(), aggs(4)),
            ),
            // Nested-loop blocks: no equi-key, candidates per position.
            (
                "nested loop",
                Gmdj::new("t")
                    .block(
                        Expr::dcol("v")
                            .ge(Expr::bcol("hi"))
                            .and(Expr::dcol("x").lt(Expr::bcol("lo")).or(Expr::dcol("s").eq(Expr::lit("c")))),
                        aggs(1),
                    )
                    .block(Expr::dcol("x").ne(Expr::bcol("y")), aggs(2)),
            ),
        ];
        for (name, g) in &cases {
            eprintln!("case: {name}");
            assert_matches_reference(&b, &d, g);
        }
        // The cases reach every right-hand-side shape, and the chain.
        let rhs = |e: Expr| {
            let bound = e.bind(b.schema(), Some(d.schema())).unwrap();
            TypedCmp::lower(&bound, &b, &d).expect("typed shape").rhs
        };
        assert!(matches!(rhs(Expr::dcol("x").ge(Expr::bcol("lo"))), Rhs::F64(_, Some(_))));
        assert!(matches!(rhs(Expr::dcol("x").le(Expr::bcol("hi"))), Rhs::Int(_, Some(_))));
        assert!(matches!(rhs(Expr::dcol("v").gt(Expr::lit(0i64))), Rhs::Int(_, None)));
        assert!(matches!(rhs(Expr::dcol("v").lt(Expr::bcol("y"))), Rhs::F64(_, Some(_))));
        assert!(matches!(rhs(Expr::dcol("v").lt(Expr::bcol("t"))), Rhs::Int(_, Some(_))));
        assert!(!CanonPair::build(&b, &d, &[0], &[0]).eqnext.is_empty());
        assert!(CanonPair::build(&base(), &d, &[0], &[0]).eqnext.is_empty());
    }

    #[test]
    fn columnar_string_keys_probe_dictionary_codes() {
        let b = Relation::new(
            Schema::of(&[("s", DataType::Str)]),
            vec![row!["a"], row!["c"], row!["zzz"]],
        )
        .unwrap();
        let g = Gmdj::new("t").block(
            ThetaBuilder::group_by(&["s"]).build(),
            vec![AggSpec::count("cnt"), AggSpec::sum("v", "sv")],
        );
        let col = eval_full(&b, &detail(), &g, opts(), &Obs::disabled(), 0).unwrap();
        let rowk = full_rows(&b, &detail(), &g);
        assert_eq!(col, rowk);
        // "zzz" appears nowhere in the detail dictionary.
        assert_eq!(col.rows()[2], row!["zzz", 0i64, Value::Null]);
    }

    #[test]
    fn columnar_cross_type_key_columns() {
        // An INT base key against a DOUBLE detail key matches by value
        // equality: Int(1) = 1.0, Int(0) = -0.0, NULL = NULL; NaN and 2.5
        // match no integer. A STR base key matches no number.
        let d = Relation::new(
            Schema::of(&[("k", DataType::Double), ("v", DataType::Int)]),
            vec![
                row![1.0, 10i64],
                row![2.5, 20i64],
                row![1.0, 30i64],
                row![-0.0, 40i64],
                row![f64::NAN, 50i64],
                row![Value::Null, 60i64],
            ],
        )
        .unwrap();
        let g = Gmdj::new("t").block(
            ThetaBuilder::group_by(&["k"]).build(),
            vec![AggSpec::sum("v", "sv")],
        );
        let ints = Relation::new(
            Schema::of(&[("k", DataType::Int)]),
            vec![row![1i64], row![0i64], row![2i64], row![Value::Null]],
        )
        .unwrap();
        let col = eval_full(&ints, &d, &g, opts(), &Obs::disabled(), 0).unwrap();
        assert_eq!(col, full_rows(&ints, &d, &g));
        let sums: Vec<Value> = col.rows().iter().map(|r| r.get(1).clone()).collect();
        assert_eq!(sums, [Value::Int(40), Value::Int(40), Value::Null, Value::Int(60)]);
        let strs = Relation::new(
            Schema::of(&[("k", DataType::Str)]),
            vec![row!["1"], row![Value::Null]],
        )
        .unwrap();
        let col = eval_full(&strs, &d, &g, opts(), &Obs::disabled(), 0).unwrap();
        assert_eq!(col, full_rows(&strs, &d, &g));
        assert_eq!(col.rows()[0].get(1), &Value::Null);
    }

    #[test]
    fn columnar_streaming_serial_matches_parallel_bits() {
        // One worker and four run the same pool loop and merge in morsel
        // order: the same bits, morsel by morsel.
        let serial = eval_local(
            &base(),
            &detail(),
            &wide_gmdj(),
            EvalOptions {
                morsel_rows: 2,
                parallelism: 1,
            },
        )
        .unwrap();
        let parallel = eval_local(
            &base(),
            &detail(),
            &wide_gmdj(),
            EvalOptions {
                morsel_rows: 2,
                parallelism: 4,
            },
        )
        .unwrap();
        assert_bits_equal(&serial, &parallel);
    }
}
