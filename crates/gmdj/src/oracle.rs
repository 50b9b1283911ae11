//! The test suites' reference semantics, written apart from the engine.
//!
//! The engine states every slot once, in the typed states of
//! [`crate::state`]. This module restates them naively, so that the
//! suites have something independent to hold the engine to:
//!
//! * a per-[`SlotKind`] fold over [`Value`]s — [`init`], [`update`] and
//!   [`merge`] — and a per-formula [`finalize`] over a layout's
//!   slots, and their forms over a whole [`AccLayout`] ([`init_all`],
//!   [`merge_all`], [`finalize_all`]) and over a physical relation's rows
//!   ([`finalize_rows`]);
//! * [`serial_local`], a serial loop over every (block, base tuple,
//!   detail tuple) pair that binds θ itself and cuts the detail into
//!   morsels itself.
//!
//! No engine path calls it.

use crate::agg::{AccLayout, Finalize, Slot, SlotKind};
use crate::eval::{EvalOptions, LocalGmdj};
use crate::operator::{Gmdj, GmdjBlock};
use crate::theta::analyze_theta;
use skalla_relation::expr::eval_arith;
use skalla_relation::{
    f64_add, total_f64_cmp, ArithOp, BoundExpr, Error, Relation, Result, Row, Schema, Value,
};
use std::cmp::Ordering;

/// A fresh slot of `kind`: its value before any input.
pub fn init(kind: SlotKind) -> Value {
    match kind {
        SlotKind::CountStar | SlotKind::Count => Value::Int(0),
        SlotKind::SumSq => Value::Double(0.0),
        SlotKind::Sum | SlotKind::SumF64 | SlotKind::Min | SlotKind::Max => Value::Null,
    }
}

/// Fold one matching detail tuple's input value into a slot of `kind`
/// (`input` is `None` for `COUNT(*)`): [`merge`] the tuple's own
/// sub-aggregate in. A NULL input counts for nothing.
pub fn update(kind: SlotKind, acc: &mut Value, input: Option<&Value>) -> Result<()> {
    let one = match (kind, input) {
        (SlotKind::CountStar, _) => Value::Int(1),
        (_, None) => return Err(Error::Plan(format!("a {kind:?} slot has no input expression"))),
        (_, Some(v)) if v.is_null() => return Ok(()),
        (SlotKind::Count, Some(_)) => Value::Int(1),
        (SlotKind::Sum | SlotKind::Min | SlotKind::Max, Some(v)) => v.clone(),
        (SlotKind::SumF64 | SlotKind::SumSq, Some(v)) => {
            let x = v
                .as_f64()
                .ok_or_else(|| Error::TypeError(format!("non-numeric input {v} for a {kind:?} slot")))?;
            Value::Double(if kind == SlotKind::SumSq { x * x } else { x })
        }
    };
    merge(kind, acc, &one)
}

/// Merge the sub-aggregate `other` into a slot of `kind` holding `acc`
/// (the coordinator's super-aggregate step).
pub fn merge(kind: SlotKind, acc: &mut Value, other: &Value) -> Result<()> {
    match kind {
        SlotKind::CountStar | SlotKind::Count => {
            let n = other
                .as_i64()
                .ok_or_else(|| Error::TypeError(format!("count merge with non-int {other}")))?;
            *acc = Value::Int(acc.as_i64().unwrap_or(0) + n);
        }
        SlotKind::Min | SlotKind::Max => keep_min_max(kind == SlotKind::Max, acc, other),
        SlotKind::Sum | SlotKind::SumF64 if other.is_null() => {}
        SlotKind::Sum | SlotKind::SumF64 => {
            *acc = match &*acc {
                Value::Null => other.clone(),
                sum => eval_arith(ArithOp::Add, sum, other)?,
            }
        }
        SlotKind::SumSq => {
            let (x, y) = (acc.as_f64().unwrap_or(0.0), other.as_f64().unwrap_or(0.0));
            *acc = Value::Double(f64_add(x, y));
        }
    }
    Ok(())
}

/// The logical value of an aggregate whose formula is `fin`, from the
/// (fully merged) slots `acc` of its layout.
pub fn finalize(fin: Finalize, acc: &[Value]) -> Result<Value> {
    let count = |c: usize| acc[c].as_i64().unwrap_or(0) as f64;
    match fin {
        Finalize::Slot(s) => Ok(acc[s].clone()),
        Finalize::Avg { cnt, .. } | Finalize::Var { cnt, .. } if count(cnt) == 0.0 => Ok(Value::Null),
        Finalize::Avg { sum, cnt } => {
            let s = acc[sum]
                .as_f64()
                .ok_or_else(|| Error::TypeError(format!("AVG sum is non-numeric: {}", acc[sum])))?;
            Ok(Value::Double(s / count(cnt)))
        }
        Finalize::Var { sum, sq, cnt, stddev } => {
            // E[x²] − E[x]², clamped against rounding noise.
            let n = count(cnt);
            let mean = acc[sum].as_f64().unwrap_or(0.0) / n;
            let var = (acc[sq].as_f64().unwrap_or(0.0) / n - mean * mean).max(0.0);
            Ok(Value::Double(if stddev { var.sqrt() } else { var }))
        }
    }
}

/// A fresh accumulator of every slot of `layout`, in slot order.
pub fn init_all(layout: &AccLayout) -> Vec<Value> {
    layout.slots().iter().map(|s| init(s.kind)).collect()
}

/// [`merge`] of every slot of `layout`: `src`'s slots into `dst`'s.
pub fn merge_all(layout: &AccLayout, dst: &mut [Value], src: &[Value]) -> Result<()> {
    for ((slot, d), s) in layout.slots().iter().zip(dst).zip(src) {
        merge(slot.kind, d, s)?;
    }
    Ok(())
}

/// [`finalize`] of every aggregate of `layout`, in output order.
pub fn finalize_all(layout: &AccLayout, acc: &[Value]) -> Result<Vec<Value>> {
    layout.aggs().iter().map(|(_, _, fin)| finalize(*fin, acc)).collect()
}

/// A physical relation — `base_arity` base columns, then `gmdj`'s slots
/// over a detail of schema `detail` — finalized row by row through
/// [`finalize_all`] into `gmdj`'s logical output.
pub fn finalize_rows(physical: &Relation, base_arity: usize, gmdj: &Gmdj, detail: &Schema) -> Result<Relation> {
    let layout = gmdj.layout(detail)?;
    let base: Vec<usize> = (0..base_arity).collect();
    let schema = gmdj.output_schema(&physical.schema().project(&base)?, detail)?;
    let rows = (physical.iter())
        .map(|r| {
            let (b, acc) = r.values().split_at(base_arity);
            Ok(Row::new([b, &finalize_all(&layout, acc)?].concat()))
        })
        .collect::<Result<_>>()?;
    Relation::new(schema, rows)
}

/// MIN/MAX's order: [`Value`]'s, with the doubles it holds equal (`-0.0`
/// and `0.0`, NaNs of other payloads) told apart by their bits, so that
/// which one a fold keeps does not depend on the order it meets them.
fn min_max_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => total_f64_cmp(*x, *y).then(x.total_cmp(y)),
        _ => a.cmp(b),
    }
}

/// Keep `v` in a MIN (or, with `max`, MAX) slot if it is not NULL and
/// comes before (after) what the slot holds.
fn keep_min_max(max: bool, acc: &mut Value, v: &Value) {
    let want = if max { Ordering::Greater } else { Ordering::Less };
    if !v.is_null() && (acc.is_null() || min_max_cmp(v, acc) == want) {
        *acc = v.clone();
    }
}

/// One block with θ bound: the equi-key column pairs `analyze_theta`
/// lifts, the rest of θ (all of it when none is lifted), and its slots
/// with their inputs bound.
struct BoundBlock {
    keys: Vec<(usize, usize)>,
    rest: BoundExpr,
    slots: Vec<(usize, SlotKind, Option<BoundExpr>)>,
}

impl BoundBlock {
    fn bind(bi: usize, block: &GmdjBlock, layout: &AccLayout, base: &Schema, detail: &Schema) -> Result<BoundBlock> {
        let split = analyze_theta(&block.theta);
        let rest = if split.equi.is_empty() { &block.theta } else { &split.residual };
        let keys = split
            .equi
            .iter()
            .map(|(b, d)| Ok((base.index_of(b)?, detail.index_of(d)?)))
            .collect::<Result<_>>()?;
        let ours = layout.slots().iter().enumerate().filter(|(_, s)| s.block == bi);
        let bind = |(k, s): (usize, &Slot)| Ok((k, s.kind, s.input.as_ref().map(|e| e.bind(base, Some(detail))).transpose()?));
        Ok(BoundBlock {
            keys,
            rest: rest.bind(base, Some(detail))?,
            slots: ours.map(bind).collect::<Result<_>>()?,
        })
    }

    /// Is `r` in `b`'s range: equi keys [`Value`]-equal, the rest truthy?
    fn matches(&self, b: &Row, r: &Row) -> Result<bool> {
        if !self.keys.iter().all(|&(bk, dk)| b.get(bk) == r.get(dk)) {
            return Ok(false);
        }
        Ok(self.rest.eval(b, r)?.is_truthy())
    }
}

/// [`crate::eval::eval_local`] as one serial loop. The detail is cut into
/// morsels of `opts.morsel_rows` rows (one morsel when it is empty), the
/// kernel's decomposition. Per morsel, every slot of every base tuple
/// starts from [`init`], and the loop visits every block, base tuple and
/// detail tuple of the morsel, in that order, [`update`]-ing each of the
/// block's slots on a match. Morsel accumulators [`merge`] in morsel
/// order. So every slot sees the kernel's sequence of updates, and the
/// bits agree. `opts.parallelism` is ignored: the reference starts no
/// thread and builds no index.
pub fn serial_local(
    base: &Relation,
    detail: &Relation,
    gmdj: &Gmdj,
    opts: EvalOptions,
) -> Result<LocalGmdj> {
    let (bs, ds) = (base.schema(), detail.schema());
    gmdj.validate(bs, ds)?;
    let layout = gmdj.layout(ds)?;
    let blocks: Vec<BoundBlock> = (gmdj.blocks.iter().enumerate())
        .map(|(bi, b)| BoundBlock::bind(bi, b, &layout, bs, ds))
        .collect::<Result<_>>()?;
    let mut morsels: Vec<&[Row]> = detail.rows().chunks(opts.morsel_rows.max(1)).collect();
    if morsels.is_empty() {
        morsels.push(&[]);
    }
    let mut matched = vec![false; base.len()];
    // Per base tuple, its slots.
    let mut total: Option<Vec<Vec<Value>>> = None;
    for morsel in morsels {
        let mut accs: Vec<Vec<Value>> = base.iter().map(|_| init_all(&layout)).collect();
        for bound in &blocks {
            for (pos, b) in base.iter().enumerate() {
                for r in morsel {
                    if !bound.matches(b, r)? {
                        continue;
                    }
                    matched[pos] = true;
                    for (k, kind, input) in &bound.slots {
                        let v = input.as_ref().map(|e| e.eval(b, r)).transpose()?;
                        update(*kind, &mut accs[pos][*k], v.as_ref())?;
                    }
                }
            }
        }
        match &mut total {
            None => total = Some(accs),
            Some(total) => {
                for (dst, src) in total.iter_mut().zip(&accs) {
                    merge_all(&layout, dst, src)?;
                }
            }
        }
    }
    let rows = base.iter().zip(total.unwrap_or_default()).map(|(b, acc)| b.extend(&acc)).collect();
    Ok(LocalGmdj {
        physical: Relation::new(bs.extend(&layout.fields())?, rows)?,
        matched,
    })
}
