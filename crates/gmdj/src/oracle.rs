//! The test suites' reference semantics, written apart from the engine.
//!
//! The engine states every aggregate once, in the typed states of
//! [`crate::state`]. This module restates them naively, so that the
//! suites have something independent to hold the engine to:
//!
//! * a per-[`AggFunc`] fold over [`Value`]s — [`init`], [`update`],
//!   [`merge`] and [`finalize`], and their forms over a whole
//!   [`AccLayout`] ([`init_all`], [`merge_all`], [`finalize_all`]);
//! * [`serial_local`], a serial loop over every (block, base tuple,
//!   detail tuple) pair that binds θ itself and cuts the detail into
//!   morsels itself.
//!
//! No engine path calls it.

use crate::agg::{AccLayout, AggFunc, AggSpec};
use crate::eval::{EvalOptions, LocalGmdj};
use crate::operator::{Gmdj, GmdjBlock};
use crate::theta::analyze_theta;
use skalla_relation::expr::eval_arith;
use skalla_relation::{
    f64_add, total_f64_cmp, ArithOp, BoundExpr, Error, Relation, Result, Row, Schema, Value,
};
use std::cmp::Ordering;

/// A fresh accumulator of `a`: its physical slots before any input.
pub fn init(a: &AggSpec) -> Vec<Value> {
    match a.func {
        AggFunc::Count => vec![Value::Int(0)],
        AggFunc::Sum | AggFunc::Min | AggFunc::Max => vec![Value::Null],
        AggFunc::Avg => vec![Value::Null, Value::Int(0)],
        AggFunc::Var | AggFunc::StdDev => {
            vec![Value::Double(0.0), Value::Double(0.0), Value::Int(0)]
        }
    }
}

/// Fold one matching detail tuple's input value into `a`'s accumulator
/// (`input` is `None` for `COUNT(*)`): [`merge`] the tuple's own
/// sub-aggregate in. A NULL input counts for nothing.
pub fn update(a: &AggSpec, acc: &mut [Value], input: Option<&Value>) -> Result<()> {
    let one = match (a.func, input) {
        (AggFunc::Count, None) => vec![Value::Int(1)],
        (_, None) => return Err(Error::Plan(format!("{} has no input expression", a.func))),
        (_, Some(v)) if v.is_null() => return Ok(()),
        (AggFunc::Count, Some(_)) => vec![Value::Int(1)],
        (AggFunc::Sum | AggFunc::Min | AggFunc::Max, Some(v)) => vec![v.clone()],
        (AggFunc::Avg, Some(v)) => vec![v.clone(), Value::Int(1)],
        (AggFunc::Var | AggFunc::StdDev, Some(v)) => {
            let x = v
                .as_f64()
                .ok_or_else(|| Error::TypeError(format!("non-numeric input {v} for {}", a.func)))?;
            vec![Value::Double(x), Value::Double(x * x), Value::Int(1)]
        }
    };
    merge(a, acc, &one)
}

/// Merge the sub-aggregate `other` into `a`'s accumulator `acc` (the
/// coordinator's super-aggregate step).
pub fn merge(a: &AggSpec, acc: &mut [Value], other: &[Value]) -> Result<()> {
    match a.func {
        AggFunc::Count => {}
        AggFunc::Min | AggFunc::Max => keep_min_max(a, &mut acc[0], &other[0]),
        AggFunc::Sum | AggFunc::Avg if other[0].is_null() => {}
        AggFunc::Sum | AggFunc::Avg => {
            acc[0] = match &acc[0] {
                Value::Null => other[0].clone(),
                sum => eval_arith(ArithOp::Add, sum, &other[0])?,
            }
        }
        AggFunc::Var | AggFunc::StdDev => {
            for k in 0..2 {
                let (x, y) = (acc[k].as_f64().unwrap_or(0.0), other[k].as_f64().unwrap_or(0.0));
                acc[k] = Value::Double(f64_add(x, y));
            }
        }
    }
    // COUNT's slot, and AVG's and VAR's last one, is a count.
    if matches!(a.func, AggFunc::Count | AggFunc::Avg | AggFunc::Var | AggFunc::StdDev) {
        let c = acc.len() - 1;
        let n = other[c]
            .as_i64()
            .ok_or_else(|| Error::TypeError(format!("count merge with non-int {}", other[c])))?;
        acc[c] = Value::Int(acc[c].as_i64().unwrap_or(0) + n);
    }
    Ok(())
}

/// The logical value of `a`'s (fully merged) accumulator.
pub fn finalize(a: &AggSpec, acc: &[Value]) -> Result<Value> {
    let cnt = acc[acc.len() - 1].as_i64().unwrap_or(0) as f64;
    match a.func {
        AggFunc::Count | AggFunc::Sum | AggFunc::Min | AggFunc::Max => Ok(acc[0].clone()),
        _ if cnt == 0.0 => Ok(Value::Null),
        AggFunc::Avg => {
            let sum = acc[0]
                .as_f64()
                .ok_or_else(|| Error::TypeError(format!("AVG sum is non-numeric: {}", acc[0])))?;
            Ok(Value::Double(sum / cnt))
        }
        AggFunc::Var | AggFunc::StdDev => {
            // E[x²] − E[x]², clamped against rounding noise.
            let mean = acc[0].as_f64().unwrap_or(0.0) / cnt;
            let var = (acc[1].as_f64().unwrap_or(0.0) / cnt - mean * mean).max(0.0);
            Ok(Value::Double(if a.func == AggFunc::StdDev { var.sqrt() } else { var }))
        }
    }
}

/// A fresh accumulator of every aggregate of `layout`, in slot order.
pub fn init_all(layout: &AccLayout) -> Vec<Value> {
    layout.entries().iter().flat_map(|(_, a, _)| init(a)).collect()
}

/// [`merge`] of every aggregate of `layout`: `src`'s slots into `dst`'s.
pub fn merge_all(layout: &AccLayout, dst: &mut [Value], src: &[Value]) -> Result<()> {
    for (_, a, off) in layout.entries() {
        let w = a.acc_width();
        merge(a, &mut dst[*off..off + w], &src[*off..off + w])?;
    }
    Ok(())
}

/// [`finalize`] of every aggregate of `layout`, in output order.
pub fn finalize_all(layout: &AccLayout, acc: &[Value]) -> Result<Vec<Value>> {
    let entries = layout.entries().iter();
    entries.map(|(_, a, off)| finalize(a, &acc[*off..off + a.acc_width()])).collect()
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

/// Keep `v` in a MIN (or MAX) slot if it is not NULL and comes before
/// (after) what the slot holds.
fn keep_min_max(a: &AggSpec, acc: &mut Value, v: &Value) {
    let want = if a.func == AggFunc::Max { Ordering::Greater } else { Ordering::Less };
    if !v.is_null() && (acc.is_null() || min_max_cmp(v, acc) == want) {
        *acc = v.clone();
    }
}

/// One block with θ bound: the equi-key column pairs `analyze_theta`
/// lifts, the rest of θ (all of it when none is lifted), and the inputs.
struct BoundBlock {
    keys: Vec<(usize, usize)>,
    rest: BoundExpr,
    inputs: Vec<Option<BoundExpr>>,
}

impl BoundBlock {
    fn bind(block: &GmdjBlock, base: &Schema, detail: &Schema) -> Result<BoundBlock> {
        let split = analyze_theta(&block.theta);
        let rest = if split.equi.is_empty() { &block.theta } else { &split.residual };
        let keys = split
            .equi
            .iter()
            .map(|(b, d)| Ok((base.index_of(b)?, detail.index_of(d)?)))
            .collect::<Result<_>>()?;
        let inputs = block
            .aggs
            .iter()
            .map(|a| a.input.as_ref().map(|e| e.bind(base, Some(detail))).transpose())
            .collect::<Result<_>>()?;
        Ok(BoundBlock {
            keys,
            rest: rest.bind(base, Some(detail))?,
            inputs,
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
/// kernel's decomposition. Per morsel, every aggregate of every base tuple
/// starts from [`init`], and the loop visits every block, base tuple and
/// detail tuple of the morsel, in that order, [`update`]-ing on a match.
/// Morsel accumulators [`merge`] in morsel order. So every accumulator
/// sees the kernel's sequence of updates, and the bits agree.
/// `opts.parallelism` is ignored: the reference starts no thread and
/// builds no index.
pub fn serial_local(
    base: &Relation,
    detail: &Relation,
    gmdj: &Gmdj,
    opts: EvalOptions,
) -> Result<LocalGmdj> {
    let (bs, ds) = (base.schema(), detail.schema());
    gmdj.validate(bs, ds)?;
    let blocks: Vec<BoundBlock> =
        gmdj.blocks.iter().map(|b| BoundBlock::bind(b, bs, ds)).collect::<Result<_>>()?;
    let specs: Vec<&AggSpec> = gmdj.all_aggs().collect();
    let mut morsels: Vec<&[Row]> = detail.rows().chunks(opts.morsel_rows.max(1)).collect();
    if morsels.is_empty() {
        morsels.push(&[]);
    }
    let mut matched = vec![false; base.len()];
    // Per base tuple, per aggregate (in output order), its slots.
    let mut total: Option<Vec<Vec<Vec<Value>>>> = None;
    for morsel in morsels {
        let fresh = || specs.iter().map(|a| init(a)).collect::<Vec<_>>();
        let mut accs: Vec<Vec<Vec<Value>>> = base.iter().map(|_| fresh()).collect();
        let mut first = 0;
        for (block, bound) in gmdj.blocks.iter().zip(&blocks) {
            for (pos, b) in base.iter().enumerate() {
                for r in morsel {
                    if !bound.matches(b, r)? {
                        continue;
                    }
                    matched[pos] = true;
                    for (k, (a, input)) in block.aggs.iter().zip(&bound.inputs).enumerate() {
                        let v = input.as_ref().map(|e| e.eval(b, r)).transpose()?;
                        update(a, &mut accs[pos][first + k], v.as_ref())?;
                    }
                }
            }
            first += block.aggs.len();
        }
        match &mut total {
            None => total = Some(accs),
            Some(total) => {
                for (dst, src) in total.iter_mut().zip(&accs) {
                    for ((a, d), s) in specs.iter().zip(dst).zip(src) {
                        merge(a, d, s)?;
                    }
                }
            }
        }
    }
    let rows = base
        .iter()
        .zip(total.unwrap_or_default())
        .map(|(b, acc)| b.extend(&acc.concat()))
        .collect();
    Ok(LocalGmdj {
        physical: Relation::new(gmdj.physical_schema(bs, ds)?, rows)?,
        matched,
    })
}
