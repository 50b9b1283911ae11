//! Aggregate functions with sub-/super-aggregate decomposition.
//!
//! Following Gray et al. (the data cube paper), every aggregate the paper
//! uses is *distributive* (COUNT, SUM, MIN, MAX) or *algebraic* (AVG): a
//! site can compute a fixed-width **sub-aggregate** over its partition, the
//! coordinator **merges** sub-aggregates into a **super-aggregate**, and a
//! final **finalize** step produces the logical value. This decomposition is
//! what lets Skalla ship only aggregate structures (Theorem 1).
//!
//! Each [`AggSpec`] lowers to one or two *physical accumulator columns*
//! (AVG → SUM + COUNT). Shipped relations and the coordinator's working
//! base-result structure carry physical columns; finalization happens once,
//! when a GMDJ's rounds complete.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use skalla_relation::expr::eval_arith;
use skalla_relation::{f64_add, ArithOp, DataType, Error, Expr, Field, Result, Schema, Side, Value};
use std::fmt;

/// The aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` (no input) or `COUNT(expr)` (counts non-null inputs).
    Count,
    /// `SUM(expr)`; `NULL` over an empty range.
    Sum,
    /// `MIN(expr)`; works on strings too.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`; algebraic — decomposes into SUM and COUNT.
    Avg,
    /// Population variance `VAR(expr)`; algebraic — decomposes into
    /// SUM, SUM of squares and COUNT.
    Var,
    /// Population standard deviation `STDDEV(expr)` (√VAR).
    StdDev,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
            AggFunc::Var => "VAR",
            AggFunc::StdDev => "STDDEV",
        };
        write!(f, "{s}")
    }
}

/// One aggregate to compute in a GMDJ block: a function, an optional
/// detail-side input expression, and the logical output column name.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input expression over the detail tuple (`None` only for `COUNT(*)`).
    pub input: Option<Expr>,
    /// Logical output column name (must be unique within the query).
    pub name: String,
}

impl AggSpec {
    /// `COUNT(*) → name`.
    pub fn count(name: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Count,
            input: None,
            name: name.into(),
        }
    }

    /// `SUM(column) → name`.
    pub fn sum(column: impl Into<String>, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Sum,
            input: Some(Expr::dcol(column)),
            name: name.into(),
        }
    }

    /// `AVG(column) → name`.
    pub fn avg(column: impl Into<String>, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Avg,
            input: Some(Expr::dcol(column)),
            name: name.into(),
        }
    }

    /// `MIN(column) → name`.
    pub fn min(column: impl Into<String>, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Min,
            input: Some(Expr::dcol(column)),
            name: name.into(),
        }
    }

    /// `MAX(column) → name`.
    pub fn max(column: impl Into<String>, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Max,
            input: Some(Expr::dcol(column)),
            name: name.into(),
        }
    }

    /// `VAR(column) → name` (population variance).
    pub fn var(column: impl Into<String>, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Var,
            input: Some(Expr::dcol(column)),
            name: name.into(),
        }
    }

    /// `STDDEV(column) → name` (population standard deviation).
    pub fn stddev(column: impl Into<String>, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::StdDev,
            input: Some(Expr::dcol(column)),
            name: name.into(),
        }
    }

    /// An aggregate over an arbitrary detail-side expression, e.g.
    /// `SUM(num_bytes * 8)`.
    pub fn over_expr(func: AggFunc, input: Expr, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func,
            input: Some(input),
            name: name.into(),
        }
    }

    /// Validate this spec against the detail schema: the input must be a
    /// detail-only expression of an aggregatable type.
    pub fn validate(&self, detail: &Schema) -> Result<()> {
        match (&self.func, &self.input) {
            (AggFunc::Count, _) => {}
            (_, None) => {
                return Err(Error::Plan(format!(
                    "{} aggregate {:?} requires an input expression",
                    self.func, self.name
                )))
            }
            (_, Some(e)) => {
                if e.references_side(Side::Base) {
                    return Err(Error::Plan(format!(
                        "aggregate {:?} input references the base side",
                        self.name
                    )));
                }
                let empty = Schema::of(&[]);
                let ty = e.infer_type(&empty, Some(detail))?;
                if matches!(
                    self.func,
                    AggFunc::Sum | AggFunc::Avg | AggFunc::Var | AggFunc::StdDev
                ) && ty == DataType::Str
                {
                    return Err(Error::TypeError(format!(
                        "{} over a string expression ({:?})",
                        self.func, self.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// The logical (finalized) output field.
    pub fn logical_field(&self, detail: &Schema) -> Result<Field> {
        let ty = match self.func {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg | AggFunc::Var | AggFunc::StdDev => DataType::Double,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                let e = self.input.as_ref().ok_or_else(|| {
                    Error::Plan(format!("{} without input", self.func))
                })?;
                let empty = Schema::of(&[]);
                e.infer_type(&empty, Some(detail))?
            }
        };
        Ok(Field::new(self.name.clone(), ty))
    }

    /// Number of physical accumulator slots (2 for AVG, else 1).
    pub fn acc_width(&self) -> usize {
        match self.func {
            AggFunc::Avg => 2,
            AggFunc::Var | AggFunc::StdDev => 3,
            _ => 1,
        }
    }

    /// The physical accumulator fields carried in shipped relations.
    pub fn physical_fields(&self, detail: &Schema) -> Result<Vec<Field>> {
        match self.func {
            AggFunc::Avg => {
                let e = self.input.as_ref().ok_or_else(|| {
                    Error::Plan("AVG without input".to_string())
                })?;
                let empty = Schema::of(&[]);
                let ty = e.infer_type(&empty, Some(detail))?;
                Ok(vec![
                    Field::new(format!("{}__sum", self.name), ty),
                    Field::new(format!("{}__cnt", self.name), DataType::Int),
                ])
            }
            AggFunc::Var | AggFunc::StdDev => Ok(vec![
                Field::new(format!("{}__sum", self.name), DataType::Double),
                Field::new(format!("{}__sumsq", self.name), DataType::Double),
                Field::new(format!("{}__cnt", self.name), DataType::Int),
            ]),
            _ => Ok(vec![self.logical_field(detail)?]),
        }
    }

    /// Initial accumulator values.
    pub fn init_acc(&self, out: &mut Vec<Value>) {
        match self.func {
            AggFunc::Count => out.push(Value::Int(0)),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => out.push(Value::Null),
            AggFunc::Avg => {
                out.push(Value::Null);
                out.push(Value::Int(0));
            }
            AggFunc::Var | AggFunc::StdDev => {
                out.push(Value::Double(0.0));
                out.push(Value::Double(0.0));
                out.push(Value::Int(0));
            }
        }
    }

    /// Fold one matching detail tuple's input value into the accumulator.
    /// `input` is `None` for `COUNT(*)`.
    pub fn update(&self, acc: &mut [Value], input: Option<&Value>) -> Result<()> {
        // Only COUNT(*) may come without one; specs arrive in plan frames.
        let no_input = || Error::Plan(format!("{} has no input expression", self.func));
        match self.func {
            AggFunc::Count => {
                // COUNT(expr) skips NULL inputs; COUNT(*) counts everything.
                if let Some(v) = input {
                    if v.is_null() {
                        return Ok(());
                    }
                }
                bump_count(&mut acc[0]);
            }
            AggFunc::Sum => {
                let v = input.ok_or_else(no_input)?;
                if !v.is_null() {
                    add_into(&mut acc[0], v)?;
                }
            }
            AggFunc::Min => {
                let v = input.ok_or_else(no_input)?;
                if !v.is_null() && (acc[0].is_null() || *v < acc[0]) {
                    acc[0] = v.clone();
                }
            }
            AggFunc::Max => {
                let v = input.ok_or_else(no_input)?;
                if !v.is_null() && (acc[0].is_null() || *v > acc[0]) {
                    acc[0] = v.clone();
                }
            }
            AggFunc::Avg => {
                let v = input.ok_or_else(no_input)?;
                if !v.is_null() {
                    add_into(&mut acc[0], v)?;
                    bump_count(&mut acc[1]);
                }
            }
            AggFunc::Var | AggFunc::StdDev => {
                let v = input.ok_or_else(no_input)?;
                if let Some(x) = v.as_f64() {
                    add_f64(&mut acc[0], x);
                    add_f64(&mut acc[1], x * x);
                    bump_count(&mut acc[2]);
                } else if !v.is_null() {
                    return Err(Error::TypeError(format!(
                        "non-numeric input {v} for {}",
                        self.func
                    )));
                }
            }
        }
        Ok(())
    }

    /// Merge another sub-aggregate into this accumulator (the coordinator's
    /// super-aggregate step).
    pub fn merge(&self, acc: &mut [Value], other: &[Value]) -> Result<()> {
        match self.func {
            AggFunc::Count => add_counts(&mut acc[0], &other[0]),
            AggFunc::Sum => {
                if !other[0].is_null() {
                    add_into(&mut acc[0], &other[0])?;
                }
                Ok(())
            }
            AggFunc::Min => {
                if !other[0].is_null() && (acc[0].is_null() || other[0] < acc[0]) {
                    acc[0] = other[0].clone();
                }
                Ok(())
            }
            AggFunc::Max => {
                if !other[0].is_null() && (acc[0].is_null() || other[0] > acc[0]) {
                    acc[0] = other[0].clone();
                }
                Ok(())
            }
            AggFunc::Avg => {
                if !other[0].is_null() {
                    add_into(&mut acc[0], &other[0])?;
                }
                add_counts(&mut acc[1], &other[1])
            }
            AggFunc::Var | AggFunc::StdDev => {
                add_f64(&mut acc[0], other[0].as_f64().unwrap_or(0.0));
                add_f64(&mut acc[1], other[1].as_f64().unwrap_or(0.0));
                add_counts(&mut acc[2], &other[2])
            }
        }
    }

    /// Produce the logical value from a (fully merged) accumulator.
    pub fn finalize(&self, acc: &[Value]) -> Result<Value> {
        match self.func {
            AggFunc::Count | AggFunc::Sum | AggFunc::Min | AggFunc::Max => Ok(acc[0].clone()),
            AggFunc::Avg => {
                let cnt = acc[1].as_i64().unwrap_or(0);
                if cnt == 0 {
                    return Ok(Value::Null);
                }
                let sum = acc[0].as_f64().ok_or_else(|| {
                    Error::TypeError(format!("AVG sum is non-numeric: {}", acc[0]))
                })?;
                Ok(Value::Double(sum / cnt as f64))
            }
            AggFunc::Var | AggFunc::StdDev => {
                let cnt = acc[2].as_i64().unwrap_or(0);
                if cnt == 0 {
                    return Ok(Value::Null);
                }
                let sum = acc[0].as_f64().unwrap_or(0.0);
                let sumsq = acc[1].as_f64().unwrap_or(0.0);
                Ok(Value::Double(finalize_var(sum, sumsq, cnt, self.func == AggFunc::StdDev)))
            }
        }
    }
}

impl fmt::Display for AggSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.input {
            Some(e) => write!(f, "{}({e}) -> {}", self.func, self.name),
            None => write!(f, "{}(*) -> {}", self.func, self.name),
        }
    }
}

/// A population VAR (or, with `stddev`, STDDEV) from its merged
/// sub-aggregate — sum, sum of squares and a non-zero count: E[x²] − E[x]²,
/// clamped against rounding noise. The coordinator's column-wise finalize
/// calls it too, so both give the same bits.
pub(crate) fn finalize_var(sum: f64, sumsq: f64, cnt: i64, stddev: bool) -> f64 {
    let n = cnt as f64;
    let var = (sumsq / n - (sum / n) * (sum / n)).max(0.0);
    if stddev {
        var.sqrt()
    } else {
        var
    }
}

fn bump_count(acc: &mut Value) {
    if let Value::Int(n) = acc {
        *n += 1;
    } else {
        *acc = Value::Int(1);
    }
}

fn add_counts(acc: &mut Value, other: &Value) -> Result<()> {
    let a = acc.as_i64().unwrap_or(0);
    let b = other
        .as_i64()
        .ok_or_else(|| Error::TypeError(format!("count merge with non-int {other}")))?;
    *acc = Value::Int(a + b);
    Ok(())
}

fn add_f64(acc: &mut Value, x: f64) {
    let cur = acc.as_f64().unwrap_or(0.0);
    *acc = Value::Double(f64_add(cur, x));
}

fn add_into(acc: &mut Value, v: &Value) -> Result<()> {
    if acc.is_null() {
        *acc = v.clone();
    } else {
        *acc = eval_arith(ArithOp::Add, acc, v)?;
    }
    Ok(())
}

/// The accumulator layout of a whole GMDJ: per-aggregate slot offsets.
///
/// Acc vectors are stored contiguously per base row, across all blocks.
#[derive(Debug, Clone)]
pub struct AccLayout {
    /// `(block index, agg)` pairs in output order with slot offsets.
    entries: Vec<(usize, AggSpec, usize)>,
    width: usize,
}

impl AccLayout {
    /// Compute the layout for blocks of aggregates.
    pub fn new(blocks: &[Vec<AggSpec>]) -> AccLayout {
        let mut entries = Vec::new();
        let mut off = 0;
        for (bi, aggs) in blocks.iter().enumerate() {
            for a in aggs {
                entries.push((bi, a.clone(), off));
                off += a.acc_width();
            }
        }
        AccLayout {
            entries,
            width: off,
        }
    }

    /// Total number of physical slots per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// All `(block, agg, offset)` entries, in output order.
    pub fn entries(&self) -> &[(usize, AggSpec, usize)] {
        &self.entries
    }

    /// A fresh accumulator vector.
    pub fn init(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.width);
        for (_, a, _) in &self.entries {
            a.init_acc(&mut out);
        }
        out
    }

    /// Merge `src` physical slots into `dst`.
    pub fn merge(&self, dst: &mut [Value], src: &[Value]) -> Result<()> {
        for (_, a, off) in &self.entries {
            let w = a.acc_width();
            a.merge(&mut dst[*off..off + w], &src[*off..off + w])?;
        }
        Ok(())
    }

    /// Finalize physical slots into logical values (output order).
    pub fn finalize(&self, acc: &[Value]) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(self.entries.len());
        self.finalize_into(acc, &mut out)?;
        Ok(out)
    }

    /// Finalize physical slots into logical values (output order),
    /// appended to `out`.
    pub fn finalize_into(&self, acc: &[Value], out: &mut Vec<Value>) -> Result<()> {
        for (_, a, off) in &self.entries {
            let w = a.acc_width();
            out.push(a.finalize(&acc[*off..off + w])?);
        }
        Ok(())
    }

    /// Physical fields in slot order.
    pub fn physical_fields(&self, detail: &Schema) -> Result<Vec<Field>> {
        let mut out = Vec::with_capacity(self.width);
        for (_, a, _) in &self.entries {
            out.extend(a.physical_fields(detail)?);
        }
        Ok(out)
    }

    /// Logical fields in output order.
    pub fn logical_fields(&self, detail: &Schema) -> Result<Vec<Field>> {
        self.entries
            .iter()
            .map(|(_, a, _)| a.logical_field(detail))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detail_schema() -> Schema {
        Schema::of(&[("v", DataType::Int), ("x", DataType::Double), ("s", DataType::Str)])
    }

    #[test]
    fn count_update_and_merge() {
        let c = AggSpec::count("c");
        let mut acc = vec![Value::Int(0)];
        c.update(&mut acc, None).unwrap();
        c.update(&mut acc, None).unwrap();
        assert_eq!(acc[0], Value::Int(2));
        let other = vec![Value::Int(5)];
        c.merge(&mut acc, &other).unwrap();
        assert_eq!(c.finalize(&acc).unwrap(), Value::Int(7));
    }

    #[test]
    fn count_expr_skips_nulls() {
        let c = AggSpec::over_expr(AggFunc::Count, Expr::dcol("v"), "c");
        let mut acc = vec![Value::Int(0)];
        c.update(&mut acc, Some(&Value::Null)).unwrap();
        c.update(&mut acc, Some(&Value::Int(3))).unwrap();
        assert_eq!(acc[0], Value::Int(1));
    }

    #[test]
    fn sum_stays_int_for_int_inputs() {
        let s = AggSpec::sum("v", "s");
        let mut acc = vec![Value::Null];
        s.update(&mut acc, Some(&Value::Int(3))).unwrap();
        s.update(&mut acc, Some(&Value::Int(4))).unwrap();
        assert_eq!(s.finalize(&acc).unwrap(), Value::Int(7));
    }

    #[test]
    fn sum_empty_is_null() {
        let s = AggSpec::sum("v", "s");
        let acc = vec![Value::Null];
        assert_eq!(s.finalize(&acc).unwrap(), Value::Null);
    }

    #[test]
    fn min_max_work_on_strings() {
        let mn = AggSpec::min("s", "mn");
        let mx = AggSpec::max("s", "mx");
        let mut a1 = vec![Value::Null];
        let mut a2 = vec![Value::Null];
        for v in ["pear", "apple", "plum"] {
            mn.update(&mut a1, Some(&Value::str(v))).unwrap();
            mx.update(&mut a2, Some(&Value::str(v))).unwrap();
        }
        assert_eq!(mn.finalize(&a1).unwrap(), Value::str("apple"));
        assert_eq!(mx.finalize(&a2).unwrap(), Value::str("plum"));
    }

    #[test]
    fn avg_decomposes_into_sum_and_count() {
        let a = AggSpec::avg("v", "a");
        assert_eq!(a.acc_width(), 2);
        let fields = a.physical_fields(&detail_schema()).unwrap();
        assert_eq!(fields[0].name(), "a__sum");
        assert_eq!(fields[1].name(), "a__cnt");

        // Two "sites".
        let mut s1 = vec![Value::Null, Value::Int(0)];
        let mut s2 = vec![Value::Null, Value::Int(0)];
        for v in [1i64, 2, 3] {
            a.update(&mut s1, Some(&Value::Int(v))).unwrap();
        }
        a.update(&mut s2, Some(&Value::Int(10))).unwrap();
        // Coordinator merge: AVG over {1,2,3,10} = 4.
        a.merge(&mut s1, &s2).unwrap();
        assert_eq!(a.finalize(&s1).unwrap(), Value::Double(4.0));
    }

    #[test]
    fn avg_of_empty_is_null() {
        let a = AggSpec::avg("v", "a");
        let acc = vec![Value::Null, Value::Int(0)];
        assert_eq!(a.finalize(&acc).unwrap(), Value::Null);
    }

    #[test]
    fn var_and_stddev_merge_across_sites() {
        let v = AggSpec::var("v", "var");
        let s = AggSpec::stddev("v", "sd");
        assert_eq!(v.acc_width(), 3);
        let fields = v.physical_fields(&detail_schema()).unwrap();
        assert_eq!(
            fields.iter().map(|f| f.name().to_string()).collect::<Vec<_>>(),
            ["var__sum", "var__sumsq", "var__cnt"]
        );

        // Values {2, 4, 4, 4, 5, 5, 7, 9}: var = 4, stddev = 2. Split
        // across two "sites" and merge.
        let data = [2i64, 4, 4, 4, 5, 5, 7, 9];
        let mut a1 = vec![Value::Double(0.0), Value::Double(0.0), Value::Int(0)];
        let mut a2 = a1.clone();
        let mut b1 = a1.clone();
        let mut b2 = a1.clone();
        for (i, x) in data.iter().enumerate() {
            let (va, sa) = if i < 3 { (&mut a1, &mut b1) } else { (&mut a2, &mut b2) };
            v.update(va, Some(&Value::Int(*x))).unwrap();
            s.update(sa, Some(&Value::Int(*x))).unwrap();
        }
        v.merge(&mut a1, &a2).unwrap();
        s.merge(&mut b1, &b2).unwrap();
        assert_eq!(v.finalize(&a1).unwrap(), Value::Double(4.0));
        assert_eq!(s.finalize(&b1).unwrap(), Value::Double(2.0));
    }

    #[test]
    fn var_of_empty_is_null_and_strings_rejected() {
        let v = AggSpec::var("v", "var");
        let acc = vec![Value::Double(0.0), Value::Double(0.0), Value::Int(0)];
        assert_eq!(v.finalize(&acc).unwrap(), Value::Null);
        assert!(AggSpec::var("s", "x").validate(&detail_schema()).is_err());
        assert!(AggSpec::stddev("s", "x").validate(&detail_schema()).is_err());
        let mut acc = vec![Value::Double(0.0), Value::Double(0.0), Value::Int(0)];
        assert!(v.update(&mut acc, Some(&Value::str("x"))).is_err());
        // NULL inputs are skipped.
        v.update(&mut acc, Some(&Value::Null)).unwrap();
        assert_eq!(acc[2], Value::Int(0));
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let d = detail_schema();
        // SUM over strings.
        assert!(AggSpec::sum("s", "x").validate(&d).is_err());
        // Base-side reference in an input.
        let bad = AggSpec::over_expr(AggFunc::Sum, Expr::bcol("v"), "x");
        assert!(bad.validate(&d).is_err());
        // Missing input.
        let bad = AggSpec {
            func: AggFunc::Sum,
            input: None,
            name: "x".into(),
        };
        assert!(bad.validate(&d).is_err());
        // Unknown column.
        assert!(AggSpec::sum("zzz", "x").validate(&d).is_err());
        // Good ones.
        assert!(AggSpec::count("c").validate(&d).is_ok());
        assert!(AggSpec::min("s", "m").validate(&d).is_ok());
        assert!(AggSpec::over_expr(AggFunc::Sum, Expr::dcol("v").mul(Expr::lit(8i64)), "bits")
            .validate(&d)
            .is_ok());
    }

    #[test]
    fn layout_offsets_and_round_trip() {
        let blocks = vec![
            vec![AggSpec::count("c1"), AggSpec::avg("v", "a1")],
            vec![AggSpec::sum("v", "s2")],
        ];
        let layout = AccLayout::new(&blocks);
        assert_eq!(layout.width(), 4);
        let mut acc = layout.init();
        assert_eq!(acc.len(), 4);

        // Simulate: block 0 sees v=2 and v=4; block 1 sees v=10.
        let entries = layout.entries().to_vec();
        for (bi, a, off) in &entries {
            let w = a.acc_width();
            let slice = &mut acc[*off..off + w];
            match (bi, a.name.as_str()) {
                (0, "c1") => {
                    a.update(slice, None).unwrap();
                    a.update(slice, None).unwrap();
                }
                (0, "a1") => {
                    a.update(slice, Some(&Value::Int(2))).unwrap();
                    a.update(slice, Some(&Value::Int(4))).unwrap();
                }
                (1, "s2") => {
                    a.update(slice, Some(&Value::Int(10))).unwrap();
                }
                other => panic!("no such aggregate: {other:?}"),
            }
        }
        let logical = layout.finalize(&acc).unwrap();
        assert_eq!(
            logical,
            vec![Value::Int(2), Value::Double(3.0), Value::Int(10)]
        );

        // Merging a fresh accumulator is the identity.
        let fresh = layout.init();
        let mut merged = acc.clone();
        layout.merge(&mut merged, &fresh).unwrap();
        assert_eq!(merged, acc);
    }

    #[test]
    fn physical_and_logical_fields() {
        let blocks = vec![vec![AggSpec::count("c"), AggSpec::avg("x", "a")]];
        let layout = AccLayout::new(&blocks);
        let d = detail_schema();
        let phys = layout.physical_fields(&d).unwrap();
        assert_eq!(
            phys.iter().map(|f| f.name().to_string()).collect::<Vec<_>>(),
            ["c", "a__sum", "a__cnt"]
        );
        let logical = layout.logical_fields(&d).unwrap();
        assert_eq!(logical[1].name(), "a");
        assert_eq!(logical[1].data_type(), DataType::Double);
    }
}
