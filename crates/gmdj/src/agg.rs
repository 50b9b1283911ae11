//! Aggregate functions with sub-/super-aggregate decomposition.
//!
//! Following Gray et al. (the data cube paper), every aggregate the paper
//! uses is *distributive* (COUNT, SUM, MIN, MAX) or *algebraic* (AVG): a
//! site can compute a fixed-width **sub-aggregate** over its partition, the
//! coordinator **merges** sub-aggregates into a **super-aggregate**, and a
//! final **finalize** step produces the logical value. This decomposition is
//! what lets Skalla ship only aggregate structures (Theorem 1).
//!
//! Each [`AggSpec`] lowers to one to three *physical accumulator columns*
//! (AVG → SUM + COUNT, VAR/STDDEV → SUM + SUM² + COUNT). Shipped relations
//! and the coordinator's working base-result structure carry physical
//! columns; finalization happens once, when a GMDJ's rounds complete. What
//! the slots hold, and how they update, merge and finalize, is stated once,
//! in the typed states of [`crate::state`].

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use skalla_relation::{DataType, Error, Expr, Field, Result, Schema, Side};
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
        AggSpec::over_expr(AggFunc::Sum, Expr::dcol(column), name)
    }

    /// `AVG(column) → name`.
    pub fn avg(column: impl Into<String>, name: impl Into<String>) -> AggSpec {
        AggSpec::over_expr(AggFunc::Avg, Expr::dcol(column), name)
    }

    /// `MIN(column) → name`.
    pub fn min(column: impl Into<String>, name: impl Into<String>) -> AggSpec {
        AggSpec::over_expr(AggFunc::Min, Expr::dcol(column), name)
    }

    /// `MAX(column) → name`.
    pub fn max(column: impl Into<String>, name: impl Into<String>) -> AggSpec {
        AggSpec::over_expr(AggFunc::Max, Expr::dcol(column), name)
    }

    /// `VAR(column) → name` (population variance).
    pub fn var(column: impl Into<String>, name: impl Into<String>) -> AggSpec {
        AggSpec::over_expr(AggFunc::Var, Expr::dcol(column), name)
    }

    /// `STDDEV(column) → name` (population standard deviation).
    pub fn stddev(column: impl Into<String>, name: impl Into<String>) -> AggSpec {
        AggSpec::over_expr(AggFunc::StdDev, Expr::dcol(column), name)
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
}

impl fmt::Display for AggSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.input {
            Some(e) => write!(f, "{}({e}) -> {}", self.func, self.name),
            None => write!(f, "{}(*) -> {}", self.func, self.name),
        }
    }
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

    /// Physical fields in slot order.
    pub fn physical_fields(&self, detail: &Schema) -> Result<Vec<Field>> {
        let mut out = Vec::with_capacity(self.width);
        for (_, a, _) in &self.entries {
            out.extend(a.physical_fields(detail)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_full, eval_local, EvalOptions};
    use crate::operator::Gmdj;
    use crate::state::AccStates;
    use skalla_relation::{Relation, Row, Value};

    fn detail_schema() -> Schema {
        Schema::of(&[("v", DataType::Int), ("x", DataType::Double), ("s", DataType::Str)])
    }

    /// One base tuple, which θ = TRUE gives every detail tuple.
    fn base() -> Relation {
        Relation::new(Schema::of(&[("k", DataType::Int)]), vec![Row::new(vec![Value::Int(0)])]).unwrap()
    }

    /// A detail relation with one row per input: the input in column
    /// `col`, NULL in the others.
    fn detail(col: &str, inputs: &[Value]) -> Relation {
        let schema = detail_schema();
        let at = schema.index_of(col).unwrap();
        let row = |v: &Value| Row::new((0..3).map(|c| if c == at { v.clone() } else { Value::Null }).collect());
        Relation::new(schema, inputs.iter().map(row).collect()).unwrap()
    }

    fn op(spec: &AggSpec) -> Gmdj {
        Gmdj::new("t").block(Expr::True, vec![spec.clone()])
    }

    /// `spec` over `inputs` (detail column `col`), evaluated and finalized
    /// by the engine.
    fn full(spec: &AggSpec, col: &str, inputs: &[Value]) -> Value {
        let out = eval_full(&base(), &detail(col, inputs), &op(spec), EvalOptions::default()).unwrap();
        out.rows()[0].get(1).clone()
    }

    /// One site's sub-aggregate of `spec` over `inputs`: the kernel's
    /// physical row, the base column `k` and then the slots.
    fn sub(spec: &AggSpec, col: &str, inputs: &[Value]) -> Relation {
        eval_local(&base(), &detail(col, inputs), &op(spec), EvalOptions::default()).unwrap().physical
    }

    /// The super-aggregate of the sub-aggregates `parts`: merged in order
    /// into one fresh position of the typed states, then finalized.
    fn merged(spec: &AggSpec, parts: &[Relation]) -> Value {
        let types: Vec<DataType> =
            spec.physical_fields(&detail_schema()).unwrap().iter().map(|f| f.data_type()).collect();
        let mut states = AccStates::new(&op(spec).layout(), &types, 1).unwrap();
        for p in parts {
            states.absorb(p.columns(), 1, &[0], &[false]).unwrap();
        }
        states.finalize_columns(&[0], &[true])[0].value(0)
    }

    fn ints(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn count_update_and_merge() {
        let c = AggSpec::count("c");
        let two = sub(&c, "v", &[Value::Null, Value::Null]);
        assert_eq!(two.columns().value(1, 0), Value::Int(2));
        let five = sub(&c, "v", &ints(&[1, 2, 3, 4, 5]));
        assert_eq!(merged(&c, &[two, five]), Value::Int(7));
    }

    #[test]
    fn count_expr_skips_nulls() {
        let c = AggSpec::over_expr(AggFunc::Count, Expr::dcol("v"), "c");
        assert_eq!(full(&c, "v", &[Value::Null, Value::Int(3)]), Value::Int(1));
    }

    #[test]
    fn sum_stays_int_for_int_inputs() {
        let s = AggSpec::sum("v", "s");
        assert_eq!(full(&s, "v", &ints(&[3, 4])), Value::Int(7));
    }

    #[test]
    fn sum_empty_is_null() {
        let s = AggSpec::sum("v", "s");
        assert_eq!(full(&s, "v", &[]), Value::Null);
        assert_eq!(merged(&s, &[]), Value::Null);
    }

    #[test]
    fn min_max_work_on_strings() {
        let fruit: Vec<Value> = ["pear", "apple", "plum"].into_iter().map(Value::str).collect();
        assert_eq!(full(&AggSpec::min("s", "mn"), "s", &fruit), Value::str("apple"));
        assert_eq!(full(&AggSpec::max("s", "mx"), "s", &fruit), Value::str("plum"));
    }

    #[test]
    fn avg_decomposes_into_sum_and_count() {
        let a = AggSpec::avg("v", "a");
        assert_eq!(a.acc_width(), 2);
        let fields = a.physical_fields(&detail_schema()).unwrap();
        assert_eq!(fields[0].name(), "a__sum");
        assert_eq!(fields[1].name(), "a__cnt");

        // Two "sites", then the coordinator's merge: AVG over {1,2,3,10} = 4.
        let s1 = sub(&a, "v", &ints(&[1, 2, 3]));
        let s2 = sub(&a, "v", &ints(&[10]));
        assert_eq!(merged(&a, &[s1, s2]), Value::Double(4.0));
    }

    #[test]
    fn avg_of_empty_is_null() {
        let a = AggSpec::avg("v", "a");
        assert_eq!(full(&a, "v", &[]), Value::Null);
        assert_eq!(merged(&a, &[]), Value::Null);
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
        let data = ints(&[2, 4, 4, 4, 5, 5, 7, 9]);
        let (a, b) = data.split_at(3);
        let parts = |spec: &AggSpec| [sub(spec, "v", a), sub(spec, "v", b)];
        assert_eq!(merged(&v, &parts(&v)), Value::Double(4.0));
        assert_eq!(merged(&s, &parts(&s)), Value::Double(2.0));
    }

    #[test]
    fn var_of_empty_is_null_and_strings_rejected() {
        let v = AggSpec::var("v", "var");
        assert_eq!(merged(&v, &[]), Value::Null);
        assert!(AggSpec::var("s", "x").validate(&detail_schema()).is_err());
        assert!(AggSpec::stddev("s", "x").validate(&detail_schema()).is_err());
        let strings = detail("s", &[Value::str("x")]);
        assert!(eval_full(&base(), &strings, &op(&AggSpec::var("s", "x")), EvalOptions::default()).is_err());
        // NULL inputs are skipped.
        let nulls = sub(&v, "v", &[Value::Null]);
        assert_eq!(nulls.columns().value(3, 0), Value::Int(0));
        assert_eq!(full(&v, "v", &[Value::Null]), Value::Null);
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
        let offsets: Vec<usize> = layout.entries().iter().map(|(_, _, off)| *off).collect();
        assert_eq!(offsets, [0, 1, 3]);

        // Block 0 sees v=2 and v=4; block 1 sees v=10.
        let g = Gmdj::new("t")
            .block(Expr::dcol("v").lt(Expr::lit(5i64)), blocks[0].clone())
            .block(Expr::dcol("v").eq(Expr::lit(10i64)), blocks[1].clone());
        let d = detail("v", &ints(&[2, 4, 10]));
        let logical = eval_full(&base(), &d, &g, EvalOptions::default()).unwrap();
        assert_eq!(
            logical.rows()[0].values()[1..],
            [Value::Int(2), Value::Double(3.0), Value::Int(10)]
        );

        // Merging a fresh accumulator is the identity.
        let physical = eval_local(&base(), &d, &g, EvalOptions::default()).unwrap().physical;
        let types: Vec<DataType> = physical.schema().fields()[1..].iter().map(|f| f.data_type()).collect();
        let mut states = AccStates::new(&layout, &types, 2).unwrap();
        states.absorb(physical.columns(), 1, &[0], &[true]).unwrap();
        states.combine(0, 1, 1, &[true], &[true]);
        let merged = states.physical_columns(&[0]);
        assert_eq!(merged.len(), 4);
        for (k, col) in merged.iter().enumerate() {
            assert_eq!(col.value(0), physical.columns().value(1 + k, 0), "slot {k}");
        }
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
        let op = Gmdj::new("t").block(Expr::True, blocks[0].clone());
        let logical = op.output_schema(&Schema::of(&[]), &d).unwrap();
        assert_eq!(logical.field(1).name(), "a");
        assert_eq!(logical.field(1).data_type(), DataType::Double);
    }
}
