//! Aggregate functions with sub-/super-aggregate decomposition, per block.
//!
//! Following Gray et al. (the data cube paper), every aggregate the paper
//! uses is *distributive* (COUNT, SUM, MIN, MAX) or *algebraic* (AVG, VAR,
//! STDDEV): a site computes fixed-width **sub-aggregates** over its
//! partition, the coordinator **merges** them into **super-aggregates**,
//! and a final **finalize** step produces the logical value. This
//! decomposition is what lets Skalla ship only aggregate structures
//! (Theorem 1).
//!
//! The split is made once per GMDJ block, not once per aggregate
//! ([`AccLayout`]). A block's aggregates lower to its *distinct* physical
//! slots, each keyed by (block, [`SlotKind`], input expression):
//! `COUNT(*)`, `COUNT(x)`, `SUM(x)`, `SUM(x as f64)`, `SUM(x²)`, `MIN(x)`
//! and `MAX(x)`. COUNT, SUM, MIN and MAX read one slot; AVG finalizes
//! from `SUM(x)` and `COUNT(x)`, VAR and STDDEV from `SUM(x)` (over an
//! `Int`, `SUM(x as f64)`), `SUM(x²)` and `COUNT(x)` ([`Finalize`]). So an
//! aggregate that needs a slot its block already has shares it: `SUM(v),
//! AVG(v), VAR(v)` of a `Double` `v` keep three slots, not six. Shipped
//! relations and the coordinator's working base-result structure carry
//! one column per slot; finalization happens once, when a GMDJ's rounds
//! complete. What a slot holds, and how it updates, merges and
//! finalizes, is stated once, in the typed states of [`crate::state`].

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use skalla_relation::codec::Encoder;
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

    /// The suffixes of the slot names this aggregate may give its
    /// block's slots, beside its own name: AVG's SUM and COUNT, VAR's and
    /// STDDEV's SUM, SUM of squares and COUNT.
    pub(crate) fn slot_suffixes(&self) -> &'static [&'static str] {
        match self.func {
            AggFunc::Avg => &["__sum", "__cnt"],
            AggFunc::Var | AggFunc::StdDev => &["__sum", "__sumsq", "__cnt"],
            _ => &[],
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

/// What one physical slot accumulates over its block's range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// `COUNT(*)`: the range's size.
    CountStar,
    /// `COUNT(x)`: the range's non-`NULL` inputs.
    Count,
    /// `SUM(x)`, typed as `x` (wrapping over an `Int`); `NULL` over no
    /// input.
    Sum,
    /// `SUM(x as f64)`: the `Double` sum a VAR or STDDEV of an `Int` `x`
    /// finalizes from. Over a `Double` `x` that sum is `SUM(x)`.
    SumF64,
    /// `SUM(x²)`, in `f64` and from 0.
    SumSq,
    /// `MIN(x)`.
    Min,
    /// `MAX(x)`.
    Max,
}

/// One distinct sub-aggregate of a block: one physical accumulator
/// column of a site's answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// The block whose range it accumulates over.
    pub block: usize,
    /// What it accumulates.
    pub kind: SlotKind,
    /// Its input (`None` only for `COUNT(*)`).
    pub input: Option<Expr>,
    /// Its column: named after the first aggregate that needs it, typed
    /// by its kind and input.
    pub field: Field,
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            SlotKind::CountStar => return write!(f, "COUNT(*) -> {}", self.field.name()),
            SlotKind::Count => "COUNT",
            SlotKind::Sum => "SUM",
            SlotKind::SumF64 => "SUM_F64",
            SlotKind::SumSq => "SUMSQ",
            SlotKind::Min => "MIN",
            SlotKind::Max => "MAX",
        };
        match &self.input {
            Some(e) => write!(f, "{kind}({e}) -> {}", self.field.name()),
            None => write!(f, "{kind}() -> {}", self.field.name()),
        }
    }
}

/// How one aggregate's logical value comes out of its block's slots
/// (indexes into [`AccLayout::slots`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Finalize {
    /// COUNT, SUM, MIN and MAX: the slot as it is.
    Slot(usize),
    /// AVG: the sum over the count, `NULL` over a count of 0.
    Avg {
        /// The `SUM(x)` slot.
        sum: usize,
        /// The `COUNT(x)` slot.
        cnt: usize,
    },
    /// VAR, or STDDEV: from the sum, the sum of squares and the count,
    /// `NULL` over a count of 0.
    Var {
        /// The `SUM(x)` slot (`SUM(x as f64)` over an `Int`).
        sum: usize,
        /// The `SUM(x²)` slot.
        sq: usize,
        /// The `COUNT(x)` slot.
        cnt: usize,
        /// STDDEV: the square root of the variance.
        stddev: bool,
    },
}

impl Finalize {
    /// The slots it reads, in the order its aggregate needs them.
    pub fn slots(&self) -> impl Iterator<Item = usize> {
        let (a, b, c) = match *self {
            Finalize::Slot(s) => (s, None, None),
            Finalize::Avg { sum, cnt } => (sum, Some(cnt), None),
            Finalize::Var { sum, sq, cnt, .. } => (sum, Some(sq), Some(cnt)),
        };
        std::iter::once(a).chain(b).chain(c)
    }
}

/// The accumulator layout of a whole GMDJ: the distinct physical slots of
/// every block, in the order their aggregates first need them, and each
/// aggregate's [`Finalize`] formula over them.
///
/// A slot is keyed by (block, [`SlotKind`], input expression), the input
/// compared by its encoded bytes, so a literal's type and bits count. AVG
/// needs `SUM(x)` and `COUNT(x)`; VAR and STDDEV need `SUM(x)` — over an
/// `Int` `x`, `SUM(x as f64)` — then `SUM(x²)` and `COUNT(x)`. So
/// `SUM(v), AVG(v), VAR(v)` of a `Double` `v` in one block keep three
/// slots, not six. `COUNT(*)` and `COUNT(x)` stay apart: a schema does not
/// say that `x` is never `NULL`.
#[derive(Debug, Clone, PartialEq)]
pub struct AccLayout {
    slots: Vec<Slot>,
    /// Per aggregate, in output order: its block, itself, its formula.
    aggs: Vec<(usize, AggSpec, Finalize)>,
    /// `(SUM, COUNT)` slot pairs of one block and input: the sum holds a
    /// value exactly where the count is positive.
    pairs: Vec<(usize, usize)>,
}

/// A slot's key, beside its kind and block: its input's encoded bytes.
fn input_key(input: Option<&Expr>) -> Vec<u8> {
    let mut enc = Encoder::new();
    if let Some(e) = input {
        enc.put_expr(e);
    }
    enc.finish()
}

impl AccLayout {
    /// The layout of `blocks` over a detail relation of schema `detail`,
    /// which types the aggregates' inputs.
    pub fn new(blocks: &[Vec<AggSpec>], detail: &Schema) -> Result<AccLayout> {
        let empty = Schema::of(&[]);
        AccLayout::build(blocks, |e| e.infer_type(&empty, Some(detail)))
    }

    /// The layout of `blocks` whose slots are `fields`: a physical schema
    /// the layout over some detail schema wrote, read back without that
    /// schema. An input's type is that of the slot of the first SUM, AVG,
    /// MIN or MAX over it, found by its name; where no such slot is named,
    /// the input shares its sum with a VAR before it, or has none to
    /// share, and either way its slots are those of a `Double` input —
    /// which, over an `Int` input, is a `SUM(x)` where the detail schema
    /// lays out a `SUM(x as f64)`: the same state ([`AccLayout::merges_as`]).
    /// Refused unless the slots come out typed as `fields` are.
    pub fn from_physical(blocks: &[Vec<AggSpec>], fields: &[Field]) -> Result<AccLayout> {
        let typed_as_input = |a: &&AggSpec| matches!(a.func, AggFunc::Sum | AggFunc::Avg | AggFunc::Min | AggFunc::Max);
        let layout = AccLayout::build(blocks, |x| {
            let key = input_key(Some(x));
            let owner = blocks.iter().flatten().filter(typed_as_input).find(|a| input_key(a.input.as_ref()) == key);
            let name = owner.map(|a| if a.func == AggFunc::Avg { format!("{}__sum", a.name) } else { a.name.clone() });
            let field = name.and_then(|n| fields.iter().find(|f| f.name() == n));
            Ok(field.map_or(DataType::Double, Field::data_type))
        })?;
        let types = |fs: &[Field]| fs.iter().map(Field::data_type).collect::<Vec<_>>();
        if types(&layout.fields()) != types(fields) {
            return Err(Error::SchemaMismatch(format!(
                "accumulators typed {:?} where the layout has {:?}",
                types(fields),
                types(&layout.fields())
            )));
        }
        Ok(layout)
    }

    /// Lay out `blocks`, `ty` typing an input.
    fn build(blocks: &[Vec<AggSpec>], mut ty: impl FnMut(&Expr) -> Result<DataType>) -> Result<AccLayout> {
        use SlotKind::{Count, CountStar, Max, Min, Sum, SumF64, SumSq};
        let mut layout = AccLayout { slots: Vec::new(), aggs: Vec::new(), pairs: Vec::new() };
        let mut keys: Vec<(usize, SlotKind, Vec<u8>)> = Vec::new();
        for (block, aggs) in blocks.iter().enumerate() {
            for a in aggs {
                // The slot of `kind` over `a`'s input, made on first need
                // and named after `a` (with `suffix`).
                let mut slot = |kind: SlotKind, suffix: &str, data_type: DataType| {
                    let key = (block, kind, input_key(a.input.as_ref()));
                    if let Some(s) = keys.iter().position(|k| *k == key) {
                        return s;
                    }
                    keys.push(key);
                    let field = Field::new(format!("{}{suffix}", a.name), data_type);
                    layout.slots.push(Slot { block, kind, input: a.input.clone(), field });
                    layout.slots.len() - 1
                };
                let Some(x) = &a.input else {
                    match a.func {
                        AggFunc::Count => layout.aggs.push((block, a.clone(), Finalize::Slot(slot(CountStar, "", DataType::Int)))),
                        f => return Err(Error::Plan(format!("{f} aggregate {:?} requires an input expression", a.name))),
                    }
                    continue;
                };
                let t = ty(x)?;
                if t == DataType::Str && !matches!(a.func, AggFunc::Count | AggFunc::Min | AggFunc::Max) {
                    return Err(Error::TypeError(format!("{} over a string expression ({:?})", a.func, a.name)));
                }
                let fin = match a.func {
                    AggFunc::Count => Finalize::Slot(slot(Count, "", DataType::Int)),
                    AggFunc::Sum => Finalize::Slot(slot(Sum, "", t)),
                    AggFunc::Min => Finalize::Slot(slot(Min, "", t)),
                    AggFunc::Max => Finalize::Slot(slot(Max, "", t)),
                    AggFunc::Avg => Finalize::Avg { sum: slot(Sum, "__sum", t), cnt: slot(Count, "__cnt", DataType::Int) },
                    AggFunc::Var | AggFunc::StdDev => Finalize::Var {
                        sum: slot(if t == DataType::Double { Sum } else { SumF64 }, "__sum", DataType::Double),
                        sq: slot(SumSq, "__sumsq", DataType::Double),
                        cnt: slot(Count, "__cnt", DataType::Int),
                        stddev: a.func == AggFunc::StdDev,
                    },
                };
                layout.aggs.push((block, a.clone(), fin));
            }
        }
        for (s, (block, _, key)) in keys.iter().enumerate().filter(|(_, k)| matches!(k.1, Sum | SumF64)) {
            if let Some(c) = keys.iter().position(|k| k.0 == *block && k.1 == Count && k.2 == *key) {
                layout.pairs.push((s, c));
            }
        }
        Ok(layout)
    }

    /// Total number of physical slots per row.
    pub fn width(&self) -> usize {
        self.slots.len()
    }

    /// The slots, in column order.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Every aggregate with its block and formula, in output order.
    pub fn aggs(&self) -> &[(usize, AggSpec, Finalize)] {
        &self.aggs
    }

    /// The `(SUM, COUNT)` slot pairs that must agree: the sum holds a value
    /// exactly where the count of the same block and input is positive.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// The slots' fields, in column order.
    pub fn fields(&self) -> Vec<Field> {
        self.slots.iter().map(|s| s.field.clone()).collect()
    }

    /// Per aggregate, in output order, the slots of its block that it is
    /// the first to need: what its one loop fills, none when an aggregate
    /// before it filled them all.
    pub fn first_needs(&self) -> Vec<Vec<usize>> {
        let mut filled = vec![false; self.width()];
        let mut first = |fin: &Finalize| fin.slots().filter(|&s| !std::mem::replace(&mut filled[s], true)).collect();
        self.aggs.iter().map(|(_, _, fin)| first(fin)).collect()
    }

    /// Whether merging and finalizing over `self`'s slots is doing so over
    /// `other`'s: the same aggregates, formulas and pairs, and slot for
    /// slot the same block, input and column, of kinds that keep one
    /// state. A `Double` `SUM(x)` and a `SUM(x as f64)` keep one (a layout
    /// read back by [`AccLayout::from_physical`] cannot tell them apart
    /// where no aggregate types `x`); they differ only in what the
    /// kernel sums.
    pub fn merges_as(&self, other: &AccLayout) -> bool {
        let state = |s: &Slot| match s.kind {
            SlotKind::SumF64 => SlotKind::Sum,
            k => k,
        };
        let same = |(a, b): (&Slot, &Slot)| {
            a.block == b.block && state(a) == state(b) && a.input == b.input && a.field == b.field
        };
        self.aggs == other.aggs
            && self.pairs == other.pairs
            && self.slots.len() == other.slots.len()
            && self.slots.iter().zip(&other.slots).all(same)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_full, eval_local, EvalOptions};
    use crate::operator::Gmdj;
    use crate::state::AccStates;
    use skalla_obs::Obs;
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
        let d = detail(col, inputs);
        let out = eval_full(&base(), &d, &op(spec), EvalOptions::default(), &Obs::disabled(), 0).unwrap();
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
        let mut states = AccStates::new(&op(spec).layout(&detail_schema()).unwrap(), 1);
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
        let fields = op(&a).layout(&detail_schema()).unwrap().fields();
        assert_eq!(fields.len(), 2);
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
        let fields = op(&v).layout(&detail_schema()).unwrap().fields();
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
        let var_s = op(&AggSpec::var("s", "x"));
        assert!(eval_full(&base(), &strings, &var_s, EvalOptions::default(), &Obs::disabled(), 0).is_err());
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
    fn layout_formulas_and_round_trip() {
        let blocks = vec![
            vec![AggSpec::count("c1"), AggSpec::avg("v", "a1")],
            vec![AggSpec::sum("v", "s2")],
        ];
        let layout = AccLayout::new(&blocks, &detail_schema()).unwrap();
        assert_eq!(layout.width(), 4);
        let formulas: Vec<Finalize> = layout.aggs().iter().map(|(_, _, f)| *f).collect();
        assert_eq!(formulas, [Finalize::Slot(0), Finalize::Avg { sum: 1, cnt: 2 }, Finalize::Slot(3)]);
        assert_eq!(layout.pairs(), [(1, 2)]);

        // Block 0 sees v=2 and v=4; block 1 sees v=10.
        let g = Gmdj::new("t")
            .block(Expr::dcol("v").lt(Expr::lit(5i64)), blocks[0].clone())
            .block(Expr::dcol("v").eq(Expr::lit(10i64)), blocks[1].clone());
        let d = detail("v", &ints(&[2, 4, 10]));
        let logical = eval_full(&base(), &d, &g, EvalOptions::default(), &Obs::disabled(), 0).unwrap();
        assert_eq!(
            logical.rows()[0].values()[1..],
            [Value::Int(2), Value::Double(3.0), Value::Int(10)]
        );

        // Merging a fresh accumulator is the identity.
        let physical = eval_local(&base(), &d, &g, EvalOptions::default()).unwrap().physical;
        let mut states = AccStates::new(&layout, 2);
        states.absorb(physical.columns(), 1, &[0], &[true]).unwrap();
        states.combine(0, 1, 1, &[true], &[true]);
        let merged = states.physical_columns(&[0]);
        assert_eq!(merged.len(), 4);
        for (k, col) in merged.iter().enumerate() {
            assert_eq!(col.value(0), physical.columns().value(1 + k, 0), "slot {k}");
        }
    }

    /// A block keeps one slot per distinct (kind, input): SUM, AVG, VAR,
    /// STDDEV and COUNT of one `Double` input share its SUM and COUNT, and
    /// VAR and STDDEV its SUM of squares; over an `Int` input VAR's sum is
    /// `SUM(v as f64)`, apart from the wrapping SUM. `COUNT(*)`, another
    /// block, another input or a literal of another type keep slots of
    /// their own.
    #[test]
    fn a_block_keeps_one_slot_per_distinct_sub_aggregate() {
        let aggs = |col: &str| {
            vec![
                AggSpec::sum(col, "s"),
                AggSpec::avg(col, "a"),
                AggSpec::var(col, "var"),
                AggSpec::stddev(col, "sd"),
                AggSpec::over_expr(AggFunc::Count, Expr::dcol(col), "c"),
                AggSpec::count("n"),
            ]
        };
        let names = |l: &AccLayout| l.fields().iter().map(|f| f.name().to_string()).collect::<Vec<_>>();
        let doubles = AccLayout::new(&[aggs("x")], &detail_schema()).unwrap();
        assert_eq!(names(&doubles), ["s", "a__cnt", "var__sumsq", "n"]);
        let ints = AccLayout::new(&[aggs("v")], &detail_schema()).unwrap();
        assert_eq!(names(&ints), ["s", "a__cnt", "var__sum", "var__sumsq", "n"]);
        assert_eq!(ints.slots()[2].kind, SlotKind::SumF64);
        assert_eq!(ints.pairs(), [(0, 1), (2, 1)]);
        let two_blocks = AccLayout::new(&[aggs("x"), aggs("x")], &detail_schema()).unwrap();
        assert_eq!(two_blocks.width(), 8);
        let typed_literals = vec![
            AggSpec::over_expr(AggFunc::Sum, Expr::dcol("x").mul(Expr::lit(1i64)), "i"),
            AggSpec::over_expr(AggFunc::Sum, Expr::dcol("x").mul(Expr::lit(1.0)), "f"),
            AggSpec::over_expr(AggFunc::Sum, Expr::dcol("x").mul(Expr::lit(-0.0)), "z"),
            AggSpec::over_expr(AggFunc::Sum, Expr::dcol("x").mul(Expr::lit(0.0)), "p"),
        ];
        assert_eq!(AccLayout::new(&[typed_literals], &detail_schema()).unwrap().width(), 4);
        // Read back from its own fields, a layout is itself.
        for l in [&doubles, &ints, &two_blocks] {
            let blocks: Vec<Vec<AggSpec>> = (0..=l.slots().last().unwrap().block)
                .map(|b| l.aggs().iter().filter(|(bi, _, _)| *bi == b).map(|(_, a, _)| a.clone()).collect())
                .collect();
            assert_eq!(&AccLayout::from_physical(&blocks, &l.fields()).unwrap(), l);
        }
        // A VAR of an `Int` that nothing else types reads back as a
        // `Double` SUM: not the detail schema's layout, but one that merges
        // as it does.
        let var = [vec![AggSpec::var("v", "var"), AggSpec::stddev("v", "sd")]];
        let by_detail = AccLayout::new(&var, &detail_schema()).unwrap();
        let read_back = AccLayout::from_physical(&var, &by_detail.fields()).unwrap();
        assert_eq!(by_detail.slots()[0].kind, SlotKind::SumF64);
        assert_eq!(read_back.slots()[0].kind, SlotKind::Sum);
        assert!(read_back.merges_as(&by_detail) && by_detail.merges_as(&read_back));
        assert!(!ints.merges_as(&doubles) && !doubles.merges_as(&two_blocks));
    }

    #[test]
    fn physical_and_logical_fields() {
        let blocks = vec![vec![AggSpec::count("c"), AggSpec::avg("x", "a")]];
        let d = detail_schema();
        let phys = AccLayout::new(&blocks, &d).unwrap().fields();
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
