//! Scalar expressions over one or two rows.
//!
//! GMDJ conditions θ(b, r) relate a *base* tuple `b` (a tuple of the
//! base-values relation `B`) and a *detail* tuple `r` (a tuple of a fact
//! relation `R`). An [`Expr`] therefore references columns tagged with a
//! [`Side`]. Expressions that only reference [`Side::Base`] double as
//! ordinary single-row predicates (selections, derived ¬ψ filters).
//!
//! Expressions are built *by name* and then [bound](Expr::bind) against
//! concrete schemas, producing a [`BoundExpr`] with positional column
//! references for fast evaluation.
//!
//! ### Null semantics
//! Comparisons involving `NULL` evaluate to `NULL` (not truthy); arithmetic
//! involving `NULL` yields `NULL`; `AND`/`OR` treat `NULL` as false. This is
//! a pragmatic two-valued reading that matches how the paper's conditions
//! behave over non-null warehouse data.

use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// Which input row a column reference points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// The base-values tuple `b` (written `b.col`).
    Base,
    /// The detail tuple `r` (written `r.col`).
    Detail,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Base => write!(f, "b"),
            Side::Detail => write!(f, "r"),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Apply to two non-null values using the total value order.
    pub fn apply(self, a: &Value, b: &Value) -> bool {
        self.holds(a.cmp(b))
    }

    /// Does `lhs ⟨self⟩ rhs` hold when `lhs.cmp(rhs)` is `ord`?
    pub fn holds(self, ord: std::cmp::Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == std::cmp::Ordering::Equal,
            CmpOp::Ne => ord != std::cmp::Ordering::Equal,
            CmpOp::Lt => ord == std::cmp::Ordering::Less,
            CmpOp::Le => ord != std::cmp::Ordering::Greater,
            CmpOp::Gt => ord == std::cmp::Ordering::Greater,
            CmpOp::Ge => ord != std::cmp::Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division always produces a `Double`; division by zero yields `NULL`.
    Div,
    /// Integer modulo; non-integer operands or zero divisor yield `NULL`.
    Mod,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        };
        write!(f, "{s}")
    }
}

/// Evaluate an arithmetic operator over two values.
pub fn eval_arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    match op {
        ArithOp::Mod => match (a, b) {
            (Value::Int(x), Value::Int(y)) => {
                if *y == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Int(x.rem_euclid(*y)))
                }
            }
            _ => Ok(Value::Null),
        },
        ArithOp::Div => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => {
                if y == 0.0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Double(x / y))
                }
            }
            _ => Err(Error::TypeError(format!("cannot divide {a} by {b}"))),
        },
        ArithOp::Add => int_or_double(op, a, b, i64::wrapping_add, crate::value::f64_add),
        ArithOp::Sub => int_or_double(op, a, b, i64::wrapping_sub, |x, y| x - y),
        ArithOp::Mul => int_or_double(op, a, b, i64::wrapping_mul, |x, y| x * y),
    }
}

/// `+`, `-`, `*`: an `Int` when both operands are, a `Double` otherwise.
fn int_or_double(
    op: ArithOp,
    a: &Value,
    b: &Value,
    int: impl Fn(i64, i64) -> i64,
    double: impl Fn(f64, f64) -> f64,
) -> Result<Value> {
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return Ok(Value::Int(int(*x, *y)));
    }
    let operand = |v: &Value| {
        v.as_f64()
            .ok_or_else(|| Error::TypeError(format!("non-numeric operand {v} for {op}")))
    };
    Ok(Value::Double(double(operand(a)?, operand(b)?)))
}

/// A scalar expression with named column references.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference `side.name`.
    Col(Side, String),
    /// Literal value.
    Lit(Value),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Membership in a literal set.
    InList(Box<Expr>, Vec<Value>),
    /// Constant true (the empty condition).
    True,
}

#[allow(clippy::should_implement_trait)] // fluent DSL methods, not operator impls
impl Expr {
    /// Base-side column `b.name`.
    pub fn bcol(name: impl Into<String>) -> Expr {
        Expr::Col(Side::Base, name.into())
    }

    /// Detail-side column `r.name`.
    pub fn dcol(name: impl Into<String>) -> Expr {
        Expr::Col(Side::Detail, name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self <> other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self AND other`, simplifying `True` operands away.
    pub fn and(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::True, e) | (e, Expr::True) => e,
            (a, b) => Expr::And(Box::new(a), Box::new(b)),
        }
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self IN (values…)`.
    pub fn in_list(self, values: Vec<Value>) -> Expr {
        Expr::InList(Box::new(self), values)
    }

    /// `self + other`.
    pub fn add(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(other))
    }

    /// `self - other`.
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(other))
    }

    /// `self * other`.
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(other))
    }

    /// `self / other`.
    pub fn div(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(self), Box::new(other))
    }

    /// Conjunction of a list of expressions (`True` if empty).
    pub fn conjunction(exprs: Vec<Expr>) -> Expr {
        exprs.into_iter().reduce(Expr::and).unwrap_or(Expr::True)
    }

    /// Disjunction of a list of expressions (`True` if empty — callers use
    /// this only for non-empty θ lists, where the paper's θ₁ ∨ … ∨ θₘ is
    /// well-defined).
    pub fn disjunction(exprs: Vec<Expr>) -> Expr {
        exprs.into_iter().reduce(Expr::or).unwrap_or(Expr::True)
    }

    /// Flatten the top-level `AND` tree into conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Expr::True => {}
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Column names referenced on `side`.
    pub fn columns(&self, side: Side) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.visit_columns(&mut |s, name| {
            if s == side {
                out.insert(name.to_string());
            }
        });
        out
    }

    /// Whether the expression references any column on `side`.
    pub fn references_side(&self, side: Side) -> bool {
        let mut found = false;
        self.visit_columns(&mut |s, _| {
            if s == side {
                found = true;
            }
        });
        found
    }

    /// Visit all column references.
    pub fn visit_columns(&self, f: &mut impl FnMut(Side, &str)) {
        match self {
            Expr::Col(s, n) => f(*s, n),
            Expr::Lit(_) | Expr::True => {}
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.visit_columns(f);
                b.visit_columns(f);
            }
            Expr::Not(a) => a.visit_columns(f),
            Expr::InList(a, _) => a.visit_columns(f),
        }
    }

    /// Rewrite every column reference with `f` (used when GMDJ outputs are
    /// renamed, and to retarget base-side expressions at shipped fragments).
    pub fn map_columns(&self, f: &mut impl FnMut(Side, &str) -> (Side, String)) -> Expr {
        match self {
            Expr::Col(s, n) => {
                let (s2, n2) = f(*s, n);
                Expr::Col(s2, n2)
            }
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::True => Expr::True,
            Expr::Cmp(op, a, b) => Expr::Cmp(
                *op,
                Box::new(a.map_columns(f)),
                Box::new(b.map_columns(f)),
            ),
            Expr::Arith(op, a, b) => Expr::Arith(
                *op,
                Box::new(a.map_columns(f)),
                Box::new(b.map_columns(f)),
            ),
            Expr::And(a, b) => a.map_columns(f).and(b.map_columns(f)),
            Expr::Or(a, b) => a.map_columns(f).or(b.map_columns(f)),
            Expr::Not(a) => a.map_columns(f).not(),
            Expr::InList(a, vs) => Expr::InList(Box::new(a.map_columns(f)), vs.clone()),
        }
    }

    /// Infer the result type of this expression against schemas.
    ///
    /// Comparisons and boolean operators produce `Int` (0/1); division
    /// produces `Double`; other arithmetic produces `Int` only when both
    /// operands are `Int`. Every non-`NULL` value [`BoundExpr::eval`]
    /// gives is of this type. `+`, `-`, `*` and `/` with a `Str` operand,
    /// which evaluation refuses, are an [`Error::TypeError`] here already.
    pub fn infer_type(&self, base: &Schema, detail: Option<&Schema>) -> Result<crate::DataType> {
        use crate::DataType;
        match self {
            Expr::Col(Side::Base, n) => Ok(base.field(base.index_of(n)?).data_type()),
            Expr::Col(Side::Detail, n) => {
                let d = detail.ok_or_else(|| {
                    Error::Plan(format!("detail column r.{n} in a single-row context"))
                })?;
                Ok(d.field(d.index_of(n)?).data_type())
            }
            Expr::Lit(v) => Ok(v.data_type().unwrap_or(DataType::Int)),
            Expr::True | Expr::Cmp(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(_)
            | Expr::InList(..) => Ok(DataType::Int),
            Expr::Arith(op, a, b) => {
                let (ta, tb) = (a.infer_type(base, detail)?, b.infer_type(base, detail)?);
                match op {
                    ArithOp::Mod => Ok(DataType::Int),
                    _ if ta == DataType::Str || tb == DataType::Str => Err(Error::TypeError(
                        format!("non-numeric operand of {op} in {self}"),
                    )),
                    ArithOp::Div => Ok(DataType::Double),
                    _ if ta == DataType::Int && tb == DataType::Int => Ok(DataType::Int),
                    _ => Ok(DataType::Double),
                }
            }
        }
    }

    /// Bind against schemas: `base` resolves `b.*` references, `detail`
    /// resolves `r.*` references. Pass `None` for `detail` when binding a
    /// single-row (base-only) predicate.
    pub fn bind(&self, base: &Schema, detail: Option<&Schema>) -> Result<BoundExpr> {
        let b = match self {
            Expr::Col(Side::Base, n) => BoundExpr::Col(Side::Base, base.index_of(n)?),
            Expr::Col(Side::Detail, n) => {
                let d = detail.ok_or_else(|| {
                    Error::Plan(format!("detail column r.{n} in a single-row context"))
                })?;
                BoundExpr::Col(Side::Detail, d.index_of(n)?)
            }
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::True => BoundExpr::Lit(Value::Int(1)),
            Expr::Cmp(op, a, c) => BoundExpr::Cmp(
                *op,
                Box::new(a.bind(base, detail)?),
                Box::new(c.bind(base, detail)?),
            ),
            Expr::Arith(op, a, c) => BoundExpr::Arith(
                *op,
                Box::new(a.bind(base, detail)?),
                Box::new(c.bind(base, detail)?),
            ),
            Expr::And(a, c) => BoundExpr::And(
                Box::new(a.bind(base, detail)?),
                Box::new(c.bind(base, detail)?),
            ),
            Expr::Or(a, c) => BoundExpr::Or(
                Box::new(a.bind(base, detail)?),
                Box::new(c.bind(base, detail)?),
            ),
            Expr::Not(a) => BoundExpr::Not(Box::new(a.bind(base, detail)?)),
            Expr::InList(a, vs) => {
                // Sort so evaluation can binary-search: IN lists derived
                // from site value-set domains can hold thousands of values.
                let mut sorted = vs.clone();
                sorted.sort();
                BoundExpr::InList(Box::new(a.bind(base, detail)?), sorted.into())
            }
        };
        Ok(b)
    }
}

/// Render a literal so that [`crate::parse_expr`] reads it back
/// (strings quoted with `''` escaping).
fn fmt_literal(v: &Value, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match v {
        Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        other => write!(f, "{other}"),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(s, n) => write!(f, "{s}.{n}"),
            Expr::Lit(v) => fmt_literal(v, f),
            Expr::True => write!(f, "TRUE"),
            Expr::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
            Expr::Arith(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "NOT ({a})"),
            Expr::InList(a, vs) => {
                write!(f, "{a} IN (")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    fmt_literal(v, f)?;
                }
                write!(f, ")")
            }
        }
    }
}

/// An [`Expr`] with column references resolved to positions.
///
/// Variants mirror [`Expr`] one-for-one.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum BoundExpr {
    Col(Side, usize),
    Lit(Value),
    Cmp(CmpOp, Box<BoundExpr>, Box<BoundExpr>),
    Arith(ArithOp, Box<BoundExpr>, Box<BoundExpr>),
    And(Box<BoundExpr>, Box<BoundExpr>),
    Or(Box<BoundExpr>, Box<BoundExpr>),
    Not(Box<BoundExpr>),
    InList(Box<BoundExpr>, Box<[Value]>),
}

impl BoundExpr {
    /// Evaluate over a base row and a detail row.
    pub fn eval(&self, base: &Row, detail: &Row) -> Result<Value> {
        self.eval_with(&mut |side, i| match side {
            Side::Base => Ok(base.get(i).clone()),
            Side::Detail => Ok(detail.get(i).clone()),
        })
    }

    /// Evaluate a base-only predicate over a single row.
    pub fn eval_row(&self, base: &Row) -> Result<Value> {
        self.eval_with(&mut |side, i| match side {
            Side::Base => Ok(base.get(i).clone()),
            Side::Detail => Err(Error::Plan("detail column in single-row eval".into())),
        })
    }

    /// Evaluate at row `b` of a base relation and row `d` of a detail
    /// relation, reading each value from its column in place
    /// ([`Relation::column`]) instead of a materialized [`Row`]. A side
    /// given as `None` must not be referenced (an error otherwise): a
    /// base-only predicate over one relation ([`Relation::select`]) passes
    /// no detail side, a detail-only aggregate input no base side.
    pub fn eval_cols(
        &self,
        base: Option<(&Relation, usize)>,
        detail: Option<(&Relation, usize)>,
    ) -> Result<Value> {
        self.eval_with(&mut |side, i| {
            let at = match side {
                Side::Base => base,
                Side::Detail => detail,
            };
            let (rel, r) = at.ok_or_else(|| Error::Plan(format!("no {side:?} side to read column {i} of")))?;
            Ok(rel.column(i).value(r))
        })
    }

    /// The one evaluator: `col(side, i)` is column `i` of `side`'s value.
    fn eval_with(&self, col: &mut impl FnMut(Side, usize) -> Result<Value>) -> Result<Value> {
        match self {
            BoundExpr::Col(side, i) => col(*side, *i),
            BoundExpr::Lit(v) => Ok(v.clone()),
            BoundExpr::Cmp(op, a, b) => {
                let (x, y) = (a.eval_with(col)?, b.eval_with(col)?);
                if x.is_null() || y.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Int(op.apply(&x, &y) as i64))
            }
            BoundExpr::Arith(op, a, b) => {
                let (x, y) = (a.eval_with(col)?, b.eval_with(col)?);
                eval_arith(*op, &x, &y)
            }
            BoundExpr::And(a, b) => {
                if !a.eval_with(col)?.is_truthy() {
                    return Ok(Value::Int(0));
                }
                Ok(Value::Int(b.eval_with(col)?.is_truthy() as i64))
            }
            BoundExpr::Or(a, b) => {
                if a.eval_with(col)?.is_truthy() {
                    return Ok(Value::Int(1));
                }
                Ok(Value::Int(b.eval_with(col)?.is_truthy() as i64))
            }
            BoundExpr::Not(a) => Ok(Value::Int(!a.eval_with(col)?.is_truthy() as i64)),
            BoundExpr::InList(a, vs) => {
                let x = a.eval_with(col)?;
                if x.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Int(vs.binary_search(&x).is_ok() as i64))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::DataType;

    fn schemas() -> (Schema, Schema) {
        (
            Schema::of(&[("k", DataType::Int), ("avg", DataType::Double)]),
            Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]),
        )
    }

    #[test]
    fn equi_condition_evaluates() {
        let (b, d) = schemas();
        let theta = Expr::bcol("k").eq(Expr::dcol("k"));
        let bound = theta.bind(&b, Some(&d)).unwrap();
        assert!(bound
            .eval(&row![1i64, 0.0], &row![1i64, 5i64])
            .unwrap()
            .is_truthy());
        assert!(!bound
            .eval(&row![1i64, 0.0], &row![2i64, 5i64])
            .unwrap()
            .is_truthy());
    }

    #[test]
    fn correlated_condition_with_arithmetic() {
        let (b, d) = schemas();
        // r.v >= b.avg * 2
        let theta = Expr::dcol("v").ge(Expr::bcol("avg").mul(Expr::lit(2i64)));
        let bound = theta.bind(&b, Some(&d)).unwrap();
        assert!(bound
            .eval(&row![0i64, 2.5], &row![0i64, 5i64])
            .unwrap()
            .is_truthy());
        assert!(!bound
            .eval(&row![0i64, 2.6], &row![0i64, 5i64])
            .unwrap()
            .is_truthy());
    }

    #[test]
    fn null_comparison_is_not_truthy() {
        let (b, d) = schemas();
        let theta = Expr::bcol("avg").lt(Expr::dcol("v"));
        let bound = theta.bind(&b, Some(&d)).unwrap();
        let r = bound.eval(&row![0i64, Value::Null], &row![0i64, 5i64]).unwrap();
        assert!(r.is_null());
        assert!(!r.is_truthy());
    }

    #[test]
    fn division_yields_double_and_by_zero_null() {
        assert_eq!(
            eval_arith(ArithOp::Div, &Value::Int(7), &Value::Int(2)).unwrap(),
            Value::Double(3.5)
        );
        assert_eq!(
            eval_arith(ArithOp::Div, &Value::Int(7), &Value::Int(0)).unwrap(),
            Value::Null
        );
    }

    /// `+ - * /` with a string operand are refused at typing, as their
    /// evaluation is; `%` evaluates to `NULL` there and types as `INT`.
    #[test]
    fn string_arithmetic_is_a_type_error() {
        let d = Schema::of(&[("name", DataType::Str), ("x", DataType::Double)]);
        let empty = Schema::of(&[]);
        let name = || Expr::dcol("name");
        for e in [name().add(Expr::lit(1i64)), Expr::lit(2.0).div(name()), name().mul(Expr::dcol("x"))] {
            assert!(matches!(e.infer_type(&empty, Some(&d)), Err(Error::TypeError(_))), "{e}");
        }
        let m = Expr::Arith(ArithOp::Mod, Box::new(name()), Box::new(Expr::lit(2i64)));
        assert_eq!(m.infer_type(&empty, Some(&d)).unwrap(), DataType::Int);
        assert_eq!(Expr::dcol("x").add(Expr::lit(1i64)).infer_type(&empty, Some(&d)).unwrap(), DataType::Double);
    }

    #[test]
    fn modulo() {
        assert_eq!(
            eval_arith(ArithOp::Mod, &Value::Int(-7), &Value::Int(3)).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            eval_arith(ArithOp::Mod, &Value::Double(1.5), &Value::Int(3)).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn conjuncts_flatten() {
        let e = Expr::bcol("a")
            .eq(Expr::dcol("a"))
            .and(Expr::bcol("b").eq(Expr::dcol("b")))
            .and(Expr::dcol("v").gt(Expr::lit(0i64)));
        assert_eq!(e.conjuncts().len(), 3);
        assert_eq!(Expr::True.conjuncts().len(), 0);
    }

    #[test]
    fn side_column_sets() {
        let e = Expr::bcol("x")
            .add(Expr::bcol("y"))
            .lt(Expr::dcol("z").mul(Expr::lit(2i64)));
        assert_eq!(
            e.columns(Side::Base).into_iter().collect::<Vec<_>>(),
            ["x", "y"]
        );
        assert_eq!(
            e.columns(Side::Detail).into_iter().collect::<Vec<_>>(),
            ["z"]
        );
        assert!(e.references_side(Side::Detail));
        assert!(!Expr::lit(1i64).references_side(Side::Base));
    }

    #[test]
    fn binding_unknown_column_fails() {
        let (b, d) = schemas();
        assert!(Expr::bcol("nope").bind(&b, Some(&d)).is_err());
        assert!(Expr::dcol("v").bind(&b, None).is_err());
    }

    #[test]
    fn in_list_and_not() {
        let (b, d) = schemas();
        let e = Expr::bcol("k")
            .in_list(vec![Value::Int(1), Value::Int(3)])
            .not();
        let bound = e.bind(&b, Some(&d)).unwrap();
        assert!(!bound.eval_row(&row![1i64, 0.0]).unwrap().is_truthy());
        assert!(bound.eval_row(&row![2i64, 0.0]).unwrap().is_truthy());
    }

    #[test]
    fn and_short_circuits_on_false() {
        let (b, _) = schemas();
        // (k = 99) AND (r.k = 0) — detail side would error in single-row
        // eval, but the false left side short-circuits it.
        let e = Expr::bcol("k").eq(Expr::lit(99i64)).and(Expr::dcol("k").eq(Expr::lit(0i64)));
        let bound = e.bind(&b, Some(&Schema::of(&[("k", DataType::Int)]))).unwrap();
        assert!(!bound.eval_row(&row![1i64, 0.0]).unwrap().is_truthy());
    }

    #[test]
    fn display_round_trips_reasonably() {
        let e = Expr::bcol("sas")
            .eq(Expr::dcol("sas"))
            .and(Expr::dcol("nb").ge(Expr::bcol("sum1").div(Expr::bcol("cnt1"))));
        assert_eq!(
            e.to_string(),
            "(b.sas = r.sas AND r.nb >= (b.sum1 / b.cnt1))"
        );
    }

    #[test]
    fn conjunction_disjunction_builders() {
        assert_eq!(Expr::conjunction(vec![]), Expr::True);
        let c = Expr::conjunction(vec![Expr::lit(1i64), Expr::lit(2i64)]);
        assert!(matches!(c, Expr::And(_, _)));
        let d = Expr::disjunction(vec![Expr::lit(1i64), Expr::lit(0i64)]);
        assert!(matches!(d, Expr::Or(_, _)));
    }

    #[test]
    fn map_columns_renames() {
        let e = Expr::bcol("a").eq(Expr::dcol("a"));
        let renamed = e.map_columns(&mut |s, n| (s, format!("{n}_{s}")));
        assert_eq!(renamed.to_string(), "b.a_b = r.a_r");
    }
}
