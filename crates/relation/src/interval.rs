//! Interval/domain analysis used to derive ¬ψ predicates for
//! distribution-aware group reduction (Theorem 4 of the paper).
//!
//! Each site *i* is described by a predicate φ_i that holds for every detail
//! tuple stored there — here a [`DomainMap`]: per-column guarantees such as
//! `nation_key ∈ [0, 3]` or `flag ∈ {'A','N'}`. Given a GMDJ condition
//! θ(b, r), [`derive_base_constraint`] computes a *necessary* condition over
//! the base tuple `b` for `∃ r: φ_i(r) ∧ θ(b, r)` — the paper's ¬ψ_i. The
//! coordinator ships to site *i* only base tuples satisfying it.
//!
//! Soundness contract: the derived predicate may be weaker than the exact
//! ¬ψ_i (shipping a few extra groups is merely suboptimal), but it must
//! never exclude a base tuple that has a matching detail tuple at the site.
//! Every rule below over-approximates. That includes rounding: an
//! [`Interval`]'s `f64` bounds are rounded outward (an `i64` with no
//! exact double, or an inexact sum, product or quotient, steps to the
//! next double away from the interval), because the derived filter's
//! `Double` literals compare with `Int` base values exactly.

use crate::expr::{ArithOp, CmpOp, Expr, Side};
use crate::value::Value;
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::fmt;

/// A closed numeric interval (bounds may be infinite). Used to bound the
/// possible values of detail-side expressions at a site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Inclusive lower bound (`-inf` if unbounded).
    pub lo: f64,
    /// Inclusive upper bound (`+inf` if unbounded).
    pub hi: f64,
}

#[allow(clippy::should_implement_trait)] // fluent DSL methods, not operator impls
impl Interval {
    /// The unbounded interval.
    pub fn all() -> Interval {
        Interval {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// A single point.
    pub fn point(v: f64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// An interval from bounds.
    pub fn new(lo: f64, hi: f64) -> Interval {
        Interval { lo, hi }
    }

    /// Does the interval contain no values?
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// The interval holding one numeric value; `None` for NULL and
    /// strings. An `Int` past 2⁵³ has no exact `f64`, so its bounds are
    /// the doubles on either side of it.
    pub fn of_value(v: &Value) -> Option<Interval> {
        match v {
            Value::Int(i) => Some(Interval::of_ints(*i, *i)),
            Value::Double(d) => Some(Interval::point(*d)),
            _ => None,
        }
    }

    /// The interval holding the integers `lo..=hi`, its bounds rounded
    /// outward where `i as f64` is inexact.
    pub fn of_ints(lo: i64, hi: i64) -> Interval {
        let (l, h) = (lo as f64, hi as f64);
        // `as i128` is exact for every `i64 as f64`, 2⁶³ included.
        Interval::new(
            down(l, (lo as i128 - l as i128) as f64),
            up(h, (hi as i128 - h as i128) as f64),
        )
    }

    /// Interval sum.
    pub fn add(self, o: Interval) -> Interval {
        Interval::new(add_down(self.lo, o.lo), add_up(self.hi, o.hi))
    }

    /// Interval difference.
    pub fn sub(self, o: Interval) -> Interval {
        Interval::new(add_down(self.lo, -o.hi), add_up(self.hi, -o.lo))
    }

    /// Interval product (min/max of endpoint products).
    pub fn mul(self, o: Interval) -> Interval {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (a, b) in [
            (self.lo, o.lo),
            (self.lo, o.hi),
            (self.hi, o.lo),
            (self.hi, o.hi),
        ] {
            let p = a * b;
            // 0 * inf = NaN; treat as 0 (a zero endpoint annihilates).
            if p.is_nan() {
                lo = lo.min(0.0);
                hi = hi.max(0.0);
                continue;
            }
            // The exact product minus `p`, by one fused multiply-add.
            let err = a.mul_add(b, -p);
            lo = lo.min(down(p, err));
            hi = hi.max(up(p, err));
        }
        Interval::new(lo, hi)
    }

    /// Interval quotient; `None` when the divisor interval contains 0 (we
    /// then give up rather than produce an unsound bound).
    pub fn div(self, o: Interval) -> Option<Interval> {
        if o.lo <= 0.0 && o.hi >= 0.0 {
            return None;
        }
        // 1/x − q has the sign of (1 − q·x)/x, and 1 − q·x is exact in
        // one fused multiply-add.
        let recip = |x: f64| {
            let q = 1.0 / x;
            (q, (-q).mul_add(x, 1.0) / x)
        };
        let ((lo, lo_err), (hi, hi_err)) = (recip(o.hi), recip(o.lo));
        Some(self.mul(Interval::new(down(lo, lo_err), up(hi, hi_err))))
    }

    /// Intersection.
    pub fn intersect(self, o: Interval) -> Interval {
        Interval::new(self.lo.max(o.lo), self.hi.min(o.hi))
    }
}

/// `x`, a rounded bound whose exact value is `x + err`, stepped down to
/// stay at or below that value. A NaN `err` (an infinite operand) keeps
/// `x`.
fn down(x: f64, err: f64) -> f64 {
    if err < 0.0 {
        x.next_down()
    } else {
        x
    }
}

/// `x`, a rounded bound whose exact value is `x + err`, stepped up to stay
/// at or above that value.
fn up(x: f64, err: f64) -> f64 {
    if err > 0.0 {
        x.next_up()
    } else {
        x
    }
}

/// The exact `a + b` minus its rounded sum `s` (Knuth's TwoSum).
fn sum_err(a: f64, b: f64, s: f64) -> f64 {
    let bb = s - a;
    (a - (s - bb)) + (b - bb)
}

/// `a + b` rounded toward −∞.
fn add_down(a: f64, b: f64) -> f64 {
    let s = a + b;
    down(s, sum_err(a, b, s))
}

/// `a + b` rounded toward +∞.
fn add_up(a: f64, b: f64) -> f64 {
    let s = a + b;
    up(s, sum_err(a, b, s))
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// What a site's φ guarantees about one detail column.
#[derive(Debug, Clone, PartialEq)]
pub enum Domain {
    /// No information.
    Any,
    /// Values lie in an inclusive integer range.
    IntRange(i64, i64),
    /// Values are members of an explicit set.
    Set(BTreeSet<Value>),
}

impl Domain {
    /// Build a `Set` domain from values.
    pub fn of(values: impl IntoIterator<Item = Value>) -> Domain {
        Domain::Set(values.into_iter().collect())
    }

    /// The numeric interval covering this domain, if any.
    pub fn interval(&self) -> Interval {
        match self {
            Domain::Any => Interval::all(),
            Domain::IntRange(lo, hi) => Interval::of_ints(*lo, *hi),
            Domain::Set(vs) => {
                let mut iv = Interval::new(f64::INFINITY, f64::NEG_INFINITY);
                for v in vs {
                    match Interval::of_value(v) {
                        Some(x) => {
                            iv.lo = iv.lo.min(x.lo);
                            iv.hi = iv.hi.max(x.hi);
                        }
                        // Non-numeric member: fall back to "anything".
                        None => return Interval::all(),
                    }
                }
                if vs.is_empty() {
                    // Empty site partition: empty interval.
                    Interval::new(1.0, 0.0)
                } else {
                    iv
                }
            }
        }
    }

    /// The explicit value set, when finite.
    pub fn as_set(&self) -> Option<&BTreeSet<Value>> {
        match self {
            Domain::Set(s) => Some(s),
            _ => None,
        }
    }

    /// Do two domains share no values? (Used to verify partition
    /// attributes, Definition 2.)
    pub fn disjoint_from(&self, other: &Domain) -> bool {
        match (self, other) {
            (Domain::IntRange(a, b), Domain::IntRange(c, d)) => b < c || d < a,
            (Domain::Set(x), Domain::Set(y)) => x.is_disjoint(y),
            (Domain::Set(s), Domain::IntRange(lo, hi))
            | (Domain::IntRange(lo, hi), Domain::Set(s)) => !s.iter().any(|v| {
                v.as_i64().map(|i| i >= *lo && i <= *hi).unwrap_or(false)
                    || v.as_f64()
                        .map(|x| x >= *lo as f64 && x <= *hi as f64)
                        .unwrap_or(false)
            }),
            _ => false,
        }
    }
}

/// Per-column domain guarantees at one site — the structured form of φ_i.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DomainMap {
    domains: HashMap<String, Domain>,
}

impl DomainMap {
    /// No guarantees about any column.
    pub fn new() -> DomainMap {
        DomainMap::default()
    }

    /// Record a guarantee for a column.
    pub fn with(mut self, column: impl Into<String>, domain: Domain) -> DomainMap {
        self.domains.insert(column.into(), domain);
        self
    }

    /// Record a guarantee for a column (mutating form).
    pub fn insert(&mut self, column: impl Into<String>, domain: Domain) {
        self.domains.insert(column.into(), domain);
    }

    /// The guarantee for a column (`Any` if unknown).
    pub fn get(&self, column: &str) -> &Domain {
        self.domains.get(column).unwrap_or(&Domain::Any)
    }

    /// Columns with a non-trivial guarantee.
    pub fn constrained_columns(&self) -> impl Iterator<Item = &str> {
        self.domains.keys().map(String::as_str)
    }
}

/// Bound the possible values of a *detail-only* expression under `domains`.
/// Returns `None` when the expression cannot be bounded (strings, division
/// by an interval containing zero, base-side references, …).
pub fn eval_interval(expr: &Expr, domains: &DomainMap) -> Option<Interval> {
    match expr {
        Expr::Col(Side::Detail, name) => Some(domains.get(name).interval()),
        Expr::Col(Side::Base, _) => None,
        Expr::Lit(v) => Interval::of_value(v),
        Expr::Arith(op, a, b) => {
            let (x, y) = (eval_interval(a, domains)?, eval_interval(b, domains)?);
            match op {
                ArithOp::Add => Some(x.add(y)),
                ArithOp::Sub => Some(x.sub(y)),
                ArithOp::Mul => Some(x.mul(y)),
                ArithOp::Div => x.div(y),
                // v mod m lies in [0, m-1] for a positive constant modulus.
                ArithOp::Mod => {
                    if y.lo == y.hi && y.lo > 0.0 {
                        Some(Interval::new(0.0, add_up(y.lo, -1.0)))
                    } else {
                        None
                    }
                }
            }
        }
        _ => None,
    }
}

/// Outcome of analyzing one θ against one site's φ.
#[derive(Debug, Clone, PartialEq)]
pub enum BaseConstraint {
    /// No useful restriction could be derived: ship every base tuple.
    Unrestricted,
    /// Ship only base tuples satisfying this base-only predicate (¬ψ_i).
    Filter(Expr),
    /// θ is unsatisfiable at this site: ship nothing (site does not
    /// participate in this GMDJ — the paper's S_MD ⊂ S_B case).
    Unsatisfiable,
}

impl BaseConstraint {
    /// Conjunction of two constraints on the same site.
    pub fn and(self, other: BaseConstraint) -> BaseConstraint {
        match (self, other) {
            (BaseConstraint::Unsatisfiable, _) | (_, BaseConstraint::Unsatisfiable) => {
                BaseConstraint::Unsatisfiable
            }
            (BaseConstraint::Unrestricted, o) => o,
            (s, BaseConstraint::Unrestricted) => s,
            (BaseConstraint::Filter(a), BaseConstraint::Filter(b)) => {
                BaseConstraint::Filter(a.and(b))
            }
        }
    }

    /// Disjunction of constraints (across the θ_1 ∨ … ∨ θ_m of a GMDJ: a
    /// base tuple must be shipped if *any* block might match it).
    pub fn or(self, other: BaseConstraint) -> BaseConstraint {
        match (self, other) {
            (BaseConstraint::Unrestricted, _) | (_, BaseConstraint::Unrestricted) => {
                BaseConstraint::Unrestricted
            }
            (BaseConstraint::Unsatisfiable, o) => o,
            (s, BaseConstraint::Unsatisfiable) => s,
            (BaseConstraint::Filter(a), BaseConstraint::Filter(b)) => {
                BaseConstraint::Filter(a.or(b))
            }
        }
    }
}

/// Split a comparison into (base-only side, detail-only side, op oriented as
/// `base op detail`), if it has that shape.
fn split_base_detail<'e>(
    op: CmpOp,
    a: &'e Expr,
    b: &'e Expr,
) -> Option<(CmpOp, &'e Expr, &'e Expr)> {
    let a_base = a.references_side(Side::Base);
    let a_detail = a.references_side(Side::Detail);
    let b_base = b.references_side(Side::Base);
    let b_detail = b.references_side(Side::Detail);
    if a_base && !a_detail && b_detail && !b_base {
        Some((op, a, b))
    } else if b_base && !b_detail && a_detail && !a_base {
        Some((op.flipped(), b, a))
    } else {
        None
    }
}

/// Derive the ¬ψ_i base-tuple constraint for condition `theta` at a site
/// whose detail tuples satisfy `domains` (φ_i).
pub fn derive_base_constraint(theta: &Expr, domains: &DomainMap) -> BaseConstraint {
    match theta {
        Expr::True => BaseConstraint::Unrestricted,
        Expr::And(a, b) => {
            derive_base_constraint(a, domains).and(derive_base_constraint(b, domains))
        }
        Expr::Or(a, b) => {
            derive_base_constraint(a, domains).or(derive_base_constraint(b, domains))
        }
        Expr::Cmp(op, a, b) => {
            // Base-only conjunct: it is itself a necessary condition.
            let refs_detail =
                a.references_side(Side::Detail) || b.references_side(Side::Detail);
            let refs_base = a.references_side(Side::Base) || b.references_side(Side::Base);
            if !refs_detail && refs_base {
                return BaseConstraint::Filter(theta.clone());
            }
            // Detail-only conjunct: check satisfiability under φ_i.
            if refs_detail && !refs_base {
                return detail_only_satisfiable(*op, a, b, domains);
            }
            let Some((op, base_side, detail_side)) = split_base_detail(*op, a, b) else {
                return BaseConstraint::Unrestricted;
            };
            // Exact set transfer for `base_expr = r.col` with a Set domain.
            // Not when the set holds NULL: `b.g IN (…, NULL)` is NULL for a
            // NULL-keyed base tuple, which the filter would drop, while
            // the kernel's equi-key probe matches NULL to NULL. Such a set
            // has a non-numeric member, so the interval path below leaves
            // the site unrestricted.
            if op == CmpOp::Eq {
                if let Expr::Col(Side::Detail, name) = detail_side {
                    if let Some(set) = domains
                        .get(name)
                        .as_set()
                        .filter(|set| !set.iter().any(Value::is_null))
                    {
                        if set.is_empty() {
                            return BaseConstraint::Unsatisfiable;
                        }
                        return BaseConstraint::Filter(
                            base_side.clone().in_list(set.iter().cloned().collect()),
                        );
                    }
                }
            }
            let Some(iv) = eval_interval(detail_side, domains) else {
                return BaseConstraint::Unrestricted;
            };
            if iv.is_empty() {
                return BaseConstraint::Unsatisfiable;
            }
            let lo = Expr::Lit(Value::Double(iv.lo));
            let hi = Expr::Lit(Value::Double(iv.hi));
            let filter = match op {
                // base = detail ⇒ lo ≤ base ≤ hi.
                CmpOp::Eq => {
                    let mut f: Option<Expr> = None;
                    if iv.lo.is_finite() {
                        f = Some(base_side.clone().ge(lo));
                    }
                    if iv.hi.is_finite() {
                        let c = base_side.clone().le(hi);
                        f = Some(match f {
                            Some(g) => g.and(c),
                            None => c,
                        });
                    }
                    match f {
                        Some(f) => f,
                        None => return BaseConstraint::Unrestricted,
                    }
                }
                // base < detail ⇒ base < hi (detail can be at most hi).
                CmpOp::Lt if iv.hi.is_finite() => base_side.clone().lt(hi),
                CmpOp::Le if iv.hi.is_finite() => base_side.clone().le(hi),
                // base > detail ⇒ base > lo.
                CmpOp::Gt if iv.lo.is_finite() => base_side.clone().gt(lo),
                CmpOp::Ge if iv.lo.is_finite() => base_side.clone().ge(lo),
                _ => return BaseConstraint::Unrestricted,
            };
            BaseConstraint::Filter(filter)
        }
        Expr::InList(inner, values) => {
            // r.col IN (…) — detail-only: satisfiable iff the site's domain
            // intersects the list.
            if let Expr::Col(Side::Detail, name) = inner.as_ref() {
                match domains.get(name) {
                    Domain::Set(set) => {
                        if values.iter().any(|v| set.contains(v)) {
                            BaseConstraint::Unrestricted
                        } else {
                            BaseConstraint::Unsatisfiable
                        }
                    }
                    Domain::IntRange(lo, hi) => {
                        let any = values.iter().any(|v| {
                            v.as_i64().map(|i| i >= *lo && i <= *hi).unwrap_or(true)
                        });
                        if any {
                            BaseConstraint::Unrestricted
                        } else {
                            BaseConstraint::Unsatisfiable
                        }
                    }
                    Domain::Any => BaseConstraint::Unrestricted,
                }
            } else {
                BaseConstraint::Unrestricted
            }
        }
        // NOT, literals, bare columns: give up (sound).
        _ => BaseConstraint::Unrestricted,
    }
}

/// Satisfiability check for a detail-only comparison under φ_i.
fn detail_only_satisfiable(
    op: CmpOp,
    a: &Expr,
    b: &Expr,
    domains: &DomainMap,
) -> BaseConstraint {
    let (Some(ia), Some(ib)) = (eval_interval(a, domains), eval_interval(b, domains)) else {
        return BaseConstraint::Unrestricted;
    };
    let sat = match op {
        CmpOp::Eq => !ia.intersect(ib).is_empty(),
        CmpOp::Ne => !(ia.lo == ia.hi && ib.lo == ib.hi && ia.lo == ib.lo),
        CmpOp::Lt => ia.lo < ib.hi,
        CmpOp::Le => ia.lo <= ib.hi,
        CmpOp::Gt => ia.hi > ib.lo,
        CmpOp::Ge => ia.hi >= ib.lo,
    };
    if sat {
        BaseConstraint::Unrestricted
    } else {
        BaseConstraint::Unsatisfiable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::schema::Schema;
    use crate::DataType;

    #[test]
    fn interval_arith() {
        let a = Interval::new(1.0, 3.0);
        let b = Interval::new(-2.0, 2.0);
        assert_eq!(a.add(b), Interval::new(-1.0, 5.0));
        assert_eq!(a.sub(b), Interval::new(-1.0, 5.0));
        assert_eq!(a.mul(b), Interval::new(-6.0, 6.0));
        assert!(a.div(b).is_none());
        assert_eq!(
            a.div(Interval::new(2.0, 4.0)).unwrap(),
            Interval::new(0.25, 1.5)
        );
        assert!(Interval::new(3.0, 1.0).is_empty());
    }

    #[test]
    fn mul_handles_zero_times_infinity() {
        let a = Interval::new(0.0, 0.0);
        let b = Interval::all();
        assert_eq!(a.mul(b), Interval::new(0.0, 0.0));
    }

    #[test]
    fn domain_disjointness() {
        assert!(Domain::IntRange(0, 5).disjoint_from(&Domain::IntRange(6, 9)));
        assert!(!Domain::IntRange(0, 5).disjoint_from(&Domain::IntRange(5, 9)));
        let s1 = Domain::of([Value::str("a")]);
        let s2 = Domain::of([Value::str("b")]);
        assert!(s1.disjoint_from(&s2));
        assert!(!Domain::Any.disjoint_from(&Domain::IntRange(0, 1)));
        assert!(Domain::of([Value::Int(10)]).disjoint_from(&Domain::IntRange(0, 5)));
        assert!(!Domain::of([Value::Int(3)]).disjoint_from(&Domain::IntRange(0, 5)));
    }

    #[test]
    fn paper_example_2_equality_transfer() {
        // Site S1 handles SourceAS in [1, 25]; θ contains
        // b.source_as = r.source_as ⇒ ¬ψ₁ = b.source_as ∈ [1, 25].
        let domains = DomainMap::new().with("source_as", Domain::IntRange(1, 25));
        let theta = Expr::bcol("source_as").eq(Expr::dcol("source_as"));
        match derive_base_constraint(&theta, &domains) {
            BaseConstraint::Filter(f) => {
                assert_eq!(f.to_string(), "(b.source_as >= 1 AND b.source_as <= 25)");
            }
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn paper_example_arithmetic_transfer() {
        // θ: b.dest_as + b.source_as < r.source_as * 2, φ: r.source_as ≤ 25
        // ⇒ ¬ψ: b.dest_as + b.source_as < 50.
        let domains = DomainMap::new().with("source_as", Domain::IntRange(1, 25));
        let theta = Expr::bcol("dest_as")
            .add(Expr::bcol("source_as"))
            .lt(Expr::dcol("source_as").mul(Expr::lit(2i64)));
        match derive_base_constraint(&theta, &domains) {
            BaseConstraint::Filter(f) => {
                assert_eq!(f.to_string(), "(b.dest_as + b.source_as) < 50");
            }
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn set_domain_transfers_exactly() {
        let domains = DomainMap::new().with(
            "nation",
            Domain::of([Value::str("DK"), Value::str("SE")]),
        );
        let theta = Expr::bcol("nation").eq(Expr::dcol("nation"));
        match derive_base_constraint(&theta, &domains) {
            BaseConstraint::Filter(f) => {
                assert_eq!(f.to_string(), "b.nation IN ('DK', 'SE')");
            }
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn set_domain_with_null_does_not_transfer() {
        // `b.g IN (1, NULL)` would drop the NULL-keyed base tuple that
        // the equi-key `b.g = r.g` matches to this site's NULL rows.
        let domains = DomainMap::new().with("g", Domain::of([Value::Int(1), Value::Null]));
        let theta = Expr::bcol("g").eq(Expr::dcol("g"));
        assert_eq!(
            derive_base_constraint(&theta, &domains),
            BaseConstraint::Unrestricted
        );
    }

    #[test]
    fn detail_only_contradiction_marks_site_unsatisfiable() {
        // φ: r.k ∈ [0, 10]; θ: … AND r.k > 100 ⇒ site never participates.
        let domains = DomainMap::new().with("k", Domain::IntRange(0, 10));
        let theta = Expr::bcol("g")
            .eq(Expr::dcol("g"))
            .and(Expr::dcol("k").gt(Expr::lit(100i64)));
        assert_eq!(
            derive_base_constraint(&theta, &domains),
            BaseConstraint::Unsatisfiable
        );
    }

    #[test]
    fn unconstrained_site_is_unrestricted() {
        let theta = Expr::bcol("g").eq(Expr::dcol("g"));
        assert_eq!(
            derive_base_constraint(&theta, &DomainMap::new()),
            BaseConstraint::Unrestricted
        );
    }

    #[test]
    fn disjunction_of_blocks_unions_filters() {
        let domains = DomainMap::new().with("g", Domain::IntRange(0, 4));
        let theta = Expr::bcol("g")
            .eq(Expr::dcol("g"))
            .or(Expr::bcol("h").eq(Expr::lit(1i64)));
        match derive_base_constraint(&theta, &domains) {
            BaseConstraint::Filter(f) => {
                assert!(f.to_string().contains("OR"));
            }
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn inequality_bounds_transfer() {
        let domains = DomainMap::new().with("v", Domain::IntRange(10, 20));
        // b.x < r.v ⇒ b.x < 20.
        let theta = Expr::bcol("x").lt(Expr::dcol("v"));
        match derive_base_constraint(&theta, &domains) {
            BaseConstraint::Filter(f) => assert_eq!(f.to_string(), "b.x < 20"),
            other => panic!("{other:?}"),
        }
        // b.x >= r.v ⇒ b.x >= 10.
        let theta = Expr::bcol("x").ge(Expr::dcol("v"));
        match derive_base_constraint(&theta, &domains) {
            BaseConstraint::Filter(f) => assert_eq!(f.to_string(), "b.x >= 10"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn in_list_detail_only_prunes_sites() {
        let domains = DomainMap::new().with("g", Domain::IntRange(0, 4));
        let theta = Expr::dcol("g").in_list(vec![Value::Int(9)]);
        assert_eq!(
            derive_base_constraint(&theta, &domains),
            BaseConstraint::Unsatisfiable
        );
        let theta = Expr::dcol("g").in_list(vec![Value::Int(2)]);
        assert_eq!(
            derive_base_constraint(&theta, &domains),
            BaseConstraint::Unrestricted
        );
    }

    #[test]
    fn mixed_comparison_gives_up_soundly() {
        // b.x < r.v + b.y mixes sides in one operand: no derivation.
        let domains = DomainMap::new().with("v", Domain::IntRange(0, 1));
        let theta = Expr::bcol("x").lt(Expr::dcol("v").add(Expr::bcol("y")));
        assert_eq!(
            derive_base_constraint(&theta, &domains),
            BaseConstraint::Unrestricted
        );
    }

    /// Does the ¬ψ derived for `theta` under `domains` keep the base
    /// tuple `x = base`?
    fn keeps(theta: &Expr, domains: &DomainMap, base: i64) -> bool {
        match derive_base_constraint(theta, domains) {
            BaseConstraint::Unrestricted => true,
            BaseConstraint::Unsatisfiable => false,
            BaseConstraint::Filter(f) => f
                .bind(&Schema::of(&[("x", DataType::Int)]), None)
                .unwrap()
                .eval_row(&Row::new(vec![Value::Int(base)]))
                .unwrap()
                .is_truthy(),
        }
    }

    #[test]
    fn int_bounds_past_2_pow_53_keep_their_matches() {
        // `i as f64` rounds 2⁵³+1 down and 2⁵³+3 up; the interval must
        // still hold them, since base and detail values now compare
        // exactly against the filter's Double literals.
        let p53 = 1i64 << 53;
        let schemas = (
            Schema::of(&[("x", DataType::Int)]),
            Schema::of(&[("x", DataType::Int)]),
        );
        let cases = [
            // (detail domain, θ, base x, detail x) with θ true on the pair.
            (Domain::IntRange(0, p53 + 1), Expr::bcol("x").eq(Expr::dcol("x")), p53 + 1, p53 + 1),
            (Domain::IntRange(0, p53 + 1), Expr::bcol("x").le(Expr::dcol("x")), p53 + 1, p53 + 1),
            (Domain::IntRange(p53 + 3, p53 + 9), Expr::bcol("x").eq(Expr::dcol("x")), p53 + 3, p53 + 3),
            (Domain::IntRange(p53 + 3, p53 + 9), Expr::bcol("x").ge(Expr::dcol("x")), p53 + 3, p53 + 3),
            (Domain::of([Value::Int(p53 + 1)]), Expr::bcol("x").le(Expr::dcol("x")), p53 + 1, p53 + 1),
            (
                Domain::IntRange(0, p53),
                Expr::bcol("x").eq(Expr::dcol("x").add(Expr::lit(1i64))),
                p53 + 1,
                p53,
            ),
            (
                Domain::IntRange(0, 1),
                Expr::bcol("x").le(Expr::dcol("x").add(Expr::lit(p53 + 1))),
                p53 + 2,
                1,
            ),
            (
                Domain::IntRange(i64::MAX - 9, i64::MAX),
                Expr::bcol("x").eq(Expr::dcol("x")),
                i64::MAX - 9,
                i64::MAX - 9,
            ),
        ];
        for (domain, theta, base, detail) in cases {
            let holds = theta
                .bind(&schemas.0, Some(&schemas.1))
                .unwrap()
                .eval(&Row::new(vec![Value::Int(base)]), &Row::new(vec![Value::Int(detail)]))
                .unwrap()
                .is_truthy();
            assert!(holds, "{theta} on ({base}, {detail})");
            let domains = DomainMap::new().with("x", domain);
            assert!(keeps(&theta, &domains, base), "{theta} dropped {base}");
        }
        // The bounds stay useful: a base tuple far outside is still cut.
        let domains = DomainMap::new().with("x", Domain::IntRange(p53 + 3, p53 + 9));
        assert!(!keeps(&Expr::bcol("x").eq(Expr::dcol("x")), &domains, 0));
    }

    #[test]
    fn interval_arith_rounds_outward() {
        let p53 = (1u64 << 53) as f64;
        // 2⁵³ + 1 is no double: the sum's bounds straddle it.
        let s = Interval::point(p53).add(Interval::point(1.0));
        assert_eq!((s.lo, s.hi), (p53, p53 + 2.0));
        let d = Interval::point(p53).sub(Interval::point(-1.0));
        assert_eq!((d.lo, d.hi), (p53, p53 + 2.0));
        let m = Interval::point(p53 + 2.0).mul(Interval::point(p53 + 2.0));
        assert!(m.lo < m.hi);
        let q = Interval::point(1.0).div(Interval::point(3.0)).unwrap();
        assert!(q.lo < q.hi && q.lo <= 1.0 / 3.0 && 1.0 / 3.0 <= q.hi);
        assert_eq!(
            Interval::of_ints(i64::MIN, i64::MAX),
            Interval::new(-(2f64.powi(63)), 2f64.powi(63))
        );
    }

    #[test]
    fn modulo_interval() {
        let domains = DomainMap::new().with("v", Domain::IntRange(0, 1000));
        let e = Expr::Arith(
            ArithOp::Mod,
            Box::new(Expr::dcol("v")),
            Box::new(Expr::lit(8i64)),
        );
        assert_eq!(eval_interval(&e, &domains), Some(Interval::new(0.0, 7.0)));
    }
}
