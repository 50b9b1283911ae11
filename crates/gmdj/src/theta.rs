//! Analysis and construction of GMDJ conditions θ(b, r).
//!
//! [`analyze_theta`] splits a condition into *equi-key pairs*
//! (`b.a = r.d` conjuncts) and a *residual*; the evaluator uses the pairs
//! to hash-partition detail tuples instead of running a nested loop, and
//! the planner uses them for group reduction (equality transfer of site
//! domains) and synchronization reduction (partition-attribute entailment,
//! Cor 1).

use skalla_relation::{parse_expr, CmpOp, Expr, Result, Side};

/// The equi-key / residual decomposition of a θ condition.
#[derive(Debug, Clone, PartialEq)]
pub struct ThetaAnalysis {
    /// `(base column, detail column)` pairs from `b.x = r.y` conjuncts.
    pub equi: Vec<(String, String)>,
    /// Conjunction of the remaining conjuncts (`Expr::True` if none).
    pub residual: Expr,
}

impl ThetaAnalysis {
    /// True when θ is *exactly* a conjunction of equi-key tests.
    pub fn is_pure_equi(&self) -> bool {
        !self.equi.is_empty() && self.residual == Expr::True
    }

    /// Whether θ entails `b.col = r.col` for the given attribute — the
    /// entailment test used by Cor 1 (partition attributes) and Prop 2
    /// (θ entails θ_K). Syntactic: looks for the pair among equi conjuncts.
    pub fn entails_key_equality(&self, base_col: &str, detail_col: &str) -> bool {
        self.equi
            .iter()
            .any(|(b, d)| b == base_col && d == detail_col)
    }
}

/// Decompose θ into equi-key pairs and a residual condition.
///
/// Only *top-level* conjuncts of the form `b.x = r.y` (either orientation)
/// become pairs; everything else — including equalities nested under `OR` —
/// lands in the residual, which keeps the decomposition exact:
/// θ ≡ (⋀ equi) ∧ residual.
pub fn analyze_theta(theta: &Expr) -> ThetaAnalysis {
    let mut equi = Vec::new();
    let mut residual = Vec::new();
    for c in theta.conjuncts() {
        match c {
            Expr::Cmp(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(Side::Base, x), Expr::Col(Side::Detail, y)) => {
                    equi.push((x.clone(), y.clone()));
                }
                (Expr::Col(Side::Detail, y), Expr::Col(Side::Base, x)) => {
                    equi.push((x.clone(), y.clone()));
                }
                _ => residual.push(c.clone()),
            },
            other => residual.push(other.clone()),
        }
    }
    ThetaAnalysis {
        equi,
        residual: Expr::conjunction(residual),
    }
}

/// Fluent builder for θ conditions.
///
/// ```
/// use skalla_gmdj::theta::ThetaBuilder;
/// let theta = ThetaBuilder::keys(&[("source_as", "source_as"), ("dest_as", "dest_as")])
///     .and_detail_ge_base_expr("num_bytes", "sum1 / cnt1")
///     .unwrap()
///     .build();
/// assert_eq!(
///     theta.to_string(),
///     "((b.source_as = r.source_as AND b.dest_as = r.dest_as) AND r.num_bytes >= (b.sum1 / b.cnt1))"
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThetaBuilder {
    conjuncts: Vec<Expr>,
}

impl ThetaBuilder {
    /// Start from a list of `(base column, detail column)` equality keys.
    pub fn keys(pairs: &[(&str, &str)]) -> ThetaBuilder {
        let conjuncts = pairs
            .iter()
            .map(|(b, d)| Expr::bcol(*b).eq(Expr::dcol(*d)))
            .collect();
        ThetaBuilder { conjuncts }
    }

    /// Start from grouping columns that share a name on both sides
    /// (the common `b.g = r.g` case).
    pub fn group_by(columns: &[&str]) -> ThetaBuilder {
        ThetaBuilder::keys(&columns.iter().map(|c| (*c, *c)).collect::<Vec<_>>())
    }

    /// An empty builder (θ = TRUE until conjuncts are added).
    pub fn new() -> ThetaBuilder {
        ThetaBuilder::default()
    }

    /// Add an arbitrary conjunct.
    pub fn and(mut self, expr: Expr) -> ThetaBuilder {
        self.conjuncts.push(expr);
        self
    }

    /// Add `r.<detail_col> >= <base expression>` where the expression text
    /// is parsed with unqualified names defaulting to the base side (e.g.
    /// `"sum1 / cnt1"` — the correlated-aggregate pattern of paper Ex. 1).
    ///
    /// # Errors
    /// [`skalla_relation::Error::Parse`] if the expression text does not parse.
    pub fn and_detail_ge_base_expr(
        self,
        detail_col: &str,
        base_expr: &str,
    ) -> Result<ThetaBuilder> {
        let rhs = parse_expr(base_expr, Side::Base)?;
        Ok(self.and(Expr::dcol(detail_col).ge(rhs)))
    }

    /// Add a conjunct parsed from text (`b.`/`r.` qualifiers; unqualified
    /// names default to the detail side).
    ///
    /// # Errors
    /// [`skalla_relation::Error::Parse`] if the text does not parse.
    pub fn and_parsed(self, text: &str) -> Result<ThetaBuilder> {
        Ok(self.and(parse_expr(text, Side::Detail)?))
    }

    /// Build the θ expression (conjunction of all added parts).
    pub fn build(self) -> Expr {
        Expr::conjunction(self.conjuncts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_equi_detected() {
        let theta = ThetaBuilder::group_by(&["sas", "das"]).build();
        let a = analyze_theta(&theta);
        assert!(a.is_pure_equi());
        assert_eq!(
            a.equi,
            vec![
                ("sas".to_string(), "sas".to_string()),
                ("das".to_string(), "das".to_string())
            ]
        );
        assert!(a.entails_key_equality("sas", "sas"));
        assert!(!a.entails_key_equality("sas", "das"));
    }

    #[test]
    fn residual_split() {
        let theta = ThetaBuilder::keys(&[("g", "g")])
            .and(Expr::dcol("v").ge(Expr::bcol("avg")))
            .build();
        let a = analyze_theta(&theta);
        assert_eq!(a.equi.len(), 1);
        assert_eq!(a.residual.to_string(), "r.v >= b.avg");
        assert!(!a.is_pure_equi());
    }

    #[test]
    fn flipped_equality_normalized() {
        let theta = Expr::dcol("d").eq(Expr::bcol("b"));
        let a = analyze_theta(&theta);
        assert_eq!(a.equi, vec![("b".to_string(), "d".to_string())]);
        assert_eq!(a.residual, Expr::True);
    }

    #[test]
    fn equality_under_or_stays_residual() {
        let theta = Expr::bcol("a")
            .eq(Expr::dcol("a"))
            .or(Expr::bcol("b").eq(Expr::dcol("b")));
        let a = analyze_theta(&theta);
        assert!(a.equi.is_empty());
        assert_eq!(&a.residual, &theta);
    }

    #[test]
    fn base_to_base_equality_is_residual() {
        let theta = Expr::bcol("a").eq(Expr::bcol("b"));
        let a = analyze_theta(&theta);
        assert!(a.equi.is_empty());
    }

    #[test]
    fn builder_parsed_conditions() {
        let theta = ThetaBuilder::group_by(&["g"])
            .and_parsed("num_bytes > 100 AND b.lo <= num_bytes")
            .unwrap()
            .build();
        assert_eq!(
            theta.to_string(),
            "(b.g = r.g AND (r.num_bytes > 100 AND b.lo <= r.num_bytes))"
        );
    }

    #[test]
    fn builder_rejects_bad_expr() {
        let err = ThetaBuilder::new().and_detail_ge_base_expr("v", "1 +");
        assert!(matches!(err, Err(skalla_relation::Error::Parse(_))), "{err:?}");
        assert!(ThetaBuilder::new().and_parsed("v >").is_err());
    }
}
