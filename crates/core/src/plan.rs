//! Distributed evaluation plans and the Egil planner.
//!
//! A plan is a sequence of *stages*; each stage is one synchronization
//! round (Alg. GMDJDistribEval): the coordinator (possibly) ships the
//! base-result structure down, sites compute, results ship up and are
//! synchronized. The planner applies the paper's Sect. 4 optimizations:
//!
//! * **Coalescing** (Sect. 4.3): adjacent independent GMDJs merge, saving
//!   rounds *and* passes over the detail relation.
//! * **Distribution-aware group reduction** (Thm 4): per-site ¬ψ filters
//!   derived from φ via interval/set analysis shrink the shipped base
//!   fragments; sites whose φ contradicts every θ are skipped entirely
//!   (the S_MD ⊂ S_B case).
//! * **Distribution-independent group reduction** (Prop 1): sites return
//!   only groups with a non-empty local range.
//! * **Synchronization reduction** (Prop 2, Thm 5/Cor 1): the base
//!   computation folds into round 1 when every θ entails θ_K, and
//!   consecutive GMDJs whose θs all entail equality on a partition
//!   attribute chain *locally* at the sites with no intermediate
//!   synchronization.

use crate::distribution::DistributionInfo;
use skalla_gmdj::rewrite::coalesce_chain;
use skalla_gmdj::theta::analyze_theta;
use skalla_gmdj::{BaseQuery, GmdjExpr};
use skalla_obs::{Obs, Track};
use skalla_relation::{derive_base_constraint, BaseConstraint, Expr, Side};
use std::collections::HashSet;
use std::fmt;
use std::ops::Range;

/// Which optimizations the planner may apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptFlags {
    /// Coalesce adjacent independent GMDJs (Sect. 4.3).
    pub coalesce: bool,
    /// Distribution-independent (site-side) group reduction (Prop 1).
    pub group_reduction_site: bool,
    /// Distribution-aware (coordinator-side) group reduction (Thm 4).
    pub group_reduction_coord: bool,
    /// Synchronization reduction (Prop 2 and Thm 5 / Cor 1).
    pub sync_reduction: bool,
}

impl OptFlags {
    /// Everything on.
    pub fn all() -> OptFlags {
        OptFlags {
            coalesce: true,
            group_reduction_site: true,
            group_reduction_coord: true,
            sync_reduction: true,
        }
    }

    /// Everything off — the unoptimized Alg. GMDJDistribEval.
    pub fn none() -> OptFlags {
        OptFlags {
            coalesce: false,
            group_reduction_site: false,
            group_reduction_coord: false,
            sync_reduction: false,
        }
    }

    /// Only group reduction (both sides), as in the Fig. 2 experiment.
    pub fn group_reduction_only() -> OptFlags {
        OptFlags {
            coalesce: false,
            group_reduction_site: true,
            group_reduction_coord: true,
            sync_reduction: false,
        }
    }

    /// Only coalescing, as in the Fig. 3 experiment.
    pub fn coalesce_only() -> OptFlags {
        OptFlags {
            coalesce: true,
            group_reduction_site: false,
            group_reduction_coord: false,
            sync_reduction: false,
        }
    }

    /// Only synchronization reduction, as in the Fig. 4 experiment.
    pub fn sync_reduction_only() -> OptFlags {
        OptFlags {
            coalesce: false,
            group_reduction_site: false,
            group_reduction_coord: false,
            sync_reduction: true,
        }
    }
}

/// A structured record of one optimizer decision: which rewrite fired
/// (or was blocked) and why, with the paper reference. The planner
/// returns these from [`Planner::optimize_with_decisions`] and, when an
/// observability handle is attached, emits one optimizer-track event
/// per decision.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanDecision {
    /// Sect. 4.3 coalescing merged adjacent independent GMDJs.
    Coalesced {
        /// Operator count before merging.
        ops_before: usize,
        /// Operator count after merging.
        ops_after: usize,
        /// Synchronization rounds saved.
        rounds_saved: usize,
    },
    /// Coalescing was enabled but found nothing to merge.
    CoalesceBlocked {
        /// Why no merge happened.
        reason: String,
    },
    /// Prop. 2: the base computation folded into round 1.
    FoldedBase {
        /// How the fold was proven safe.
        mechanism: String,
    },
    /// Prop. 2 fold considered but rejected.
    FoldBlocked {
        /// Why the fold is unsafe here.
        reason: String,
    },
    /// Thm. 5 / Cor. 1: a run of GMDJs chains locally at the sites with
    /// no intermediate synchronization.
    LocalChain {
        /// Stage label.
        stage: String,
        /// Operators in the chain (indexes into the expression).
        ops: Range<usize>,
        /// Base-side partition attribute proving group ownership.
        base_col: String,
        /// Detail-side partition attribute.
        detail_col: String,
    },
    /// Prop. 1: sites return only groups with a non-empty local range.
    SiteGroupReduction {
        /// Stage label.
        stage: String,
    },
    /// Prop. 1 would apply but is subsumed by a stronger rewrite.
    SiteGroupReductionSuppressed {
        /// Stage label.
        stage: String,
        /// Which rewrite subsumes it.
        reason: String,
    },
    /// Thm. 4: per-site ¬ψ filters restrict (or skip) shipped fragments.
    CoordGroupReduction {
        /// Stage label.
        stage: String,
        /// Sites receiving a restricted fragment.
        restricted: usize,
        /// Sites skipped entirely (φ contradicts every θ).
        skipped: usize,
    },
    /// Sites keep the rows they held for the previous unit
    /// ([`SiteFilter::Resident`]): no key column crosses down.
    SiteResident {
        /// Stage label.
        stage: String,
        /// Sites sent only their own groups after a fold: Thm. 4's ¬ψᵢ
        /// learned from round 1's answers, since every θ entails θ_K over
        /// the folded table.
        own_groups: usize,
        /// Sites sent the previous unit's fragment again, without its key.
        same_fragment: usize,
    },
}

impl PlanDecision {
    /// Short machine-friendly kind tag (used as the trace event name).
    pub fn kind(&self) -> &'static str {
        match self {
            PlanDecision::Coalesced { .. } => "coalesce",
            PlanDecision::CoalesceBlocked { .. } => "coalesce blocked",
            PlanDecision::FoldedBase { .. } => "fold base",
            PlanDecision::FoldBlocked { .. } => "fold blocked",
            PlanDecision::LocalChain { .. } => "local chain",
            PlanDecision::SiteGroupReduction { .. } => "site group reduction",
            PlanDecision::SiteGroupReductionSuppressed { .. } => {
                "site group reduction suppressed"
            }
            PlanDecision::CoordGroupReduction { .. } => "coord group reduction",
            PlanDecision::SiteResident { .. } => "site-resident rows",
        }
    }

    /// The stage this decision applies to, when stage-scoped.
    pub fn stage(&self) -> Option<&str> {
        match self {
            PlanDecision::LocalChain { stage, .. }
            | PlanDecision::SiteGroupReduction { stage }
            | PlanDecision::SiteGroupReductionSuppressed { stage, .. }
            | PlanDecision::CoordGroupReduction { stage, .. }
            | PlanDecision::SiteResident { stage, .. } => Some(stage),
            _ => None,
        }
    }
}

impl fmt::Display for PlanDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanDecision::Coalesced {
                ops_before,
                ops_after,
                rounds_saved,
            } => write!(
                f,
                "coalescing (Sect. 4.3): merged {ops_before} operator(s) into \
                 {ops_after}, saving {rounds_saved} round(s)"
            ),
            PlanDecision::CoalesceBlocked { reason } => {
                write!(f, "coalescing (Sect. 4.3) blocked: {reason}")
            }
            PlanDecision::FoldedBase { mechanism } => {
                write!(f, "base fold (Prop. 2): {mechanism}")
            }
            PlanDecision::FoldBlocked { reason } => {
                write!(f, "base fold (Prop. 2) blocked: {reason}")
            }
            PlanDecision::LocalChain {
                stage,
                ops,
                base_col,
                detail_col,
            } => write!(
                f,
                "{stage}: ops {}..{} chain locally (Thm. 5/Cor. 1) via \
                 b.{base_col} = r.{detail_col}",
                ops.start + 1,
                ops.end
            ),
            PlanDecision::SiteGroupReduction { stage } => write!(
                f,
                "{stage}: site-side group reduction (Prop. 1) — ship only \
                 matched groups"
            ),
            PlanDecision::SiteGroupReductionSuppressed { stage, reason } => write!(
                f,
                "{stage}: site-side group reduction (Prop. 1) suppressed: {reason}"
            ),
            PlanDecision::CoordGroupReduction {
                stage,
                restricted,
                skipped,
            } => write!(
                f,
                "{stage}: coordinator group reduction (Thm. 4) — \
                 {restricted} site(s) restricted, {skipped} skipped"
            ),
            PlanDecision::SiteResident {
                stage,
                own_groups,
                same_fragment,
            } => write!(
                f,
                "{stage}: site-resident rows — {own_groups} site(s) get only their \
                 own groups (Thm. 4, learned from the folded round), \
                 {same_fragment} their previous fragment; no key ships"
            ),
        }
    }
}

/// The coordinator-side group-reduction decision for one site in one stage.
#[derive(Debug, Clone, PartialEq)]
pub enum SiteFilter {
    /// Ship the whole base structure.
    All,
    /// The site cannot contribute to this stage at all; skip it.
    Skip,
    /// Ship only base tuples satisfying this ¬ψ_i predicate.
    Predicate(Expr),
    /// The site's fragment is exactly the rows it held for the previous
    /// unit, in that order: the fragment that unit was shipped, or, after
    /// a folded single-operator unit, the site's own groups, in the order
    /// it answered them. The site still has those rows' key columns, so
    /// only the unit's `ship_columns` other than K cross, one row per
    /// held row, and the site splices its keys back in front. The planner
    /// puts it where the site's fragment would be the same rows again
    /// (key elision), or where the unit's θs all entail θ_K over the
    /// folded table, so a group the site does not hold cannot match
    /// there (answer-driven group reduction, under Thm 4's flag).
    Resident,
}

/// A maximal run of GMDJ operators executed in one round.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// Indexes into `plan.expr.ops` (consecutive).
    pub ops: Range<usize>,
    /// The shared detail relation of the unit's operators.
    pub table: String,
    /// Prop 2: sites compute their own base fragment from the detail
    /// relation instead of receiving B from the coordinator.
    pub fold_base: bool,
    /// Thm 5 / Cor 1: >1 operator evaluated locally with no intermediate
    /// synchronization; sites ship finalized aggregates for groups they own.
    pub local_chain: bool,
    /// The `(base column, detail column)` partition-attribute pair proving
    /// ownership for a local chain.
    pub ownership: Option<(String, String)>,
    /// Base-structure columns shipped down (empty when `fold_base`): K
    /// first, then the external columns the unit's θs read. A resident
    /// site gets those other than K.
    pub ship_columns: Vec<String>,
    /// Per-site ¬ψ filters (length = number of sites), or
    /// [`SiteFilter::Resident`] where the site keeps the previous unit's
    /// rows.
    pub site_filters: Vec<SiteFilter>,
    /// Prop 1: sites return only groups with a non-empty local range.
    pub site_reduce: bool,
}

impl Unit {
    /// Number of operators in the unit.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Always false (units contain at least one operator).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether the sites answer by position: one operator against a
    /// shipped fragment, answered with accumulator columns only, a row per
    /// fragment row in fragment order (per surviving one under Prop 1).
    pub fn positional(&self) -> bool {
        !self.fold_base && !self.local_chain
    }
}

/// What a stage does.
#[derive(Debug, Clone, PartialEq)]
pub enum StageKind {
    /// Sites evaluate the base query locally and ship distinct groups up.
    Base,
    /// Sites evaluate a unit of GMDJ operators.
    Unit(Unit),
}

/// One synchronization round.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Display label (`"base"`, `"gmdj 1"`, `"gmdj 1-2 (local)"`, …).
    pub label: String,
    /// The work.
    pub kind: StageKind,
}

/// A distributed evaluation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedPlan {
    /// The (possibly coalesced) GMDJ expression.
    pub expr: GmdjExpr,
    /// Key attributes K used for synchronization.
    pub key: Vec<String>,
    /// The rounds.
    pub stages: Vec<Stage>,
}

impl DistributedPlan {
    /// Number of synchronization rounds.
    pub fn n_rounds(&self) -> usize {
        self.stages.len()
    }

    /// Structural sanity check before execution: unit op ranges lie within
    /// the expression, every unit carries one filter per site, chained
    /// units have ownership, and single-op invariants hold. Guards against
    /// hand-modified or corrupted plans panicking the runtime.
    pub fn check_structure(&self, n_sites: usize) -> skalla_relation::Result<()> {
        use skalla_relation::Error;
        for (i, stage) in self.stages.iter().enumerate() {
            let StageKind::Unit(u) = &stage.kind else {
                continue;
            };
            // A resident site keeps rows the previous unit gave it and the
            // coordinator can place: not after a base round, a skip, or a
            // folded chain (whose keyed answers it assembles, not places).
            let prev = match i.checked_sub(1).map(|p| &self.stages[p].kind) {
                Some(StageKind::Unit(p)) if !(p.fold_base && p.local_chain) => Some(p),
                _ => None,
            };
            for (site, f) in u.site_filters.iter().enumerate() {
                if *f != SiteFilter::Resident {
                    continue;
                }
                let held = prev.and_then(|p| p.site_filters.get(site));
                if u.fold_base || held.is_none_or(|f| *f == SiteFilter::Skip) {
                    return Err(Error::Plan(format!(
                        "stage {:?}: site {site} is resident but holds no rows from a previous unit",
                        stage.label
                    )));
                }
            }
            if u.ops.start >= u.ops.end || u.ops.end > self.expr.ops.len() {
                return Err(Error::Plan(format!(
                    "stage {:?}: op range {:?} outside expression of {} op(s)",
                    stage.label,
                    u.ops,
                    self.expr.ops.len()
                )));
            }
            if u.site_filters.len() != n_sites {
                return Err(Error::Plan(format!(
                    "stage {:?}: {} site filter(s) for {n_sites} site(s)",
                    stage.label,
                    u.site_filters.len()
                )));
            }
            if u.local_chain && u.ownership.is_none() {
                return Err(Error::Plan(format!(
                    "stage {:?}: local chain without an ownership attribute",
                    stage.label
                )));
            }
            if !u.local_chain && u.ops.len() != 1 {
                return Err(Error::Plan(format!(
                    "stage {:?}: non-chained unit with {} ops",
                    stage.label,
                    u.ops.len()
                )));
            }
            if u.fold_base
                && !matches!(self.expr.base, skalla_gmdj::BaseQuery::DistinctProject { .. })
            {
                return Err(Error::Plan(format!(
                    "stage {:?}: fold_base with a non-derivable base",
                    stage.label
                )));
            }
        }
        Ok(())
    }

    /// Render the plan for humans (the `EXPLAIN` output).
    pub fn explain(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "DistributedPlan: {} round(s), key = ({})\n",
            self.n_rounds(),
            self.key.join(", ")
        ));
        for (i, st) in self.stages.iter().enumerate() {
            s.push_str(&format!("round {i}: {}\n", st.label));
            match &st.kind {
                StageKind::Base => {
                    s.push_str("  sites: evaluate base query, ship distinct groups\n");
                }
                StageKind::Unit(u) => {
                    s.push_str(&format!(
                        "  ops {:?} over {} ({} block(s))\n",
                        u.ops,
                        u.table,
                        self.expr.ops[u.ops.clone()]
                            .iter()
                            .map(|o| o.blocks.len())
                            .sum::<usize>()
                    ));
                    if u.fold_base {
                        s.push_str("  fold-base: sites derive groups locally (Prop 2)\n");
                    } else {
                        s.push_str(&format!(
                            "  ship down: columns ({})\n",
                            u.ship_columns.join(", ")
                        ));
                    }
                    // `validate` rejects a chained unit without ownership.
                    if let Some((b, d)) = u.ownership.as_ref().filter(|_| u.local_chain) {
                        s.push_str(&format!(
                            "  local chain via partition attribute b.{b} = r.{d} (Cor 1)\n"
                        ));
                    }
                    if u.site_reduce {
                        s.push_str("  site group reduction: ship only matched groups (Prop 1)\n");
                    }
                    let filtered = u
                        .site_filters
                        .iter()
                        .filter(|f| matches!(f, SiteFilter::Skip | SiteFilter::Predicate(_)))
                        .count();
                    if filtered > 0 {
                        s.push_str(&format!(
                            "  coordinator group reduction: {filtered} site(s) restricted (Thm 4)\n"
                        ));
                        for (i, f) in u.site_filters.iter().enumerate() {
                            match f {
                                SiteFilter::All | SiteFilter::Resident => {}
                                SiteFilter::Skip => {
                                    s.push_str(&format!("    site {i}: skipped\n"))
                                }
                                SiteFilter::Predicate(p) => {
                                    s.push_str(&format!("    site {i}: ¬ψ = {p}\n"))
                                }
                            }
                        }
                    }
                    let resident: Vec<String> = (0..u.site_filters.len())
                        .filter(|&i| u.site_filters[i] == SiteFilter::Resident)
                        .map(|i| i.to_string())
                        .collect();
                    if !resident.is_empty() {
                        s.push_str(&format!(
                            "  site-resident rows: site(s) {} keep the previous unit's rows; no key ships\n",
                            resident.join(", ")
                        ));
                    }
                }
            }
        }
        if matches!(self.expr.base, BaseQuery::Literal(_)) {
            s.push_str("note: base relation is literal: held by the coordinator\n");
        }
        s
    }
}

impl fmt::Display for DistributedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

/// The Egil query planner (distributed part): turns a GMDJ expression into
/// a [`DistributedPlan`] under the given optimization flags, using the
/// cluster's [`DistributionInfo`].
#[derive(Debug, Clone)]
pub struct Planner {
    dist: DistributionInfo,
    obs: Obs,
}

impl Planner {
    /// A planner with the given distribution knowledge.
    pub fn new(dist: DistributionInfo) -> Planner {
        Planner {
            dist,
            obs: Obs::disabled(),
        }
    }

    /// Attach an observability handle: every [`PlanDecision`] is also
    /// emitted as an optimizer-track event.
    pub fn with_obs(mut self, obs: Obs) -> Planner {
        self.obs = obs;
        self
    }

    /// The distribution knowledge in use.
    pub fn distribution(&self) -> &DistributionInfo {
        &self.dist
    }

    /// Build an optimized plan. Purely syntactic — never fails; any
    /// optimization whose preconditions cannot be proven is skipped (see
    /// [`Planner::optimize_with_decisions`]), falling back to the safe
    /// general plan.
    pub fn optimize(&self, expr: &GmdjExpr, flags: OptFlags) -> DistributedPlan {
        self.optimize_with_decisions(expr, flags).0
    }

    /// [`Planner::optimize`], additionally returning the structured
    /// record of which rewrites fired or were blocked, and why.
    pub fn optimize_with_decisions(
        &self,
        expr: &GmdjExpr,
        flags: OptFlags,
    ) -> (DistributedPlan, Vec<PlanDecision>) {
        let _span = self.obs.span(Track::Optimizer, "optimize");
        let mut decisions: Vec<PlanDecision> = Vec::new();
        let n_sites = self.dist.n_sites();

        // 1. Coalescing.
        let expr = if flags.coalesce {
            let (merged, report) = coalesce_chain(expr);
            if report.rounds_saved() > 0 {
                decisions.push(PlanDecision::Coalesced {
                    ops_before: expr.ops.len(),
                    ops_after: merged.ops.len(),
                    rounds_saved: report.rounds_saved(),
                });
            } else if expr.ops.len() > 1 {
                decisions.push(PlanDecision::CoalesceBlocked {
                    reason: "no adjacent independent operators over the same detail table"
                        .to_string(),
                });
            }
            merged
        } else {
            expr.clone()
        };

        // 2. Key columns (syntactic).
        let base_columns = base_columns(&expr.base);
        let key = expr
            .key
            .clone()
            .unwrap_or_else(|| base_columns.clone());

        // 3. Per-op chainable partition pairs.
        let pairs: Vec<HashSet<(String, String)>> = expr
            .ops
            .iter()
            .map(|op| {
                let mut common: Option<HashSet<(String, String)>> = None;
                for block in &op.blocks {
                    let a = analyze_theta(&block.theta);
                    let set: HashSet<(String, String)> = a
                        .equi
                        .iter()
                        .filter(|(_, d)| self.dist.is_partition_attribute(&op.detail, d))
                        .cloned()
                        .collect();
                    common = Some(match common {
                        None => set,
                        Some(c) => c.intersection(&set).cloned().collect(),
                    });
                }
                common.unwrap_or_default()
            })
            .collect();

        // 4. Unit formation (greedy runs sharing a table and a pair).
        type UnitSketch = (Range<usize>, Option<(String, String)>);
        let mut units: Vec<UnitSketch> = Vec::new();
        let mut i = 0;
        while i < expr.ops.len() {
            let mut j = i + 1;
            let mut shared = pairs[i].clone();
            if flags.sync_reduction {
                while j < expr.ops.len() && expr.ops[j].detail == expr.ops[i].detail {
                    let next: HashSet<_> =
                        shared.intersection(&pairs[j]).cloned().collect();
                    if next.is_empty() {
                        break;
                    }
                    shared = next;
                    j += 1;
                }
            }
            let ownership = if j - i > 1 {
                let mut best: Vec<_> = shared.into_iter().collect();
                best.sort();
                Some(best.remove(0))
            } else {
                None
            };
            units.push((i..j, ownership));
            i = j;
        }

        // 5. Fold decision for the first unit (Prop 2).
        let mut fold_first = false;
        if flags.sync_reduction && !units.is_empty() {
            let (range, ownership) = &units[0];
            let first_op = &expr.ops[range.start];
            let base_matches = matches!(
                &expr.base,
                BaseQuery::DistinctProject { table, .. } if *table == first_op.detail
            );
            let key_is_base = key.len() == base_columns.len()
                && key.iter().all(|k| base_columns.contains(k));
            if base_matches && key_is_base {
                if ownership.is_some() {
                    // Chained unit: partition-attribute entailment suffices.
                    fold_first = true;
                    decisions.push(PlanDecision::FoldedBase {
                        mechanism: "chained unit: partition attribute entails θ_K".to_string(),
                    });
                } else {
                    // Single operator: every θ must entail θ_K.
                    let all_entail = first_op.blocks.iter().all(|b| {
                        let a = analyze_theta(&b.theta);
                        key.iter().all(|k| a.entails_key_equality(k, k))
                    });
                    if all_entail {
                        fold_first = true;
                        decisions.push(PlanDecision::FoldedBase {
                            mechanism: "every θ entails θ_K".to_string(),
                        });
                    } else {
                        decisions.push(PlanDecision::FoldBlocked {
                            reason: "some θ does not entail θ_K".to_string(),
                        });
                    }
                }
            } else if !base_matches {
                decisions.push(PlanDecision::FoldBlocked {
                    reason: "base is not a distinct-project over the first operator's \
                             detail table"
                        .to_string(),
                });
            } else {
                decisions.push(PlanDecision::FoldBlocked {
                    reason: "synchronization key differs from the base columns".to_string(),
                });
            }
        }

        // 6. Assemble stages.
        let mut stages = Vec::new();
        if matches!(expr.base, BaseQuery::DistinctProject { .. }) && !fold_first {
            stages.push(Stage {
                label: "base".to_string(),
                kind: StageKind::Base,
            });
        }

        // Columns of B available before each op (syntactic).
        let mut avail: Vec<HashSet<String>> = Vec::with_capacity(expr.ops.len() + 1);
        let mut cur: HashSet<String> = base_columns.iter().cloned().collect();
        for op in &expr.ops {
            let mut next = cur.clone();
            next.extend(op.output_names().iter().map(|s| s.to_string()));
            avail.push(std::mem::replace(&mut cur, next));
        }
        avail.push(cur);

        // What each site holds after the stage before the current one.
        let mut held = vec![Held::Nothing; n_sites];
        for (uidx, (range, ownership)) in units.iter().enumerate() {
            let fold_base = uidx == 0 && fold_first;
            let table = expr.ops[range.start].detail.clone();
            let unit_ops = &expr.ops[range.clone()];
            let avail_in = &avail[range.start];

            // Internal outputs (produced within the unit).
            let internal: HashSet<String> = unit_ops
                .iter()
                .flat_map(|o| o.output_names())
                .map(str::to_string)
                .collect();

            // Columns to ship down: K ∪ external base refs.
            let mut ship: Vec<String> = key.clone();
            for op in unit_ops {
                for c in op.base_columns_used() {
                    if !internal.contains(&c) && !ship.contains(&c) {
                        ship.push(c);
                    }
                }
            }

            // Per-site ¬ψ filters.
            let site_filters: Vec<SiteFilter> = if flags.group_reduction_coord && !fold_base {
                (0..n_sites)
                    .map(|s| {
                        let domains = self.dist.domains(&table, s);
                        // Prefer the disjunction over all ops; fall back to
                        // the first op when derived filters reference
                        // unit-internal columns.
                        let candidates = [
                            Expr::disjunction(
                                unit_ops.iter().map(|o| o.any_theta()).collect(),
                            ),
                            unit_ops[0].any_theta(),
                        ];
                        for theta in &candidates {
                            match derive_base_constraint(theta, &domains) {
                                BaseConstraint::Unsatisfiable => return SiteFilter::Skip,
                                BaseConstraint::Filter(f) => {
                                    let refs = f.columns(Side::Base);
                                    if refs.iter().all(|c| avail_in.contains(c)) {
                                        return SiteFilter::Predicate(f);
                                    }
                                }
                                BaseConstraint::Unrestricted => {}
                            }
                        }
                        SiteFilter::All
                    })
                    .collect()
            } else {
                vec![SiteFilter::All; n_sites]
            };

            let local_chain = ownership.is_some();
            let label = if range.len() == 1 {
                format!("gmdj {}", range.start + 1)
            } else {
                format!("gmdj {}-{} (local chain)", range.start + 1, range.end)
            };

            if let Some((b, d)) = ownership {
                decisions.push(PlanDecision::LocalChain {
                    stage: label.clone(),
                    ops: range.clone(),
                    base_col: b.clone(),
                    detail_col: d.clone(),
                });
            }
            let site_reduce = flags.group_reduction_site && !fold_base && !local_chain;
            if site_reduce {
                decisions.push(PlanDecision::SiteGroupReduction {
                    stage: label.clone(),
                });
            } else if flags.group_reduction_site {
                decisions.push(PlanDecision::SiteGroupReductionSuppressed {
                    stage: label.clone(),
                    reason: if fold_base {
                        "fold-base already derives groups at the sites".to_string()
                    } else {
                        "local chain ships only owned groups".to_string()
                    },
                });
            }
            if flags.group_reduction_coord && !fold_base {
                let restricted = site_filters
                    .iter()
                    .filter(|f| matches!(f, SiteFilter::Predicate(_)))
                    .count();
                let skipped = site_filters
                    .iter()
                    .filter(|f| matches!(f, SiteFilter::Skip))
                    .count();
                if restricted + skipped > 0 {
                    decisions.push(PlanDecision::CoordGroupReduction {
                        stage: label.clone(),
                        restricted,
                        skipped,
                    });
                }
            }

            // Site-resident rows. Key elision: a site whose fragment would
            // be the rows it holds again keeps them. Answer-driven group
            // reduction: after a fold, a unit answered by position whose
            // θs all entail θ_K over the folded table can match, at a site,
            // only the groups the site holds there — Thm 4's ¬ψᵢ, learned
            // from round 1's answers instead of derived from φ.
            let entails_key = unit_ops.iter().flat_map(|o| &o.blocks).all(|b| {
                let a = analyze_theta(&b.theta);
                key.iter().all(|k| a.entails_key_equality(k, k))
            });
            let own_groups_ok = flags.group_reduction_coord && !local_chain && entails_key;
            let (mut own_groups, mut same_fragment) = (0, 0);
            let site_filters: Vec<SiteFilter> = site_filters
                .into_iter()
                .zip(&held)
                .map(|(f, h)| match h {
                    _ if fold_base => f,
                    Held::Fragment(prev) if *prev == f => {
                        same_fragment += 1;
                        SiteFilter::Resident
                    }
                    Held::Groups(t) if f == SiteFilter::All && *t == table && own_groups_ok => {
                        own_groups += 1;
                        SiteFilter::Resident
                    }
                    _ => f,
                })
                .collect();
            if own_groups + same_fragment > 0 {
                decisions.push(PlanDecision::SiteResident {
                    stage: label.clone(),
                    own_groups,
                    same_fragment,
                });
            }
            held = match (fold_base, local_chain) {
                (true, false) => vec![Held::Groups(table.clone()); n_sites],
                (true, true) => vec![Held::Nothing; n_sites],
                (false, _) => site_filters
                    .iter()
                    .zip(held)
                    .map(|(f, h)| match f {
                        SiteFilter::Resident => h,
                        SiteFilter::Skip => Held::Nothing,
                        f => Held::Fragment(f.clone()),
                    })
                    .collect(),
            };

            stages.push(Stage {
                label,
                kind: StageKind::Unit(Unit {
                    ops: range.clone(),
                    table,
                    fold_base,
                    local_chain,
                    ownership: ownership.clone(),
                    ship_columns: if fold_base { Vec::new() } else { ship },
                    site_filters,
                    // Site-side reduction is meaningless when the sites'
                    // shipped rows *are* the base structure (fold) or when
                    // ownership already restricts them (local chain).
                    site_reduce,
                }),
            });
        }

        if self.obs.is_recording() {
            for d in &decisions {
                self.obs
                    .event(Track::Optimizer, d.kind(), vec![("detail", d.to_string().into())]);
            }
        }

        (DistributedPlan { expr, key, stages }, decisions)
    }
}

/// What a site holds after a stage, which the next unit may leave there
/// ([`SiteFilter::Resident`]).
#[derive(Debug, Clone, PartialEq)]
enum Held {
    /// Nothing the coordinator can place.
    Nothing,
    /// The fragment an `All` or `Predicate` filter selected.
    Fragment(SiteFilter),
    /// A folded single-operator unit's answer: the site's own groups over
    /// this detail table.
    Groups(String),
}

/// The column names of the base-values relation (syntactic).
fn base_columns(base: &BaseQuery) -> Vec<String> {
    match base {
        BaseQuery::DistinctProject { columns, .. } => columns.clone(),
        BaseQuery::Literal(rel) => rel
            .schema()
            .column_names()
            .into_iter()
            .map(str::to_string)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_gmdj::prelude::*;
    use skalla_relation::{Domain, DomainMap};

    fn dist_with_partition_attr(n: usize) -> DistributionInfo {
        let mut d = DistributionInfo::new(n);
        let per: Vec<DomainMap> = (0..n)
            .map(|i| {
                DomainMap::new().with(
                    "g",
                    Domain::IntRange(10 * i as i64, 10 * i as i64 + 9),
                )
            })
            .collect();
        d.set_table("t", per);
        d
    }

    /// Paper Example 1 shape over table `t` with grouping column `g`.
    fn correlated_expr() -> GmdjExpr {
        GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("cnt1"), AggSpec::sum("v", "sum1")],
            ))
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"])
                    .and_detail_ge_base_expr("v", "sum1 / cnt1")
                    .unwrap()
                    .build(),
                vec![AggSpec::count("cnt2")],
            ))
            .build()
    }

    #[test]
    fn unoptimized_plan_has_m_plus_1_rounds() {
        let planner = Planner::new(DistributionInfo::new(4));
        let plan = planner.optimize(&correlated_expr(), OptFlags::none());
        assert_eq!(plan.n_rounds(), 3);
        assert!(matches!(plan.stages[0].kind, StageKind::Base));
        // Every site gets all of B each round: the second time it keeps
        // the rows it has, and only their non-key columns ship.
        for (st, filter) in plan.stages[1..].iter().zip([SiteFilter::All, SiteFilter::Resident]) {
            let StageKind::Unit(u) = &st.kind else {
                panic!("expected unit")
            };
            assert!(!u.fold_base && !u.local_chain && !u.site_reduce);
            assert_eq!(u.site_filters, vec![filter; 4]);
        }
    }

    /// The correlated chain without a partition attribute, which folds
    /// round 1 and answers round 2 by position.
    fn folded_then_positional(flags: OptFlags) -> (DistributedPlan, Vec<PlanDecision>) {
        Planner::new(DistributionInfo::new(3)).optimize_with_decisions(&correlated_expr(), flags)
    }

    #[test]
    fn a_fold_leaves_each_site_its_own_groups_under_thm4() {
        let (plan, decisions) = folded_then_positional(OptFlags::all());
        assert_eq!(plan.n_rounds(), 2, "{}", plan.explain());
        let StageKind::Unit(u) = &plan.stages[1].kind else {
            panic!()
        };
        assert_eq!(u.site_filters, vec![SiteFilter::Resident; 3]);
        assert!(decisions.contains(&PlanDecision::SiteResident {
            stage: "gmdj 2".into(),
            own_groups: 3,
            same_fragment: 0,
        }));
        assert!(plan.explain().contains("site-resident rows: site(s) 0, 1, 2"), "{}", plan.explain());
        assert!(plan.check_structure(3).is_ok());
        // Without Thm 4's flag the sites get all of B, keyed.
        let flags = OptFlags {
            group_reduction_coord: false,
            ..OptFlags::all()
        };
        let (plan, decisions) = folded_then_positional(flags);
        let StageKind::Unit(u) = &plan.stages[1].kind else {
            panic!()
        };
        assert_eq!(u.site_filters, vec![SiteFilter::All; 3]);
        assert!(!decisions.iter().any(|d| matches!(d, PlanDecision::SiteResident { .. })));
    }

    #[test]
    fn a_predicate_after_a_fold_stays_keyed_and_repeats_resident() {
        // Round 1 folds over `t`; rounds 2 and 3, over `u` and `w`, which
        // share φ, get the same Thm 4 ¬ψᵢ. Round 2's stays keyed (a fold's
        // own groups need not satisfy it); round 3 keeps round 2's rows.
        let expr = GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(ThetaBuilder::group_by(&["g"]).build(), vec![AggSpec::count("c1")]))
            .gmdj(Gmdj::new("u").block(ThetaBuilder::group_by(&["g"]).build(), vec![AggSpec::count("c2")]))
            .gmdj(Gmdj::new("w").block(
                ThetaBuilder::group_by(&["g"]).and_detail_ge_base_expr("v", "c2").unwrap().build(),
                vec![AggSpec::count("c3")],
            ))
            .build();
        let mut dist = DistributionInfo::new(2);
        for table in ["u", "w"] {
            let domains = (0..2).map(|i| DomainMap::new().with("g", Domain::IntRange(10 * i, 10 * i + 9)));
            dist.set_table(table, domains.collect());
        }
        let flags = OptFlags {
            group_reduction_coord: true,
            sync_reduction: true,
            ..OptFlags::none()
        };
        let plan = Planner::new(dist).optimize(&expr, flags);
        let filters = |i: usize| match &plan.stages[i].kind {
            StageKind::Unit(u) => u.site_filters.clone(),
            StageKind::Base => panic!("{}", plan.explain()),
        };
        assert!(filters(1).iter().all(|f| matches!(f, SiteFilter::Predicate(_))), "{}", plan.explain());
        assert_eq!(filters(2), vec![SiteFilter::Resident; 2], "{}", plan.explain());
        assert!(plan.check_structure(2).is_ok());
    }

    #[test]
    fn site_group_reduction_sets_flag() {
        let planner = Planner::new(DistributionInfo::new(2));
        let flags = OptFlags {
            group_reduction_site: true,
            ..OptFlags::none()
        };
        let plan = planner.optimize(&correlated_expr(), flags);
        let StageKind::Unit(u) = &plan.stages[1].kind else {
            panic!()
        };
        assert!(u.site_reduce);
    }

    #[test]
    fn coordinator_group_reduction_derives_filters() {
        let planner = Planner::new(dist_with_partition_attr(3));
        let flags = OptFlags {
            group_reduction_coord: true,
            ..OptFlags::none()
        };
        let plan = planner.optimize(&correlated_expr(), flags);
        let StageKind::Unit(u) = &plan.stages[1].kind else {
            panic!()
        };
        for (i, f) in u.site_filters.iter().enumerate() {
            let SiteFilter::Predicate(p) = f else {
                panic!("expected predicate for site {i}, got {f:?}")
            };
            let s = p.to_string();
            assert!(
                s.contains(&format!("{}", 10 * i)),
                "site {i} filter {s} mentions its range"
            );
        }
    }

    #[test]
    fn full_sync_reduction_single_round() {
        // Example 5: partition attribute + group-by on it → entire chain
        // evaluates locally with one synchronization.
        let planner = Planner::new(dist_with_partition_attr(4));
        let plan = planner.optimize(&correlated_expr(), OptFlags::sync_reduction_only());
        assert_eq!(plan.n_rounds(), 1, "{}", plan.explain());
        let StageKind::Unit(u) = &plan.stages[0].kind else {
            panic!()
        };
        assert!(u.fold_base);
        assert!(u.local_chain);
        assert_eq!(
            u.ownership,
            Some(("g".to_string(), "g".to_string()))
        );
        assert_eq!(u.ops, 0..2);
    }

    #[test]
    fn sync_reduction_without_partition_attr_folds_only() {
        // No distribution knowledge: Cor 1 cannot apply, but Prop 2 can
        // (θ of op 1 entails θ_K).
        let planner = Planner::new(DistributionInfo::new(4));
        let plan = planner.optimize(&correlated_expr(), OptFlags::sync_reduction_only());
        assert_eq!(plan.n_rounds(), 2, "{}", plan.explain());
        let StageKind::Unit(u0) = &plan.stages[0].kind else {
            panic!()
        };
        assert!(u0.fold_base && !u0.local_chain);
        let StageKind::Unit(u1) = &plan.stages[1].kind else {
            panic!()
        };
        assert!(!u1.fold_base);
    }

    #[test]
    fn fold_rejected_when_theta_lacks_key_equality() {
        // θ of op 1 groups only on part of the key.
        let expr = GmdjExprBuilder::distinct_base("t", &["g", "h"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("c")],
            ))
            .build();
        let planner = Planner::new(DistributionInfo::new(2));
        let plan = planner.optimize(&expr, OptFlags::sync_reduction_only());
        assert_eq!(plan.n_rounds(), 2);
        assert!(matches!(plan.stages[0].kind, StageKind::Base));
    }

    #[test]
    fn coalescing_merges_independent_ops() {
        let expr = GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("c1")],
            ))
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("c2")],
            ))
            .build();
        let planner = Planner::new(DistributionInfo::new(2));
        let (plan, decisions) = planner.optimize_with_decisions(&expr, OptFlags::coalesce_only());
        assert_eq!(plan.expr.ops.len(), 1);
        assert_eq!(plan.n_rounds(), 2); // base + one gmdj round
        assert!(decisions.contains(&PlanDecision::Coalesced {
            ops_before: 2,
            ops_after: 1,
            rounds_saved: 1,
        }));
    }

    #[test]
    fn ship_columns_include_key_and_external_refs_only() {
        let planner = Planner::new(DistributionInfo::new(2));
        let plan = planner.optimize(&correlated_expr(), OptFlags::none());
        let StageKind::Unit(u1) = &plan.stages[1].kind else {
            panic!()
        };
        assert_eq!(u1.ship_columns, vec!["g".to_string()]);
        let StageKind::Unit(u2) = &plan.stages[2].kind else {
            panic!()
        };
        // Round 2's θ references sum1/cnt1 — produced by round 1, external
        // to unit 2, so they must ship.
        assert!(u2.ship_columns.contains(&"g".to_string()));
        assert!(u2.ship_columns.contains(&"sum1".to_string()));
        assert!(u2.ship_columns.contains(&"cnt1".to_string()));
    }

    #[test]
    fn skip_site_when_theta_contradicts_phi() {
        // Query restricted to g IN (0..9) — only site 0 can contribute.
        let expr = GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"])
                    .and(Expr::dcol("g").le(Expr::lit(9i64)))
                    .build(),
                vec![AggSpec::count("c")],
            ))
            .build();
        let planner = Planner::new(dist_with_partition_attr(3));
        let flags = OptFlags {
            group_reduction_coord: true,
            ..OptFlags::none()
        };
        let plan = planner.optimize(&expr, flags);
        let StageKind::Unit(u) = &plan.stages[1].kind else {
            panic!()
        };
        assert!(matches!(u.site_filters[0], SiteFilter::Predicate(_)));
        assert!(matches!(u.site_filters[1], SiteFilter::Skip));
        assert!(matches!(u.site_filters[2], SiteFilter::Skip));
    }

    #[test]
    fn explain_mentions_decisions() {
        let planner = Planner::new(dist_with_partition_attr(4));
        let plan = planner.optimize(&correlated_expr(), OptFlags::all());
        let text = plan.explain();
        assert!(text.contains("local chain"), "{text}");
        assert!(text.contains("Prop 2"), "{text}");
    }

    #[test]
    fn decisions_cover_fired_rewrites() {
        let planner = Planner::new(dist_with_partition_attr(4));
        let (plan, decisions) =
            planner.optimize_with_decisions(&correlated_expr(), OptFlags::all());
        assert_eq!(plan.n_rounds(), 1);
        assert!(decisions
            .iter()
            .any(|d| matches!(d, PlanDecision::FoldedBase { .. })));
        assert!(decisions.iter().any(|d| matches!(
            d,
            PlanDecision::LocalChain { ops, .. } if *ops == (0..2)
        )));
        // Prop 1 is subsumed by the local chain, and that is recorded.
        assert!(decisions
            .iter()
            .any(|d| matches!(d, PlanDecision::SiteGroupReductionSuppressed { .. })));
        // Every decision renders and carries a kind tag.
        for d in &decisions {
            assert!(!d.kind().is_empty());
            assert!(!d.to_string().is_empty());
        }
    }

    #[test]
    fn decisions_record_blocked_rewrites() {
        let planner = Planner::new(DistributionInfo::new(2));
        let expr = GmdjExprBuilder::distinct_base("t", &["g", "h"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("c")],
            ))
            .build();
        let (_, decisions) =
            planner.optimize_with_decisions(&expr, OptFlags::sync_reduction_only());
        assert!(decisions.iter().any(|d| matches!(
            d,
            PlanDecision::FoldBlocked { reason } if reason.contains("θ_K")
        )));
    }

    #[test]
    fn decisions_count_coord_reduction_sites() {
        let expr = GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"])
                    .and(Expr::dcol("g").le(Expr::lit(9i64)))
                    .build(),
                vec![AggSpec::count("c")],
            ))
            .build();
        let planner = Planner::new(dist_with_partition_attr(3));
        let flags = OptFlags {
            group_reduction_coord: true,
            ..OptFlags::none()
        };
        let (_, decisions) = planner.optimize_with_decisions(&expr, flags);
        assert!(decisions.iter().any(|d| matches!(
            d,
            PlanDecision::CoordGroupReduction {
                restricted: 1,
                skipped: 2,
                ..
            }
        )));
    }

    #[test]
    fn planner_emits_optimizer_events_when_observed() {
        use skalla_obs::Obs;
        let obs = Obs::recording();
        let planner = Planner::new(dist_with_partition_attr(4)).with_obs(obs.clone());
        let (_, decisions) =
            planner.optimize_with_decisions(&correlated_expr(), OptFlags::all());
        let rec = obs.recorder().unwrap();
        let events = rec.events();
        assert_eq!(events.len(), decisions.len());
        for (e, d) in events.iter().zip(&decisions) {
            assert_eq!(e.name, d.kind());
            assert_eq!(e.track, Track::Optimizer);
        }
        // The optimize pass itself is a closed span on the optimizer track.
        let spans = rec.spans();
        assert!(spans
            .iter()
            .any(|s| s.name == "optimize" && s.track == Track::Optimizer && s.dur_us.is_some()));
    }

    #[test]
    fn literal_base_has_no_base_stage() {
        use skalla_relation::{row, DataType, Schema};
        let groups = skalla_relation::Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            vec![row![1i64]],
        )
        .unwrap();
        let expr = GmdjExprBuilder::literal_base(groups)
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("c")],
            ))
            .build();
        let planner = Planner::new(DistributionInfo::new(2));
        let plan = planner.optimize(&expr, OptFlags::none());
        assert_eq!(plan.n_rounds(), 1);
        assert!(matches!(plan.stages[0].kind, StageKind::Unit(_)));
    }

    #[test]
    fn different_detail_tables_break_units() {
        let expr = GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("c1")],
            ))
            .gmdj(Gmdj::new("u").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("c2")],
            ))
            .build();
        let mut dist = dist_with_partition_attr(2);
        dist.set_table(
            "u",
            vec![
                DomainMap::new().with("g", Domain::IntRange(0, 9)),
                DomainMap::new().with("g", Domain::IntRange(10, 19)),
            ],
        );
        let planner = Planner::new(dist);
        let plan = planner.optimize(&expr, OptFlags::sync_reduction_only());
        // Two units (different tables); the first still folds.
        assert_eq!(plan.n_rounds(), 2);
    }
}
