//! Skew analysis: heavy-hitter reports and per-key routing, kept for
//! the benchmark.
//!
//! Horizontal partitioning balances *rows*, not *work*: under a zipfian
//! group-key distribution one site can hold most of the detail tuples of
//! a handful of hot groups and become the straggler of every round. The
//! engine once rebalanced that at query time by loaning a donor's hot
//! detail rows to helper sites through the coordinator; it was measured
//! 3× slower end to end on the ledger's own skew workload (a routed row
//! costs more to encode and decode than to evaluate where it lies —
//! EXPERIMENTS.md, "Skew balancing: the verdict") and deleted. The
//! engine's remedy for skew is placement: partition attribute and range
//! boundaries, diagnosed from the round table's busy `skew` column.
//!
//! What stays is the analysis, whose only caller is the benchmark's skew
//! layer (`crates/bench/src/bin/e2e/layers.rs`, the `skew.*` per-layer
//! rows): [`skew_eligible`] decides whether a plan's hot groups could be
//! moved at all, `site::hot_report` sketches a site's detail partition
//! into a [`HotReport`], [`plan_routing`] decides the moves, and
//! `site::split_detail` measures the donor's split scan for an
//! [`ExtractSpec`]. It goes with those rows (ROADMAP item 7).

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::plan::{DistributedPlan, StageKind};
use skalla_gmdj::theta::analyze_theta;
use skalla_gmdj::BaseQuery;
use skalla_relation::Value;

// The three constants, the types and the two functions below have one
// caller, the benchmark's skew layer; see the module docs.

/// Capacity of the per-site space-saving sketch (`site::hot_report`).
/// Every key with local frequency above `rows / SKETCH_CAPACITY` is
/// guaranteed tracked.
pub const SKETCH_CAPACITY: usize = 64;

/// Maximum heavy hitters in one site's [`HotReport`].
pub const REPORT_TOP: usize = 32;

/// In [`plan_routing`], a site starts shedding groups when its row count
/// exceeds the mean by this factor.
pub const DONOR_THRESHOLD: f64 = 1.25;

/// One site's heavy-hitter report (`site::hot_report`): its local detail
/// row count and the top sketch entries as `(group key, estimated
/// count)`. Built by the benchmark's skew layer only.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HotReport {
    /// Local detail rows of the skew-eligible table.
    pub rows: u64,
    /// Top hitters, descending by estimated count.
    pub hitters: Vec<(Vec<Value>, u64)>,
}

/// What makes a plan's hot groups movable ([`skew_eligible`]): the detail
/// table to sketch and the columns carrying the group key. Read by the
/// benchmark's skew layer only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewSpec {
    /// The detail table whose key distribution is sketched.
    pub table: String,
    /// Detail column carrying each `plan.key` column's value, in key
    /// order (the consistent equi mapping every θ entails).
    pub detail_cols: Vec<String>,
}

/// Decide whether a plan's hot groups could be moved off their site.
/// Only caller: the benchmark's skew layer (its `skew.eligible` row).
///
/// A stage qualifies when it is a non-folded, non-chained unit whose
/// every θ entails equality between each key column and one *consistent*
/// detail column: then a detail row can only contribute to the group
/// named by its own key columns, so extracting the hot-key detail rows
/// captures every tuple the moved base rows could match. The spec is the
/// first qualifying stage's `(table, detail columns)`. Requires a leading
/// base round over a derivable base.
pub fn skew_eligible(plan: &DistributedPlan) -> Option<SkewSpec> {
    if !matches!(plan.expr.base, BaseQuery::DistinctProject { .. }) {
        return None;
    }
    if !matches!(plan.stages.first().map(|s| &s.kind), Some(StageKind::Base)) {
        return None;
    }
    'stages: for stage in &plan.stages {
        let StageKind::Unit(u) = &stage.kind else {
            continue;
        };
        if u.fold_base || u.local_chain {
            continue;
        }
        let mut mapping: Option<Vec<String>> = None;
        for op in &plan.expr.ops[u.ops.clone()] {
            for block in &op.blocks {
                let a = analyze_theta(&block.theta);
                let mut cols = Vec::with_capacity(plan.key.len());
                for k in &plan.key {
                    match a.equi.iter().find(|(b, _)| b == k) {
                        Some((_, d)) => cols.push(d.clone()),
                        None => continue 'stages,
                    }
                }
                match &mapping {
                    None => mapping = Some(cols),
                    Some(m) if *m == cols => {}
                    Some(_) => continue 'stages,
                }
            }
        }
        if let Some(detail_cols) = mapping {
            return Some(SkewSpec {
                table: u.table.clone(),
                detail_cols,
            });
        }
    }
    None
}

/// One hot group's routing: the group key and the helper sites that take
/// it over. A single helper takes the whole group; several helpers split
/// it, each receiving the detail segments with `segment % helpers.len()`
/// equal to its position. Read by the benchmark's skew layer only.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The hot group key (in `plan.key` column order).
    pub key: Vec<Value>,
    /// Helper site ids, ascending.
    pub helpers: Vec<usize>,
}

/// A routing decision ([`plan_routing`]): per site, the hot groups it
/// would donate. Read by the benchmark's skew layer only.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SkewPlan {
    /// `assignments[site]` — empty for non-donors.
    pub assignments: Vec<Vec<Assignment>>,
}

impl SkewPlan {
    /// Number of donating sites.
    pub fn n_donors(&self) -> usize {
        self.assignments.iter().filter(|a| !a.is_empty()).count()
    }

    /// Total rerouted hot groups.
    pub fn n_hot_keys(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }
}

/// Greedy deterministic routing from the sites' heavy-hitter reports.
/// Only caller: the benchmark's skew layer.
///
/// Sites more than [`DONOR_THRESHOLD`]× the mean row count donate their
/// hottest groups (descending estimated count, key-order tie-break) to
/// the least-loaded other site until they project at or below the mean.
/// A group whose count alone exceeds the mean splits across the
/// `ceil(count / mean)` lightest helpers. Counts are sketch
/// *over*estimates, which only ever makes the balancing more eager.
pub fn plan_routing(reports: &[HotReport]) -> SkewPlan {
    let n = reports.len();
    let mut assignments = vec![Vec::new(); n];
    let total: u64 = reports.iter().map(|r| r.rows).sum();
    if n < 2 || total == 0 {
        return SkewPlan { assignments };
    }
    let mean = total as f64 / n as f64;
    let mut load: Vec<f64> = reports.iter().map(|r| r.rows as f64).collect();
    for donor in 0..n {
        if load[donor] <= mean * DONOR_THRESHOLD {
            continue;
        }
        let mut hitters = reports[donor].hitters.clone();
        hitters.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (key, count) in hitters {
            if load[donor] <= mean {
                break;
            }
            let count = (count as f64).min(load[donor]);
            if count > mean && n > 2 {
                // Too hot for any single helper: split across the k
                // lightest other sites; detail segments route seg % k.
                let k = ((count / mean).ceil() as usize).clamp(2, n - 1);
                let mut cands: Vec<usize> = (0..n).filter(|&s| s != donor).collect();
                cands.sort_by(|&a, &b| load[a].total_cmp(&load[b]).then(a.cmp(&b)));
                let mut helpers: Vec<usize> = cands.into_iter().take(k).collect();
                helpers.sort_unstable();
                let share = count / helpers.len() as f64;
                for &h in &helpers {
                    load[h] += share;
                }
                load[donor] -= count;
                assignments[donor].push(Assignment { key, helpers });
            } else {
                // Move the whole group to the least-loaded other site —
                // but only if that improves the donor/helper balance.
                let Some(helper) = (0..n)
                    .filter(|&s| s != donor)
                    .min_by(|&a, &b| load[a].total_cmp(&load[b]).then(a.cmp(&b)))
                else {
                    continue; // no other site to help
                };
                if load[helper] + count >= load[donor] {
                    continue;
                }
                load[helper] += count;
                load[donor] -= count;
                assignments[donor].push(Assignment {
                    key,
                    helpers: vec![helper],
                });
            }
        }
    }
    SkewPlan { assignments }
}

/// A donor's split request: the detail columns forming the group key and
/// the hot keys whose rows would be loaned (`site::split_detail`). Built
/// by the benchmark's skew layer only.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractSpec {
    /// Detail columns carrying the key (in `plan.key` order).
    pub detail_cols: Vec<String>,
    /// The hot group keys to extract.
    pub keys: Vec<Vec<Value>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionInfo;
    use crate::plan::{OptFlags, Planner};
    use skalla_gmdj::prelude::*;
    use skalla_relation::{Domain, DomainMap};

    fn correlated_expr() -> GmdjExpr {
        GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("cnt"), AggSpec::avg("v", "avg")],
            ))
            .gmdj(
                Gmdj::new("t").block(
                    ThetaBuilder::group_by(&["g"])
                        .and(Expr::dcol("v").ge(Expr::bcol("avg")))
                        .build(),
                    vec![AggSpec::count("above")],
                ),
            )
            .build()
    }

    #[test]
    fn unoptimized_plan_is_eligible() {
        let plan =
            Planner::new(DistributionInfo::new(4)).optimize(&correlated_expr(), OptFlags::none());
        let spec = skew_eligible(&plan).expect("eligible");
        assert_eq!(spec.table, "t");
        assert_eq!(spec.detail_cols, vec!["g".to_string()]);
    }

    #[test]
    fn chained_plan_is_not_eligible() {
        // With a partition attribute the whole chain folds into one local
        // round — nothing left to rebalance (and no base round to report
        // on).
        let mut d = DistributionInfo::new(4);
        d.set_table(
            "t",
            (0..4)
                .map(|i| DomainMap::new().with("g", Domain::IntRange(10 * i, 10 * i + 9)))
                .collect(),
        );
        let plan = Planner::new(d).optimize(&correlated_expr(), OptFlags::all());
        assert!(skew_eligible(&plan).is_none());
    }

    #[test]
    fn non_key_theta_is_not_eligible() {
        // θ has no equality on the key column: a detail row may contribute
        // to any group, so hot-key extraction cannot be exact.
        let expr = GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::new()
                    .and(Expr::dcol("v").ge(Expr::bcol("g")))
                    .build(),
                vec![AggSpec::count("c")],
            ))
            .build();
        let plan = Planner::new(DistributionInfo::new(2)).optimize(&expr, OptFlags::none());
        assert!(skew_eligible(&plan).is_none());
    }

    #[test]
    fn routing_moves_hot_keys_off_the_loaded_site() {
        // Site 0 holds 10× the rows, dominated by two hot keys.
        let reports = vec![
            HotReport {
                rows: 1000,
                hitters: vec![
                    (vec![Value::Int(7)], 600),
                    (vec![Value::Int(3)], 250),
                    (vec![Value::Int(1)], 50),
                ],
            },
            HotReport {
                rows: 100,
                hitters: vec![(vec![Value::Int(9)], 40)],
            },
            HotReport {
                rows: 100,
                hitters: vec![],
            },
        ];
        let plan = plan_routing(&reports);
        assert_eq!(plan.n_donors(), 1);
        assert!(!plan.assignments[0].is_empty());
        assert!(plan.assignments[1].is_empty() && plan.assignments[2].is_empty());
        // The hottest key exceeds the mean (400) and splits.
        let hot = &plan.assignments[0][0];
        assert_eq!(hot.key, vec![Value::Int(7)]);
        assert!(hot.helpers.len() >= 2, "{:?}", hot.helpers);
        assert!(!hot.helpers.contains(&0), "donor never helps itself");
    }

    #[test]
    fn routing_is_deterministic_and_trivial_when_balanced() {
        let reports: Vec<HotReport> = (0..4)
            .map(|_| HotReport {
                rows: 100,
                hitters: vec![(vec![Value::Int(1)], 30)],
            })
            .collect();
        let a = plan_routing(&reports);
        assert_eq!(a.n_donors(), 0);
        assert_eq!(a, plan_routing(&reports));
        assert_eq!(plan_routing(&[]).n_donors(), 0);
        assert_eq!(plan_routing(&reports[..1]).n_donors(), 0);
    }

    #[test]
    fn routing_stops_when_moves_stop_helping() {
        // One hot key covers nearly everything; after splitting it, the
        // tail keys must not ping-pong load above the donor's.
        let reports = vec![
            HotReport {
                rows: 900,
                hitters: vec![(vec![Value::Int(0)], 880), (vec![Value::Int(1)], 10)],
            },
            HotReport {
                rows: 10,
                hitters: vec![],
            },
            HotReport {
                rows: 10,
                hitters: vec![],
            },
        ];
        let plan = plan_routing(&reports);
        let moved: usize = plan.n_hot_keys();
        assert!(moved >= 1);
        for a in &plan.assignments[0] {
            for h in &a.helpers {
                assert_ne!(*h, 0);
                assert!(*h < 3);
            }
        }
    }
}
