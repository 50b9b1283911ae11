//! Multi-tier coordination — the paper's future-work Sect. 6
//! ("exploration of alternative architectures, e.g., a multi-tiered
//! coordinator architecture or spanning-tree networks").
//!
//! A two-level tree: sites report to *regional coordinators*, which merge
//! their region's sub-results (Theorem 1's merge is associative, so any
//! intermediate grouping of the partition is valid — see
//! [`skalla_core::coordinator::PartialMerge`]) and forward one consolidated
//! relation to the *root*. The root's links then carry `O(#regions · |B|)`
//! per round instead of `O(#sites · |B|)` — attacking exactly the
//! quadratic term the paper's Fig. 2 isolates.
//!
//! The tree executes synchronously (it is an architecture simulation for
//! traffic analysis; the [`skalla_core::Skalla`] star runtime is the
//! engine). Both levels' traffic is recorded with the same
//! byte accounting as the star topology.

use skalla_core::coordinator::{empty_aggregates, BaseSync, ChainSync, MergeSync, PartialMerge};
use skalla_core::site::execute_stage;
use skalla_core::{Cluster, DistributedPlan, SiteFilter, StageKind, Unit};
use skalla_gmdj::BaseQuery;
use skalla_net::{Direction, NetStats, RoundStats};
use skalla_relation::{Error, Relation, Result, Schema};
use std::collections::HashMap;

/// A two-level coordinator tree: which sites report to which regional
/// coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeTopology {
    /// Site indexes per region. Regions must partition `0..n_sites`.
    pub regions: Vec<Vec<usize>>,
}

impl TreeTopology {
    /// Split `n_sites` sites into `n_regions` contiguous regions.
    pub fn balanced(n_sites: usize, n_regions: usize) -> TreeTopology {
        assert!(n_regions > 0 && n_regions <= n_sites);
        let per = n_sites.div_ceil(n_regions);
        let regions = (0..n_regions)
            .map(|r| ((r * per)..((r + 1) * per).min(n_sites)).collect())
            .filter(|v: &Vec<usize>| !v.is_empty())
            .collect();
        TreeTopology { regions }
    }

    /// Check the topology covers every site exactly once.
    pub fn validate(&self, n_sites: usize) -> Result<()> {
        let mut seen = vec![false; n_sites];
        for region in &self.regions {
            for &s in region {
                if s >= n_sites || seen[s] {
                    return Err(Error::Plan(format!(
                        "site {s} missing or assigned to two regions"
                    )));
                }
                seen[s] = true;
            }
        }
        if seen.iter().all(|&s| s) {
            Ok(())
        } else {
            Err(Error::Plan("topology does not cover all sites".into()))
        }
    }

    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.regions.len()
    }
}

/// Result of a tree execution: the answer plus per-level traffic.
#[derive(Debug, Clone)]
pub struct TreeQueryResult {
    /// The query answer.
    pub relation: Relation,
    /// Per-round traffic on the root ↔ regional-coordinator links.
    pub root_rounds: Vec<RoundStats>,
    /// Per-round traffic on the regional-coordinator ↔ site links.
    pub region_rounds: Vec<RoundStats>,
}

impl TreeQueryResult {
    /// Bytes through the root's links (the tree's scalability argument).
    pub fn root_bytes(&self) -> u64 {
        self.root_rounds.iter().map(|r| r.totals().total_bytes()).sum()
    }

    /// Bytes on the site-facing links.
    pub fn site_bytes(&self) -> u64 {
        self.region_rounds
            .iter()
            .map(|r| r.totals().total_bytes())
            .sum()
    }
}

/// Execute a plan over a two-level coordinator tree.
pub fn execute_tree(
    cluster: &Cluster,
    plan: &DistributedPlan,
    topo: &TreeTopology,
) -> Result<TreeQueryResult> {
    topo.validate(cluster.n_sites())?;
    plan.check_structure(cluster.n_sites())?;
    let schemas = plan.expr.validate(cluster.site_catalog(0))?;
    let detail_schemas: HashMap<String, Schema> = cluster
        .site_catalog(0)
        .iter()
        .map(|(k, v)| (k.clone(), v.schema().clone()))
        .collect();
    let root_stats = NetStats::new(topo.n_regions());
    let region_stats = NetStats::new(cluster.n_sites());

    let mut b_cur: Option<Relation> = match &plan.expr.base {
        BaseQuery::Literal(rel) => Some(rel.clone()),
        BaseQuery::DistinctProject { .. } => None,
    };

    for (sidx, stage) in plan.stages.iter().enumerate() {
        root_stats.begin_round(stage.label.clone());
        region_stats.begin_round(stage.label.clone());
        match &stage.kind {
            StageKind::Base => {
                let mut root_sync = BaseSync::new();
                for (r, region) in topo.regions.iter().enumerate() {
                    let mut region_sync = BaseSync::new();
                    for &s in region {
                        let frag = plan.base_fragment(cluster.site_catalog(s))?;
                        region_stats.record(s, Direction::Up, frag.encoded_size() as u64);
                        region_sync.absorb(frag)?;
                    }
                    // The region deduplicates before forwarding.
                    let regional = region_sync.finish(&plan.key)?;
                    root_stats.record(r, Direction::Up, regional.encoded_size() as u64);
                    root_sync.absorb(regional)?;
                }
                b_cur = Some(root_sync.finish(&plan.key)?);
            }
            StageKind::Unit(unit) => {
                b_cur = execute_tree_unit(
                    cluster,
                    plan,
                    unit,
                    sidx,
                    b_cur,
                    &schemas,
                    &detail_schemas,
                    topo,
                    &root_stats,
                    &region_stats,
                )?;
            }
        }
    }

    Ok(TreeQueryResult {
        relation: b_cur.ok_or_else(|| Error::Execution("plan produced no result".into()))?,
        root_rounds: root_stats.rounds().into_iter().skip(1).collect(),
        region_rounds: region_stats.rounds().into_iter().skip(1).collect(),
    })
}

#[allow(clippy::too_many_arguments)]
fn execute_tree_unit(
    cluster: &Cluster,
    plan: &DistributedPlan,
    unit: &Unit,
    sidx: usize,
    mut b_cur: Option<Relation>,
    schemas: &[Schema],
    detail_schemas: &HashMap<String, Schema>,
    topo: &TreeTopology,
    root_stats: &NetStats,
    region_stats: &NetStats,
) -> Result<Option<Relation>> {
    let ship_cols: Vec<&str> = unit.ship_columns.iter().map(String::as_str).collect();
    let ops = &plan.expr.ops[unit.ops.clone()];
    let out_schema = schemas[unit.ops.end].clone();
    let b_in_schema = &schemas[unit.ops.start];

    // Root-side synchronizers.
    let mut merge_sync = if unit.local_chain {
        None
    } else {
        Some(MergeSync::new(
            if unit.fold_base { None } else { b_cur.as_ref() },
            &plan.key,
            &ops[0],
        )?)
    };
    let mut chain_sync = if unit.local_chain {
        Some(ChainSync::new(plan.key.len()))
    } else {
        None
    };

    for (r, region) in topo.regions.iter().enumerate() {
        // Which of this region's sites participate?
        let participants: Vec<usize> = region
            .iter()
            .copied()
            .filter(|&s| !matches!(unit.site_filters[s], SiteFilter::Skip))
            .collect();
        if participants.is_empty() {
            continue;
        }

        // Root → region: one consolidated fragment (the tree's saving).
        let region_frag: Option<Relation> = if unit.fold_base {
            None
        } else {
            let b = b_cur
                .as_ref()
                .ok_or_else(|| Error::Execution("unit stage with no base structure".into()))?;
            let any_all = participants
                .iter()
                .any(|&s| matches!(unit.site_filters[s], SiteFilter::All));
            let frag = if any_all {
                b.project(&ship_cols)?
            } else {
                // Union of the sites' ¬ψ selections, deduplicated.
                let mut acc: Option<Relation> = None;
                for &s in &participants {
                    let SiteFilter::Predicate(p) = &unit.site_filters[s] else {
                        continue;
                    };
                    let bound = p.bind(b.schema(), None)?;
                    let sel = b.select(&bound)?;
                    acc = Some(match acc {
                        None => sel,
                        Some(a) => a.union_all(&sel)?,
                    });
                }
                acc.map(|a| a.distinct())
                    .unwrap_or_else(|| Relation::empty(b.schema().clone()))
                    .project(&ship_cols)?
            };
            root_stats.record(r, Direction::Down, frag.encoded_size() as u64);
            Some(frag)
        };

        // Region → sites, site compute, site → region.
        let mut region_partial: Option<PartialMerge> = None;
        let mut region_chain: Vec<Relation> = Vec::new();
        for &s in &participants {
            let site_frag = match (&region_frag, &unit.site_filters[s]) {
                (None, _) => None,
                (Some(f), SiteFilter::All) => Some(f.clone()),
                (Some(f), SiteFilter::Predicate(p)) => {
                    let bound = p.bind(f.schema(), None)?;
                    Some(f.select(&bound)?)
                }
                (_, SiteFilter::Skip) => unreachable!("filtered above"),
            };
            if let Some(f) = &site_frag {
                region_stats.record(s, Direction::Down, f.encoded_size() as u64);
            }
            let h = execute_stage(
                cluster.site_catalog(s),
                plan,
                sidx,
                site_frag,
                skalla_gmdj::eval::EvalOptions::default(),
            )?;
            region_stats.record(s, Direction::Up, h.encoded_size() as u64);
            if unit.local_chain {
                region_chain.push(h);
            } else {
                let pm = match &mut region_partial {
                    Some(pm) => pm,
                    None => {
                        region_partial = Some(PartialMerge::new(plan.key.len(), &ops[0]));
                        region_partial.as_mut().expect("just set")
                    }
                };
                pm.absorb(&h)?;
            }
        }

        // Region → root: one merged relation.
        if unit.local_chain {
            let mut it = region_chain.into_iter();
            if let Some(first) = it.next() {
                let mut acc = first;
                for h in it {
                    acc = acc.union_all(&h)?;
                }
                root_stats.record(r, Direction::Up, acc.encoded_size() as u64);
                chain_sync
                    .as_mut()
                    .expect("chained unit uses ChainSync")
                    .absorb(&acc)?;
            }
        } else if let Some(pm) = region_partial {
            // Schema: key columns + physical accumulator fields.
            let detail = detail_schemas
                .get(&unit.table)
                .ok_or_else(|| Error::Plan(format!("unknown table {:?}", unit.table)))?;
            let mut fields = Vec::new();
            for k in &plan.key {
                let idx = b_in_schema.index_of(k)?;
                fields.push(b_in_schema.field(idx).clone());
            }
            fields.extend(ops[0].layout().physical_fields(detail)?);
            let regional = pm.into_relation(std::sync::Arc::new(Schema::new(fields)?));
            root_stats.record(r, Direction::Up, regional.encoded_size() as u64);
            merge_sync
                .as_mut()
                .expect("non-chained unit uses MergeSync")
                .absorb(&regional)?;
        }
    }

    // Root finalization.
    let detail = detail_schemas
        .get(&unit.table)
        .ok_or_else(|| Error::Plan(format!("unknown table {:?}", unit.table)))?;
    let next = if let Some(sync) = merge_sync {
        sync.finish(b_in_schema, &ops[0], detail)?
    } else {
        let sync = chain_sync.expect("one of the synchronizers is set");
        if unit.fold_base {
            sync.finish_folded(out_schema)?
        } else {
            let empty = empty_aggregates(ops)?;
            let b = b_cur
                .take()
                .ok_or_else(|| Error::Execution("chained unit with no base".into()))?;
            sync.finish_against(&b, &plan.key, &empty, out_schema)?
        }
    };
    Ok(Some(next))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_core::{OptFlags, Planner};
    use skalla_gmdj::prelude::*;
    use skalla_relation::{row, DataType, Domain, DomainMap};

    fn cluster() -> Cluster {
        let schema = Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]);
        let frags: Vec<(Relation, DomainMap)> = (0..4)
            .map(|i| {
                let rel = Relation::new(
                    schema.clone(),
                    vec![
                        row![2 * i as i64, 10 * i as i64],
                        row![2 * i as i64 + 1, 7i64],
                        row![2 * i as i64, 3i64],
                    ],
                )
                .unwrap();
                let dom = DomainMap::new()
                    .with("g", Domain::IntRange(2 * i as i64, 2 * i as i64 + 1));
                (rel, dom)
            })
            .collect();
        Cluster::from_partitions("t", frags)
    }

    fn expr() -> GmdjExpr {
        GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("c"), AggSpec::avg("v", "a")],
            ))
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"])
                    .and(Expr::dcol("v").ge(Expr::bcol("a")))
                    .build(),
                vec![AggSpec::count("above")],
            ))
            .build()
    }

    #[test]
    fn balanced_topology_partitions_sites() {
        let t = TreeTopology::balanced(8, 3);
        assert_eq!(t.n_regions(), 3);
        t.validate(8).unwrap();
        assert!(t.validate(7).is_err());
        let bad = TreeTopology {
            regions: vec![vec![0, 1], vec![1]],
        };
        assert!(bad.validate(2).is_err());
        let missing = TreeTopology {
            regions: vec![vec![0]],
        };
        assert!(missing.validate(2).is_err());
    }

    #[test]
    fn tree_matches_star_for_all_flag_sets() {
        let c = cluster();
        let topo = TreeTopology::balanced(4, 2);
        for bits in 0..16u32 {
            let flags = OptFlags {
                coalesce: bits & 1 != 0,
                group_reduction_site: bits & 2 != 0,
                group_reduction_coord: bits & 4 != 0,
                sync_reduction: bits & 8 != 0,
            };
            let plan = Planner::new(c.distribution()).optimize(&expr(), flags);
            let star = c.execute(&plan).unwrap();
            let tree = execute_tree(&c, &plan, &topo).unwrap();
            assert!(
                tree.relation.same_bag(&star.relation),
                "{flags:?}\n{}",
                plan.explain()
            );
        }
    }

    #[test]
    fn tree_reduces_root_traffic() {
        let c = cluster();
        let plan = Planner::new(c.distribution()).optimize(&expr(), OptFlags::none());
        let star = c.execute(&plan).unwrap();
        let tree = execute_tree(&c, &plan, &TreeTopology::balanced(4, 2)).unwrap();
        assert!(
            tree.root_bytes() < star.stats.total_bytes(),
            "tree root {} vs star coordinator {}",
            tree.root_bytes(),
            star.stats.total_bytes()
        );
    }

    #[test]
    fn degenerate_topologies() {
        let c = cluster();
        let plan = Planner::new(c.distribution()).optimize(&expr(), OptFlags::none());
        let star_result = c.execute(&plan).unwrap();
        // One region containing all sites ≈ the star.
        let all_in_one = execute_tree(&c, &plan, &TreeTopology::balanced(4, 1)).unwrap();
        assert!(all_in_one.relation.same_bag(&star_result.relation));
        // One region per site: root sees per-site traffic.
        let one_each = execute_tree(&c, &plan, &TreeTopology::balanced(4, 4)).unwrap();
        assert!(one_each.relation.same_bag(&star_result.relation));
        assert!(all_in_one.root_bytes() <= one_each.root_bytes());
    }
}
