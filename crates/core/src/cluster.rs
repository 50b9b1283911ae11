//! Warehouse assembly and the centralized reference.
//!
//! A [`Cluster`] holds the partitioned fact relations of the warehouse
//! sites and the φ knowledge describing them. It is what tests, benches
//! and the [`crate::SkallaBuilder`] assemble tables with, and it carries
//! the ship-everything centralized baseline that Skalla's design avoids
//! ([`Cluster::execute_centralized`], the oracle the distributed runs
//! are checked against). Its [`Cluster::execute`] is a one-shot
//! [`crate::Skalla`] engine over the same partitions; the coordinator
//! algorithm that engine drives lives in [`crate::coordinator`].

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::coordinator::finished_rounds;
use crate::distribution::DistributionInfo;
use crate::plan::DistributedPlan;
use crate::stats::{ExecStats, QueryResult, StageTimes};
use crate::warehouse::{EngineConfig, Skalla};
use skalla_gmdj::GmdjExpr;
use skalla_net::{Direction, NetStats};
use skalla_relation::{DomainMap, Error, Relation, Result, Schema};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A distributed data warehouse's data: `n` sites, each holding a
/// horizontal fragment of every fact relation, plus the φ knowledge the
/// planner needs.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Per-site catalogs, `Arc`-shared so an engine's site threads and
    /// the [`crate::Warehouse::catalog`] surface borrow the same
    /// metadata instead of cloning maps (copy-on-write under mutation).
    sites: Vec<Arc<HashMap<String, Arc<Relation>>>>,
    dist: DistributionInfo,
    cfg: EngineConfig,
}

impl Cluster {
    /// An empty cluster of `n_sites` sites.
    pub fn new(n_sites: usize) -> Cluster {
        assert!(n_sites > 0, "a cluster needs at least one site");
        Cluster {
            sites: (0..n_sites).map(|_| Arc::new(HashMap::new())).collect(),
            dist: DistributionInfo::new(n_sites),
            cfg: EngineConfig::default(),
        }
    }

    /// Adopt the engine configuration [`Cluster::execute`] runs under
    /// (and whose evaluation options [`Cluster::execute_centralized`]
    /// uses).
    pub fn configure(&mut self, cfg: &EngineConfig) -> &mut Cluster {
        self.cfg = cfg.clone();
        self
    }

    /// Register a partitioned fact relation: one fragment (with its φ
    /// description) per site, in site order. Re-registering a table
    /// replaces its partitions (a partition swap).
    ///
    /// # Panics
    /// Panics if the fragment count differs from the cluster size or the
    /// fragments disagree on schema.
    pub fn add_table<P: Into<(Relation, DomainMap)>>(
        &mut self,
        table: impl Into<String>,
        parts: Vec<P>,
    ) -> &mut Cluster {
        let table = table.into();
        assert_eq!(
            parts.len(),
            self.sites.len(),
            "one fragment per site required"
        );
        let mut domains = Vec::with_capacity(parts.len());
        let mut schema: Option<Schema> = None;
        for (site, p) in parts.into_iter().enumerate() {
            let (rel, dom) = p.into();
            match &schema {
                None => schema = Some(rel.schema().clone()),
                Some(s) => assert_eq!(s, rel.schema(), "fragment schemas must agree across sites"),
            }
            domains.push(dom);
            Arc::make_mut(&mut self.sites[site]).insert(table.clone(), Arc::new(rel));
        }
        self.dist.set_table(table, domains);
        self
    }

    /// Build a cluster directly from one table's partitions (the common
    /// single-fact-table case).
    pub fn from_partitions<P: Into<(Relation, DomainMap)>>(
        table: impl Into<String>,
        parts: Vec<P>,
    ) -> Cluster {
        let mut c = Cluster::new(parts.len());
        c.add_table(table, parts);
        c
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// The coordinator's distribution knowledge (feed this to
    /// [`crate::plan::Planner::new`]).
    pub fn distribution(&self) -> DistributionInfo {
        self.dist.clone()
    }

    /// One site's catalog (for tests and for plan validation).
    pub fn site_catalog(&self, site: usize) -> &HashMap<String, Arc<Relation>> {
        &self.sites[site]
    }

    /// One site's catalog as a shared handle (what site threads and the
    /// [`crate::Warehouse::catalog`] surface hold — no map clone).
    pub fn site_catalog_shared(&self, site: usize) -> Arc<HashMap<String, Arc<Relation>>> {
        Arc::clone(&self.sites[site])
    }

    /// The union of all fragments of every table — the conceptual global
    /// fact relations (test oracle input).
    #[expect(
        clippy::expect_used,
        reason = "`add_table` asserts that a table's fragments share one schema"
    )]
    #[expect(
        clippy::iter_over_hash_type,
        reason = "the output is a map, and each table's fragments union in site order"
    )]
    pub fn global_catalog(&self) -> HashMap<String, Relation> {
        let mut out: HashMap<String, Relation> = HashMap::new();
        for site in &self.sites {
            for (name, rel) in site.as_ref() {
                match out.get_mut(name) {
                    None => {
                        out.insert(name.clone(), rel.as_ref().clone());
                    }
                    Some(acc) => {
                        *acc = acc
                            .union_all(rel)
                            .expect("fragment schemas agree by construction");
                    }
                }
            }
        }
        out
    }

    /// Execute a distributed plan on a one-shot local [`Skalla`] engine
    /// over these partitions: stand it up, run the plan, release it. A
    /// one-shot engine has nothing to reuse, so the semantic cache stays
    /// off whatever the configuration says.
    pub fn execute(&self, plan: &DistributedPlan) -> Result<QueryResult> {
        let mut cfg = self.cfg.clone();
        cfg.cache_bytes = 0;
        Skalla::start_local(self, cfg, None)?.execute(plan)
    }

    /// The ship-everything baseline: gather every referenced fragment at
    /// the coordinator (accounting the detail bytes the Skalla design
    /// never ships) and evaluate centrally.
    #[expect(
        clippy::disallowed_methods,
        reason = "the baseline runs at the coordinator alone: its times are wall times"
    )]
    pub fn execute_centralized(&self, expr: &GmdjExpr) -> Result<QueryResult> {
        let n = self.n_sites();
        let wall_start = Instant::now();
        let mut tables: Vec<String> = expr.ops.iter().map(|o| o.detail.clone()).collect();
        if let Some(t) = expr.base.table() {
            tables.push(t.to_string());
        }
        tables.sort();
        tables.dedup();

        let stats = NetStats::new(n);
        stats.begin_round("ship detail");
        let mut gather = StageTimes {
            label: "ship detail".to_string(),
            site_busy_s: vec![0.0; n],
            ..StageTimes::default()
        };
        let mut catalog: HashMap<String, Relation> = HashMap::new();
        let t0 = Instant::now();
        for table in &tables {
            for (site, data) in self.sites.iter().enumerate() {
                let frag = data
                    .get(table)
                    .ok_or_else(|| Error::Plan(format!("unknown table {table:?}")))?;
                stats.record(site, Direction::Up, frag.encoded_size() as u64);
                gather.rows_up += frag.len() as u64;
                match catalog.get_mut(table) {
                    None => {
                        catalog.insert(table.clone(), frag.as_ref().clone());
                    }
                    Some(acc) => *acc = acc.union_all(frag)?,
                }
            }
        }
        gather.coord_s = t0.elapsed().as_secs_f64();

        let mut evaluate = StageTimes {
            label: "evaluate".to_string(),
            site_busy_s: vec![0.0; n],
            ..StageTimes::default()
        };
        let t1 = Instant::now();
        let relation = expr.eval_centralized(&catalog, self.cfg.eval)?;
        evaluate.coord_s = t1.elapsed().as_secs_f64();

        Ok(QueryResult {
            relation,
            stats: ExecStats {
                stages: vec![gather, evaluate],
                net: finished_rounds(&stats),
                wall_s: wall_start.elapsed().as_secs_f64(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OptFlags, Planner};
    use skalla_gmdj::prelude::*;
    use skalla_obs::{Obs, Track};
    use skalla_relation::{row, DataType, Domain};

    /// Two sites partitioned on g: site 0 has g ∈ {1, 2}, site 1 has g = 3.
    fn cluster() -> Cluster {
        let schema = Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]);
        let p0 = Relation::new(
            schema.clone(),
            vec![row![1i64, 10i64], row![1i64, 30i64], row![2i64, 5i64]],
        )
        .unwrap();
        let p1 = Relation::new(schema, vec![row![3i64, 7i64], row![3i64, 9i64]]).unwrap();
        Cluster::from_partitions(
            "t",
            vec![
                (p0, DomainMap::new().with("g", Domain::IntRange(1, 2))),
                (p1, DomainMap::new().with("g", Domain::IntRange(3, 3))),
            ],
        )
    }

    fn expr() -> GmdjExpr {
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

    fn expected() -> Vec<Row> {
        vec![
            row![1i64, 2i64, 20.0, 1i64],
            row![2i64, 1i64, 5.0, 1i64],
            row![3i64, 2i64, 8.0, 1i64],
        ]
    }

    #[test]
    fn unoptimized_execution_matches_oracle() {
        let c = cluster();
        let plan = Planner::new(c.distribution()).optimize(&expr(), OptFlags::none());
        assert_eq!(plan.n_rounds(), 3);
        let out = c.execute(&plan).unwrap();
        let sorted = out.relation.sorted_by(&["g"]).unwrap();
        assert_eq!(sorted.rows(), expected().as_slice());
        // Oracle agreement.
        let oracle = expr()
            .eval_centralized(&c.global_catalog(), EvalOptions::default())
            .unwrap();
        assert!(out.relation.same_bag(&oracle));
        // Stats shape.
        assert_eq!(out.stats.n_rounds(), 3);
        assert!(out.stats.total_bytes() > 0);
        let (down, up) = out.stats.total_rows();
        assert!(down > 0 && up > 0);
    }

    #[test]
    fn every_optimization_combination_is_equivalent() {
        let c = cluster();
        let oracle = expr()
            .eval_centralized(&c.global_catalog(), EvalOptions::default())
            .unwrap();
        for bits in 0..16u32 {
            let flags = OptFlags {
                coalesce: bits & 1 != 0,
                group_reduction_site: bits & 2 != 0,
                group_reduction_coord: bits & 4 != 0,
                sync_reduction: bits & 8 != 0,
            };
            let plan = Planner::new(c.distribution()).optimize(&expr(), flags);
            let out = c
                .execute(&plan)
                .unwrap_or_else(|e| panic!("flags {flags:?} failed: {e}\n{}", plan.explain()));
            assert!(
                out.relation.same_bag(&oracle),
                "flags {flags:?} wrong result\n{}",
                plan.explain()
            );
        }
    }

    #[test]
    fn full_sync_reduction_runs_one_round_and_less_traffic() {
        let c = cluster();
        let planner = Planner::new(c.distribution());
        let slow = c
            .execute(&planner.optimize(&expr(), OptFlags::none()))
            .unwrap();
        let fast_plan = planner.optimize(&expr(), OptFlags::all());
        assert_eq!(fast_plan.n_rounds(), 1, "{}", fast_plan.explain());
        let fast = c.execute(&fast_plan).unwrap();
        assert!(fast.relation.same_bag(&slow.relation));
        assert!(
            fast.stats.total_bytes() < slow.stats.total_bytes(),
            "optimized {} vs unoptimized {}",
            fast.stats.total_bytes(),
            slow.stats.total_bytes()
        );
    }

    #[test]
    fn group_reduction_reduces_shipped_rows() {
        let c = cluster();
        let planner = Planner::new(c.distribution());
        let none = c
            .execute(&planner.optimize(&expr(), OptFlags::none()))
            .unwrap();
        let gr = c
            .execute(&planner.optimize(&expr(), OptFlags::group_reduction_only()))
            .unwrap();
        assert!(gr.relation.same_bag(&none.relation));
        let (d0, u0) = none.stats.total_rows();
        let (d1, u1) = gr.stats.total_rows();
        assert!(d1 < d0, "coordinator-side reduction: {d1} < {d0}");
        assert!(u1 <= u0, "site-side reduction: {u1} <= {u0}");
    }

    #[test]
    fn centralized_baseline_matches_and_ships_detail() {
        let c = cluster();
        let base = c.execute_centralized(&expr()).unwrap();
        let plan = Planner::new(c.distribution()).optimize(&expr(), OptFlags::none());
        let dist = c.execute(&plan).unwrap();
        assert!(base.relation.same_bag(&dist.relation));
        // The baseline ships all 5 detail rows.
        let (_, up) = base.stats.total_rows();
        assert_eq!(up, 5);
    }

    #[test]
    fn literal_base_execution() {
        let c = cluster();
        let groups = Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            vec![row![1i64], row![99i64]],
        )
        .unwrap();
        let e = GmdjExprBuilder::literal_base(groups)
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("cnt")],
            ))
            .build();
        let plan = Planner::new(c.distribution()).optimize(&e, OptFlags::none());
        let out = c.execute(&plan).unwrap();
        let sorted = out.relation.sorted_by(&["g"]).unwrap();
        assert_eq!(sorted.rows()[0], row![1i64, 2i64]);
        assert_eq!(sorted.rows()[1], row![99i64, 0i64]);
    }

    #[test]
    fn site_error_propagates() {
        // A plan referencing a missing table fails validation up front.
        let c = cluster();
        let e = GmdjExprBuilder::distinct_base("missing", &["g"])
            .gmdj(Gmdj::new("missing").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("cnt")],
            ))
            .build();
        let plan = Planner::new(c.distribution()).optimize(&e, OptFlags::none());
        assert!(c.execute(&plan).is_err());
    }

    #[test]
    fn execution_records_full_span_tree() {
        let mut c = cluster();
        let obs = Obs::recording();
        c.configure(&EngineConfig {
            obs: obs.clone(),
            ..EngineConfig::default()
        });
        let plan = Planner::new(c.distribution())
            .with_obs(obs.clone())
            .optimize(&expr(), OptFlags::none());
        c.execute(&plan).unwrap();

        let rec = obs.recorder().unwrap();
        let spans = rec.spans();
        // Every span closed.
        assert!(spans.iter().all(|s| s.dur_us.is_some()));
        // Query root on the query's own track (a one-shot engine's only
        // query is number 1), stages nested beneath it.
        let query = spans
            .iter()
            .find(|s| s.name == "query")
            .expect("query span");
        assert_eq!(query.track, Track::Query(1));
        for label in ["base", "gmdj 1", "gmdj 2"] {
            let st = spans
                .iter()
                .find(|s| s.name == label && s.track == Track::Query(1))
                .unwrap_or_else(|| panic!("missing stage span {label}"));
            assert_eq!(st.parent, Some(query.id));
        }
        // Sync spans nest under their stages.
        assert!(spans.iter().any(|s| s.name == "BaseSync"));
        assert_eq!(spans.iter().filter(|s| s.name == "MergeSync").count(), 2);
        assert_eq!(spans.iter().filter(|s| s.name == "ship base").count(), 2);
        // Each site ran each of the three stages.
        for site in 0..2 {
            assert_eq!(
                spans
                    .iter()
                    .filter(|s| s.track == Track::SiteQuery(site, 1))
                    .count(),
                3,
                "site {site} task spans"
            );
        }
        // The transport recorded message events and byte counters.
        let events = rec.events();
        assert!(events.iter().any(|e| e.name == "msg down"));
        assert!(events.iter().any(|e| e.name == "msg up"));
        assert!(rec.counters().contains_key("net.bytes_down"));
    }

    #[test]
    fn group_reduction_emits_elimination_events() {
        let mut c = cluster();
        let obs = Obs::recording();
        c.configure(&EngineConfig {
            obs: obs.clone(),
            ..EngineConfig::default()
        });
        // Restrict to g <= 2: site 1 (g = 3) is skipped under Thm 4.
        let e = GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(
                Gmdj::new("t").block(
                    ThetaBuilder::group_by(&["g"])
                        .and(Expr::dcol("g").le(Expr::lit(2i64)))
                        .build(),
                    vec![AggSpec::count("cnt")],
                ),
            )
            .build();
        let plan = Planner::new(c.distribution()).optimize(
            &e,
            OptFlags {
                group_reduction_coord: true,
                ..OptFlags::none()
            },
        );
        c.execute(&plan).unwrap();
        let events = obs.recorder().unwrap().events();
        let skip = events
            .iter()
            .find(|e| e.name == "group reduction skip")
            .expect("skip event");
        assert!(skip
            .args
            .iter()
            .any(|(k, v)| *k == "rows_eliminated" && *v == skalla_obs::ArgValue::UInt(3)));
        assert!(events.iter().any(|e| e.name == "group reduction filter"));
    }

    #[test]
    fn global_catalog_unions_fragments() {
        let c = cluster();
        let g = c.global_catalog();
        assert_eq!(g["t"].len(), 5);
    }
}
