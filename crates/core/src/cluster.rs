//! Warehouse assembly, the coordinator algorithm, and the centralized
//! reference.
//!
//! A [`Cluster`] holds the partitioned fact relations of the warehouse
//! sites and the φ knowledge describing them. It is what tests, benches
//! and the [`crate::SkallaBuilder`] assemble tables with, and it carries
//! the ship-everything centralized baseline that Skalla's design avoids
//! ([`Cluster::execute_centralized`], the oracle the distributed runs
//! are checked against). Its [`Cluster::execute`] is a one-shot
//! [`crate::Skalla`] engine over the same partitions.
//!
//! The crate-private `run_coordinator` below drives Alg. GMDJDistribEval
//! over a [`DistributedPlan`] for the engine: per stage, ship the base
//! structure down, let the sites compute, synchronize the sub-results,
//! finalize.

use crate::coordinator::{
    empty_aggregates, parallel_merge_tree, BaseSync, ChainSync, MergeSync, PartialMerge,
};
use crate::distribution::DistributionInfo;
use crate::plan::{DistributedPlan, SiteFilter, StageKind};
use crate::protocol;
use crate::skew::{plan_routing, skew_eligible, Assignment, ExtractSpec, HotReport, SkewPlan};
use crate::stats::{ExecStats, QueryResult, StageTimes};
use crate::warehouse::{EngineConfig, Skalla};
use skalla_gmdj::eval::EvalOptions;
use skalla_gmdj::{BaseQuery, GmdjExpr};
use skalla_net::{CoordinatorTransport, Direction, NetStats};
use skalla_obs::{Obs, Track};
use skalla_relation::{DomainMap, Error, Relation, Result, Row, Schema, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A distributed data warehouse's data: `n` sites, each holding a
/// horizontal fragment of every fact relation, plus the φ knowledge the
/// planner needs.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Per-site catalogs, `Arc`-shared so an engine's site threads and
    /// the [`crate::Warehouse::catalog`] surface borrow the same
    /// metadata instead of cloning maps (copy-on-write under mutation).
    sites: Vec<Arc<HashMap<String, Arc<Relation>>>>,
    /// Partition epoch: bumped on every catalog mutation
    /// ([`Cluster::add_table`]), shared across clones so any handle
    /// observes every swap. The semantic cache keys on it.
    epoch: Arc<AtomicU64>,
    dist: DistributionInfo,
    cfg: EngineConfig,
}

impl Cluster {
    /// An empty cluster of `n_sites` sites.
    pub fn new(n_sites: usize) -> Cluster {
        assert!(n_sites > 0, "a cluster needs at least one site");
        Cluster {
            sites: (0..n_sites).map(|_| Arc::new(HashMap::new())).collect(),
            epoch: Arc::new(AtomicU64::new(0)),
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
    /// replaces its partitions (a partition swap) and, like every
    /// catalog mutation, bumps the partition epoch.
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
        self.epoch.fetch_add(1, AtomicOrdering::SeqCst);
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

    /// The partition epoch: the count of catalog mutations this cluster
    /// (or any clone sharing its lineage) has seen. Cache keys carry it
    /// so a partition swap makes every dependent entry unreachable.
    pub fn partition_epoch(&self) -> u64 {
        self.epoch.load(AtomicOrdering::SeqCst)
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
    pub fn global_catalog(&self) -> HashMap<String, Relation> {
        let mut out: HashMap<String, Relation> = HashMap::new();
        for site in &self.sites {
            for (name, rel) in site.iter() {
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
        cfg.eval.cache = false;
        Skalla::start_local(self, cfg)?.execute(plan)
    }

    /// The ship-everything baseline: gather every referenced fragment at
    /// the coordinator (accounting the detail bytes the Skalla design
    /// never ships) and evaluate centrally.
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

/// Drive Alg. GMDJDistribEval over a coordinator transport: per stage,
/// ship the base structure down, collect sub-results, synchronize. The
/// [`Skalla`] engine calls this once per executing query, whichever
/// backend carries the bytes, so the protocol logic cannot diverge
/// between transports.
///
/// Coordinator-side spans land on the query's own
/// [`Track::Query`]`(query_id)` timeline — span nesting is per-track, so
/// it stays correct when queries interleave — and carry a `query_id`
/// attribute.
///
/// `resume` seeds execution from a cached prefix snapshot: `(j, b)`
/// adopts `b` as the synchronized base structure after stage `j` and
/// skips stages `0..=j` entirely — no site is contacted for them, but
/// each still contributes an empty round (and a zero
/// [`StageTimes`] entry) so round indices, traffic series, and the
/// busy-time merge stay aligned with the plan. Sites evaluate each
/// stage statelessly from the shipped fragment, so the resumed suffix
/// is bit-identical to a cold run. Skipping the base stage also skips
/// heavy-hitter collection, leaving the skew routing trivial — which
/// is result-safe because balanced and unbalanced runs are
/// bit-identical by construction.
///
/// `snapshots`, when present, receives `(j, b)` for every non-final
/// stage the coordinator actually synchronized — the prefix snapshots
/// the semantic cache stores for later resumes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_coordinator(
    coord: &dyn CoordinatorTransport,
    plan: &DistributedPlan,
    schemas: &[Schema],
    detail_schemas: &HashMap<String, Schema>,
    eval: &EvalOptions,
    timeout: Duration,
    obs: &Obs,
    query_id: u32,
    resume: Option<(usize, Relation)>,
    mut snapshots: Option<&mut Vec<(usize, Relation)>>,
) -> Result<(Relation, Vec<StageTimes>)> {
    let track = Track::Query(query_id);
    let n = coord.n_sites();
    let (resume_after, mut b_cur) = match resume {
        Some((j, rel)) => (Some(j), Some(rel)),
        None => (
            None,
            match &plan.expr.base {
                BaseQuery::Literal(rel) => Some(rel.clone()),
                BaseQuery::DistinctProject { .. } => None,
            },
        ),
    };
    let mut stage_times = Vec::with_capacity(plan.stages.len());
    // Skew balancing: when the knob is on and the plan is eligible, the
    // sites append heavy-hitter reports to the base round, from which the
    // routing is decided once and applied to every eligible stage.
    let skew_spec = if eval.skew_balance {
        skew_eligible(plan)
    } else {
        None
    };
    let mut skew_plan = SkewPlan::default();

    for (sidx, stage) in plan.stages.iter().enumerate() {
        if resume_after.is_some_and(|j| sidx <= j) {
            // Answered by the resume snapshot: keep the round series and
            // stage/stat alignment with an empty round, ship nothing.
            coord.stats().begin_round(stage.label.clone());
            stage_times.push(StageTimes {
                label: stage.label.clone(),
                site_busy_s: vec![0.0; n],
                ..StageTimes::default()
            });
            continue;
        }
        coord.stats().begin_round(stage.label.clone());
        let mut stage_span = obs
            .span(track, stage.label.as_str())
            .with("query_id", query_id as u64);
        let mut st = StageTimes {
            label: stage.label.clone(),
            site_busy_s: vec![0.0; n],
            ..StageTimes::default()
        };

        match &stage.kind {
            StageKind::Base => {
                coord
                    .broadcast(&protocol::run_stage(sidx as u32, None))
                    .map_err(net_err)?;
                let mut sync_span = obs.span(track, "BaseSync");
                let mut sync = BaseSync::new();
                if skew_spec.is_some() {
                    let mut reports: Vec<HotReport> = vec![HotReport::default(); n];
                    st.coord_s += collect_with_reports(
                        coord,
                        timeout,
                        n,
                        sidx as u32,
                        &mut reports,
                        |_, rel| {
                            st.rows_up += rel.len() as u64;
                            sync.absorb(rel)
                        },
                    )?;
                    let t = Instant::now();
                    skew_plan = plan_routing(&reports);
                    if obs.is_recording() && !skew_plan.is_trivial() {
                        obs.counter_add("skew.donors", skew_plan.n_donors() as f64);
                        obs.counter_add("skew.hot_keys", skew_plan.n_hot_keys() as f64);
                    }
                    st.coord_s += t.elapsed().as_secs_f64();
                } else {
                    st.coord_s += collect(coord, timeout, n, sidx as u32, |_, rel| {
                        st.rows_up += rel.len() as u64;
                        sync.absorb(rel)
                    })?;
                }
                let t = Instant::now();
                b_cur = Some(sync.finish(&plan.key)?);
                st.coord_s += t.elapsed().as_secs_f64();
                sync_span.arg("rows_up", st.rows_up);
                sync_span.arg("groups", b_cur.as_ref().map(|b| b.len()).unwrap_or(0));
                sync_span.finish();
            }
            StageKind::Unit(unit) => {
                // 1. Ship base fragments to participating sites. On a
                // skew-balanced stage, a donor's hot-group base rows are
                // held back for helpers and the donor is asked to loan
                // the matching detail segments out.
                let t = Instant::now();
                let mut ship_span = obs.span(track, "ship base");
                let mut participants = 0usize;
                let balancing = skew_spec
                    .as_ref()
                    .filter(|s| s.stages.contains(&sidx) && !skew_plan.is_trivial());
                let mut donors: HashMap<usize, DonorState> = HashMap::new();
                let shared_fragment: Option<Relation> = if unit.fold_base {
                    None
                } else {
                    let b = b_cur.as_ref().ok_or_else(|| {
                        Error::Execution("unit stage with no base structure".into())
                    })?;
                    Some(project_ship(b, &unit.ship_columns)?)
                };
                for site in 0..n {
                    let mut fragment = match &unit.site_filters[site] {
                        SiteFilter::Skip => {
                            // Thm 4, S_MD ⊂ S_B case: the whole fragment
                            // is eliminated for this site.
                            if obs.is_recording() {
                                let rows = b_cur.as_ref().map(|b| b.len()).unwrap_or(0);
                                obs.event(
                                    track,
                                    "group reduction skip",
                                    vec![("site", site.into()), ("rows_eliminated", rows.into())],
                                );
                            }
                            continue;
                        }
                        SiteFilter::All => shared_fragment.clone(),
                        SiteFilter::Predicate(p) => {
                            let b = b_cur.as_ref().expect("checked above");
                            let bound = p.bind(b.schema(), None)?;
                            let kept = b.select(&bound)?;
                            // Thm 4: rows eliminated by the ¬ψ filter.
                            if obs.is_recording() {
                                obs.event(
                                    track,
                                    "group reduction filter",
                                    vec![
                                        ("site", site.into()),
                                        ("rows_before", b.len().into()),
                                        ("rows_after", kept.len().into()),
                                        ("rows_eliminated", (b.len() - kept.len()).into()),
                                    ],
                                );
                            }
                            Some(project_ship(&kept, &unit.ship_columns)?)
                        }
                    };
                    participants += 1;
                    let mut extract = None;
                    if let Some(spec) = balancing {
                        if !skew_plan.assignments[site].is_empty() {
                            if let Some(f) = fragment.take() {
                                match split_donor_fragment(
                                    &f,
                                    &plan.key,
                                    &skew_plan.assignments[site],
                                    &spec.detail_cols,
                                )? {
                                    Some((cold, ex, state)) => {
                                        fragment = Some(cold);
                                        extract = Some(ex);
                                        donors.insert(site, state);
                                    }
                                    None => fragment = Some(f),
                                }
                            }
                        }
                    }
                    if let Some(f) = &fragment {
                        st.rows_down += f.len() as u64;
                    }
                    coord
                        .send(
                            site,
                            protocol::run_stage_with_extract(
                                sidx as u32,
                                fragment.as_ref(),
                                extract.as_ref(),
                            ),
                        )
                        .map_err(net_err)?;
                }
                st.coord_s += t.elapsed().as_secs_f64();
                ship_span.arg("rows_down", st.rows_down);
                ship_span.arg("participants", participants);
                ship_span.arg("fold_base", unit.fold_base);
                ship_span.finish();

                // 2. Synchronize sub-results.
                let ops = &plan.expr.ops[unit.ops.clone()];
                let b_in_schema = &schemas[unit.ops.start];
                let out_schema = schemas[unit.ops.end].clone();
                if unit.local_chain {
                    let mut sync_span = obs.span(track, "ChainSync");
                    let mut sync = ChainSync::new(plan.key.len());
                    st.coord_s += collect(coord, timeout, participants, sidx as u32, |_, rel| {
                        st.rows_up += rel.len() as u64;
                        sync.absorb(&rel)
                    })?;
                    let t = Instant::now();
                    b_cur = Some(if unit.fold_base {
                        sync.finish_folded(out_schema)?
                    } else {
                        let empty = empty_aggregates(ops)?;
                        let b = b_cur.take().expect("checked above");
                        sync.finish_against(&b, &plan.key, &empty, out_schema)?
                    });
                    st.coord_s += t.elapsed().as_secs_f64();
                    sync_span.arg("rows_up", st.rows_up);
                    sync_span.finish();
                } else {
                    let mut sync_span = obs.span(track, "MergeSync");
                    let op = &ops[0];
                    let mut sync = MergeSync::new(
                        if unit.fold_base { None } else { b_cur.as_ref() },
                        &plan.key,
                        op,
                    )?;
                    // Gather each site's chunks, coalesce them into one
                    // relation per site (chunks of one site hold disjoint
                    // keys, so this is a bitwise pass-through; a donor's
                    // coalesce also folds in the loan reconstruction),
                    // then merge across sites as a parallel binary tree
                    // whose shape depends only on the participant set —
                    // the same either way, which keeps balanced and
                    // unbalanced runs bit-identical.
                    let mut chunks_per_site: Vec<Vec<Relation>> = vec![Vec::new(); n];
                    if donors.is_empty() {
                        st.coord_s +=
                            collect(coord, timeout, participants, sidx as u32, |site, rel| {
                                st.rows_up += rel.len() as u64;
                                chunks_per_site[site].push(rel);
                                Ok(())
                            })?;
                    } else {
                        let spec = balancing.expect("donors imply an active skew spec");
                        st.coord_s += collect_balanced(
                            coord,
                            timeout,
                            participants,
                            sidx as u32,
                            &spec.detail_cols,
                            &mut donors,
                            &mut chunks_per_site,
                            &mut st,
                            obs,
                        )?;
                    }
                    let t = Instant::now();
                    let mut n_chunks = 0usize;
                    let mut per_site: Vec<Relation> = Vec::with_capacity(n);
                    for (site, site_chunks) in chunks_per_site.iter_mut().enumerate() {
                        let chunks = std::mem::take(site_chunks);
                        n_chunks += chunks.len();
                        let mut loan: Vec<(u32, usize, Relation)> = donors
                            .get_mut(&site)
                            .map(|d| std::mem::take(&mut d.results))
                            .unwrap_or_default();
                        if chunks.is_empty() && loan.is_empty() {
                            continue;
                        }
                        if chunks.len() == 1 && loan.is_empty() {
                            per_site.push(chunks.into_iter().next().expect("len checked"));
                            continue;
                        }
                        let schema = chunks
                            .first()
                            .map(|c| c.schema_ref())
                            .or_else(|| loan.first().map(|(_, _, r)| r.schema_ref()))
                            .expect("non-empty checked");
                        let mut pm = PartialMerge::new(plan.key.len(), op);
                        for c in &chunks {
                            pm.absorb(c)?;
                        }
                        // Loan sub-aggregates merge in (segment, helper)
                        // order — the donor's morsel order — so each hot
                        // key's state folds exactly as the donor would
                        // have folded it locally.
                        loan.sort_by_key(|&(seg, helper, _)| (seg, helper));
                        for (_, _, rel) in &loan {
                            pm.absorb(rel)?;
                        }
                        per_site.push(pm.into_relation(schema));
                    }
                    let merged = parallel_merge_tree(
                        per_site,
                        plan.key.len(),
                        op,
                        eval.effective_parallelism(),
                    )?;
                    if let Some(m) = &merged {
                        sync.absorb(m)?;
                    }
                    let detail = detail_schemas
                        .get(&unit.table)
                        .ok_or_else(|| Error::Plan(format!("unknown table {:?}", unit.table)))?;
                    b_cur = Some(sync.finish(b_in_schema, op, detail)?);
                    st.coord_s += t.elapsed().as_secs_f64();
                    sync_span.arg("rows_up", st.rows_up);
                    sync_span.arg("chunks", n_chunks);
                    sync_span.finish();
                }
            }
        }
        stage_span.arg("rows_down", st.rows_down);
        stage_span.arg("rows_up", st.rows_up);
        stage_span.finish();
        stage_times.push(st);
        if sidx + 1 < plan.stages.len() {
            if let (Some(snaps), Some(b)) = (snapshots.as_deref_mut(), b_cur.as_ref()) {
                snaps.push((sidx, b.clone()));
            }
        }
    }

    let relation = b_cur.ok_or_else(|| Error::Execution("plan produced no result".into()))?;
    Ok((relation, stage_times))
}

/// Receive stage results from `expected` sites (each possibly split
/// into row-blocked chunks), feeding every chunk into `absorb` (with
/// the reporting site's id) as it arrives; returns coordinator busy
/// seconds (decode + absorb, excluding waits).
pub(crate) fn collect(
    coord: &dyn CoordinatorTransport,
    timeout: Duration,
    expected: usize,
    stage: u32,
    mut absorb: impl FnMut(usize, Relation) -> Result<()>,
) -> Result<f64> {
    let mut busy = 0.0;
    let mut finished = 0usize;
    while finished < expected {
        let (site, msg) = coord.recv(timeout).map_err(net_err)?;
        let t = Instant::now();
        match msg.tag {
            protocol::TAG_RESULT => {
                let (s, last, rel) = protocol::decode_result(&msg.payload)?;
                if s != stage {
                    return Err(Error::Execution(format!(
                        "result for stage {s} while synchronizing stage {stage}"
                    )));
                }
                if last {
                    finished += 1;
                }
                absorb(site, rel)?;
            }
            protocol::TAG_ERROR => {
                return Err(Error::Execution(format!(
                    "site failed: {}",
                    protocol::decode_error(&msg.payload)
                )));
            }
            t => {
                return Err(Error::Execution(format!(
                    "unexpected message tag {t} from site"
                )))
            }
        }
        busy += t.elapsed().as_secs_f64();
    }
    Ok(busy)
}

/// [`collect`] for a skew-monitored base round: additionally gathers one
/// heavy-hitter report per site, returning once every site has sent both
/// its final result chunk and its report.
fn collect_with_reports(
    coord: &dyn CoordinatorTransport,
    timeout: Duration,
    expected: usize,
    stage: u32,
    reports: &mut [HotReport],
    mut absorb: impl FnMut(usize, Relation) -> Result<()>,
) -> Result<f64> {
    let mut busy = 0.0;
    let mut finished = 0usize;
    let mut reported = 0usize;
    while finished < expected || reported < expected {
        let (site, msg) = coord.recv(timeout).map_err(net_err)?;
        let t = Instant::now();
        match msg.tag {
            protocol::TAG_RESULT => {
                let (s, last, rel) = protocol::decode_result(&msg.payload)?;
                if s != stage {
                    return Err(Error::Execution(format!(
                        "result for stage {s} while synchronizing stage {stage}"
                    )));
                }
                if last {
                    finished += 1;
                }
                absorb(site, rel)?;
            }
            protocol::TAG_HH_REPORT => {
                let (s, report) = protocol::decode_hh_report(&msg.payload)?;
                if s != stage {
                    return Err(Error::Execution(format!(
                        "heavy-hitter report for stage {s} during stage {stage}"
                    )));
                }
                reports[site] = report;
                reported += 1;
            }
            protocol::TAG_ERROR => {
                return Err(Error::Execution(format!(
                    "site failed: {}",
                    protocol::decode_error(&msg.payload)
                )));
            }
            t => {
                return Err(Error::Execution(format!(
                    "unexpected message tag {t} from site"
                )))
            }
        }
        busy += t.elapsed().as_secs_f64();
    }
    Ok(busy)
}

/// Coordinator-side context for one donor site on one rebalanced stage.
struct DonorState {
    /// Hot key → the helper sites taking it over.
    helpers: HashMap<Vec<Value>, Vec<usize>>,
    /// The base rows removed from the donor's fragment, in fragment
    /// order, with their keys.
    base_rows: Vec<(Vec<Value>, Row)>,
    /// The shipped fragment's schema (the base relation of loan tasks).
    schema: skalla_relation::SchemaRef,
    /// `(segment, helper, sub-aggregates)` triples received back.
    results: Vec<(u32, usize, Relation)>,
}

/// Split a donor's base fragment into the cold tail it evaluates itself
/// and the hot-group rows held back for helpers. Returns `None` when no
/// assigned hot key is actually present in the fragment (group reduction
/// may have filtered them out), in which case the stage runs unbalanced
/// for this site.
fn split_donor_fragment(
    f: &Relation,
    key: &[String],
    assignments: &[Assignment],
    detail_cols: &[String],
) -> Result<Option<(Relation, ExtractSpec, DonorState)>> {
    let mut key_idx = Vec::with_capacity(key.len());
    for k in key {
        key_idx.push(f.schema().index_of(k)?);
    }
    let assigned: HashMap<&Vec<Value>, &Vec<usize>> =
        assignments.iter().map(|a| (&a.key, &a.helpers)).collect();
    let mut cold: Vec<Row> = Vec::with_capacity(f.len());
    let mut base_rows: Vec<(Vec<Value>, Row)> = Vec::new();
    let mut helpers: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    let mut keys: Vec<Vec<Value>> = Vec::new();
    for row in f.iter() {
        let k: Vec<Value> = key_idx.iter().map(|&i| row.get(i).clone()).collect();
        match assigned.get(&k) {
            Some(h) => {
                keys.push(k.clone());
                helpers.insert(k.clone(), (*h).clone());
                base_rows.push((k, row.clone()));
            }
            None => cold.push(row.clone()),
        }
    }
    if keys.is_empty() {
        return Ok(None);
    }
    let cold = Relation::from_shared(f.schema_ref(), cold);
    let spec = ExtractSpec {
        detail_cols: detail_cols.to_vec(),
        keys,
    };
    let state = DonorState {
        helpers,
        base_rows,
        schema: f.schema_ref(),
        results: Vec::new(),
    };
    Ok(Some((cold, spec, state)))
}

/// [`collect`] for a skew-balanced stage: alongside the regular result
/// chunks, receives each donor's loan (dispatching its segments to the
/// assigned helpers as soon as it arrives, so helpers overlap with the
/// still-running sites) and the helpers' per-segment sub-aggregates.
/// Returns once every participant finished, every donor loaned, and
/// every dispatched loan task answered.
#[allow(clippy::too_many_arguments)]
fn collect_balanced(
    coord: &dyn CoordinatorTransport,
    timeout: Duration,
    expected: usize,
    stage: u32,
    detail_cols: &[String],
    donors: &mut HashMap<usize, DonorState>,
    chunks_per_site: &mut [Vec<Relation>],
    st: &mut StageTimes,
    obs: &Obs,
) -> Result<f64> {
    let mut busy = 0.0;
    let mut finished = 0usize;
    let mut loans = 0usize;
    let mut tasks_sent = 0usize;
    let mut results_recv = 0usize;
    while finished < expected || loans < donors.len() || results_recv < tasks_sent {
        let (site, msg) = coord.recv(timeout).map_err(net_err)?;
        let t = Instant::now();
        match msg.tag {
            protocol::TAG_RESULT => {
                let (s, last, rel) = protocol::decode_result(&msg.payload)?;
                if s != stage {
                    return Err(Error::Execution(format!(
                        "result for stage {s} while synchronizing stage {stage}"
                    )));
                }
                if last {
                    finished += 1;
                }
                st.rows_up += rel.len() as u64;
                chunks_per_site[site].push(rel);
            }
            protocol::TAG_LOAN => {
                let (s, segments) = protocol::decode_loan(&msg.payload)?;
                if s != stage {
                    return Err(Error::Execution(format!(
                        "loan for stage {s} during stage {stage}"
                    )));
                }
                loans += 1;
                let state = donors
                    .get_mut(&site)
                    .ok_or_else(|| Error::Execution("loan from a non-donor site".into()))?;
                // Route each segment's rows to its keys' helpers and
                // dispatch one task per helper.
                let mut per_helper: BTreeMap<usize, Vec<(u32, Relation)>> = BTreeMap::new();
                for (seg, rel) in &segments {
                    st.rows_up += rel.len() as u64;
                    let mut idx = Vec::with_capacity(detail_cols.len());
                    for c in detail_cols {
                        idx.push(rel.schema().index_of(c)?);
                    }
                    let mut split: BTreeMap<usize, Vec<Row>> = BTreeMap::new();
                    for row in rel.iter() {
                        let k: Vec<Value> = idx.iter().map(|&i| row.get(i).clone()).collect();
                        let helpers = state.helpers.get(&k).ok_or_else(|| {
                            Error::Execution("loaned row with an unassigned key".into())
                        })?;
                        split
                            .entry(helpers[*seg as usize % helpers.len()])
                            .or_default()
                            .push(row.clone());
                    }
                    for (h, rows) in split {
                        per_helper
                            .entry(h)
                            .or_default()
                            .push((*seg, Relation::from_shared(rel.schema_ref(), rows)));
                    }
                }
                for (helper, segs) in per_helper {
                    let base_rows: Vec<Row> = state
                        .base_rows
                        .iter()
                        .filter(|(k, _)| state.helpers[k].contains(&helper))
                        .map(|(_, r)| r.clone())
                        .collect();
                    let base = Relation::from_shared(Arc::clone(&state.schema), base_rows);
                    st.rows_down += base.len() as u64;
                    for (_, r) in &segs {
                        st.rows_down += r.len() as u64;
                    }
                    if obs.is_recording() {
                        obs.counter_add(
                            "skew.loaned_rows",
                            segs.iter().map(|(_, r)| r.len() as f64).sum(),
                        );
                    }
                    coord
                        .send(helper, protocol::loan_task(stage, site as u32, &base, &segs))
                        .map_err(net_err)?;
                    tasks_sent += 1;
                }
            }
            protocol::TAG_LOAN_RESULT => {
                let (s, donor, segments) = protocol::decode_loan_result(&msg.payload)?;
                if s != stage {
                    return Err(Error::Execution(format!(
                        "loan result for stage {s} during stage {stage}"
                    )));
                }
                results_recv += 1;
                let state = donors
                    .get_mut(&(donor as usize))
                    .ok_or_else(|| Error::Execution("loan result for a non-donor site".into()))?;
                for (seg, rel) in segments {
                    st.rows_up += rel.len() as u64;
                    state.results.push((seg, site, rel));
                }
            }
            protocol::TAG_ERROR => {
                return Err(Error::Execution(format!(
                    "site failed: {}",
                    protocol::decode_error(&msg.payload)
                )));
            }
            t => {
                return Err(Error::Execution(format!(
                    "unexpected message tag {t} from site"
                )))
            }
        }
        busy += t.elapsed().as_secs_f64();
    }
    Ok(busy)
}

/// Project the base structure to the shipped columns.
fn project_ship(b: &Relation, ship_columns: &[String]) -> Result<Relation> {
    b.project(&ship_columns.iter().map(String::as_str).collect::<Vec<_>>())
}

pub(crate) fn net_err(e: skalla_net::NetError) -> Error {
    Error::Execution(format!("network: {e}"))
}

/// All traffic rounds, skipping the implicit empty round the accounting
/// opens before the first stage.
pub(crate) fn finished_rounds(stats: &NetStats) -> Vec<skalla_net::RoundStats> {
    let rounds = stats.rounds();
    debug_assert!(
        rounds
            .first()
            .map(|r| r.totals().total_bytes() == 0)
            .unwrap_or(true),
        "traffic before the first stage"
    );
    rounds.into_iter().skip(1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OptFlags, Planner};
    use skalla_gmdj::prelude::*;
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
