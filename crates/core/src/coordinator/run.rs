//! Alg. GMDJDistribEval, coordinator side: the stage loop the
//! [`Skalla`](crate::Skalla) engine runs once per executing query, and
//! the one receive loop every stage round goes through.

use super::{empty_aggregates, parallel_merge_tree, BaseSync, ChainSync, MergeSync, PartialMerge};
use crate::plan::{DistributedPlan, SiteFilter, StageKind};
use crate::protocol::{self, Tag};
use crate::skew::{
    plan_routing, skew_eligible, Assignment, ExtractSpec, HotReport, SkewPlan, SkewRequest,
};
use crate::stats::StageTimes;
use crate::warehouse::EngineConfig;
use skalla_gmdj::BaseQuery;
use skalla_net::{CoordinatorTransport, Message, NetStats};
use skalla_obs::{Obs, Track};
use skalla_relation::{Error, Relation, Result, Row, Schema, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Drive Alg. GMDJDistribEval over a coordinator transport: per stage,
/// ship the base structure down, collect sub-results, synchronize. The
/// [`Skalla`](crate::Skalla) engine calls this once per executing query,
/// whichever backend carries the bytes, so the protocol logic cannot
/// diverge between transports.
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
/// Of `cfg`, the coordinator reads the round timeout, the obs handle,
/// the merge parallelism and whether to balance
/// ([`EngineConfig::skew_balance`]).
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
    cfg: &EngineConfig,
    query_id: u32,
    resume: Option<(usize, Relation)>,
    mut snapshots: Option<&mut Vec<(usize, Relation)>>,
) -> Result<(Relation, Vec<StageTimes>)> {
    let (timeout, obs) = (cfg.timeout, &cfg.obs);
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
    // Skew balancing: when it is on and the plan is eligible, the base
    // round asks every site for a heavy-hitter report, from which the
    // routing is decided once and applied to every eligible stage.
    let skew_spec = cfg.skew_balance.then(|| skew_eligible(plan)).flatten();
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
        let stage_no = sidx as u32;
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
                // Each site owes a heavy-hitter report exactly when this
                // frame asks it for one.
                let ask = skew_spec.clone().map(SkewRequest::Report);
                let owed = if ask.is_some() { n } else { 0 };
                coord
                    .broadcast(&protocol::run_stage_with(stage_no, None, ask.as_ref()))
                    .map_err(net_err)?;
                let mut sync_span = obs.span(track, "BaseSync");
                let mut sync = BaseSync::new();
                let mut reports: Vec<Option<HotReport>> = vec![None; n];
                let on_report = |site: usize, msg: Message| {
                    if msg.tag != protocol::TAG_HH_REPORT {
                        return Err(unexpected_tag(msg.tag));
                    }
                    let (s, report) = protocol::decode_hh_report(&msg.payload)?;
                    check_stage("heavy-hitter report", s, stage_no)?;
                    if reports[site].replace(report).is_some() {
                        return Err(Error::Execution(format!(
                            "site {site} sent a second heavy-hitter report"
                        )));
                    }
                    Ok(0)
                };
                st.coord_s += collect(coord, timeout, n, stage_no, owed, on_report, |_, rel| {
                    st.rows_up += rel.len() as u64;
                    sync.absorb(rel)
                })?;
                let t = wall_now();
                if skew_spec.is_some() {
                    let reports: Vec<HotReport> = reports.into_iter().flatten().collect();
                    skew_plan = plan_routing(&reports);
                    if obs.is_recording() && !skew_plan.is_trivial() {
                        obs.counter_add("skew.donors", skew_plan.n_donors() as f64);
                        obs.counter_add("skew.hot_keys", skew_plan.n_hot_keys() as f64);
                    }
                }
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
                let no_base = || Error::Execution("unit stage with no base structure".into());
                let t = wall_now();
                let mut ship_span = obs.span(track, "ship base");
                let mut participants = 0usize;
                let balancing = skew_spec
                    .as_ref()
                    .filter(|s| s.stages.contains(&sidx) && !skew_plan.is_trivial());
                let mut donors: HashMap<usize, DonorState> = HashMap::new();
                let shared_fragment: Option<Relation> = if unit.fold_base {
                    None
                } else {
                    let b = b_cur.as_ref().ok_or_else(no_base)?;
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
                            let b = b_cur.as_ref().ok_or_else(no_base)?;
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
                    let mut loan_request = None;
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
                                        loan_request = Some(SkewRequest::Extract(ex));
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
                            protocol::run_stage_with(
                                stage_no,
                                fragment.as_ref(),
                                loan_request.as_ref(),
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
                    st.coord_s +=
                        collect(coord, timeout, participants, stage_no, 0, no_extras, |_, rel| {
                            st.rows_up += rel.len() as u64;
                            sync.absorb(&rel)
                        })?;
                    let t = wall_now();
                    b_cur = Some(if unit.fold_base {
                        sync.finish_folded(out_schema)?
                    } else {
                        let empty = empty_aggregates(ops)?;
                        let b = b_cur.take().ok_or_else(no_base)?;
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
                    // unbalanced runs bit-identical. On a balanced stage
                    // each donor also owes its loan, which fans out into
                    // helper tasks (see `loan_frame`).
                    let mut chunks_per_site: Vec<Vec<Relation>> = vec![Vec::new(); n];
                    let detail_cols = balancing.map_or(&[][..], |s| &s.detail_cols[..]);
                    let owed = donors.len();
                    let on_loan = |site: usize, msg: Message| {
                        loan_frame(coord, stage_no, detail_cols, &mut donors, &mut st, obs, site, msg)
                    };
                    let busy = collect(coord, timeout, participants, stage_no, owed, on_loan, |site, rel| {
                        chunks_per_site[site].push(rel);
                        Ok(())
                    })?;
                    st.coord_s += busy;
                    st.rows_up += chunks_per_site
                        .iter()
                        .flatten()
                        .map(|c| c.len() as u64)
                        .sum::<u64>();
                    let t = wall_now();
                    let mut n_chunks = 0usize;
                    let mut per_site: Vec<Relation> = Vec::with_capacity(n);
                    for (site, site_chunks) in chunks_per_site.iter_mut().enumerate() {
                        let chunks = std::mem::take(site_chunks);
                        n_chunks += chunks.len();
                        let mut loan: Vec<(u32, usize, Relation)> = donors
                            .get_mut(&site)
                            .map(|d| std::mem::take(&mut d.results))
                            .unwrap_or_default();
                        if chunks.len() == 1 && loan.is_empty() {
                            per_site.extend(chunks);
                            continue;
                        }
                        // A site that sent no chunk and owes no loan
                        // result contributes nothing.
                        let Some(schema) = chunks
                            .first()
                            .map(|c| c.schema_ref())
                            .or_else(|| loan.first().map(|(_, _, r)| r.schema_ref()))
                        else {
                            continue;
                        };
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
                        cfg.eval.effective_parallelism(),
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

/// The coordinator's clock. `coord_s` is wall time spent outside waits;
/// only *site* busy seconds are CPU time (`skalla_obs::BusyTimer`).
#[expect(
    clippy::disallowed_methods,
    reason = "the one wall-clock read under `coordinator`: coordinator seconds, never site busy time"
)]
fn wall_now() -> Instant {
    Instant::now()
}

/// Receive one stage round. Result chunks from `expected` sites (each
/// site's result possibly row-blocked into several) are fed to `absorb`
/// with the sending site's id as they arrive. The round may also owe
/// `owed` frames of other tags — heavy-hitter reports, loans, loan
/// results — which go to `extra`; it answers how many *further* such
/// frames the one it took makes the round wait for (a loan fans out into
/// helper tasks whose results come back) and rejects tags it does not
/// expect. Completion is remembered per site: a chunk from a site that
/// already sent its final one is an error rather than a second
/// completion, so a repeating site cannot close the round ahead of a
/// silent one and drop that site's sub-aggregates from the merge.
/// Returns coordinator busy seconds (decode + absorb, excluding waits).
fn collect(
    coord: &dyn CoordinatorTransport,
    timeout: Duration,
    expected: usize,
    stage: u32,
    mut owed: usize,
    mut extra: impl FnMut(usize, Message) -> Result<usize>,
    mut absorb: impl FnMut(usize, Relation) -> Result<()>,
) -> Result<f64> {
    let mut busy = 0.0;
    let mut done = vec![false; coord.n_sites()];
    let mut finished = 0usize;
    while finished < expected || owed > 0 {
        let (site, msg) = coord.recv(timeout).map_err(net_err)?;
        let t = wall_now();
        match Tag::try_from(msg.tag)? {
            Tag::Result => {
                let (s, last, rel) = protocol::decode_result(&msg.payload)?;
                check_stage("result", s, stage)?;
                if done[site] {
                    return Err(Error::Execution(format!(
                        "site {site} sent a result chunk after its final one for stage {stage}"
                    )));
                }
                if last {
                    done[site] = true;
                    finished += 1;
                }
                absorb(site, rel)?;
            }
            Tag::Error => {
                return Err(Error::Execution(format!(
                    "site failed: {}",
                    protocol::decode_error(&msg.payload)
                )));
            }
            // The skew-balancing frames: `extra` takes the ones this round
            // owes and rejects the rest.
            Tag::HhReport | Tag::Loan | Tag::LoanResult => {
                owed = (owed + extra(site, msg)?).checked_sub(1).ok_or_else(|| {
                    Error::Execution(format!("unsolicited frame from site {site}"))
                })?;
            }
            // What a coordinator sends, the handshake reply, and telemetry
            // (which answers QUERY_DONE, after the last round).
            Tag::RunStage
            | Tag::Shutdown
            | Tag::Plan
            | Tag::CatalogReq
            | Tag::Catalog
            | Tag::QueryDone
            | Tag::Telemetry
            | Tag::LoanTask => return Err(unexpected_tag(msg.tag)),
        }
        busy += t.elapsed().as_secs_f64();
    }
    Ok(busy)
}

/// The `extra` handler of a round that owes nothing but results.
fn no_extras(_site: usize, msg: Message) -> Result<usize> {
    Err(unexpected_tag(msg.tag))
}

fn unexpected_tag(tag: u8) -> Error {
    Error::Execution(format!("unexpected message tag {tag} from site"))
}

fn check_stage(what: &str, got: u32, want: u32) -> Result<()> {
    if got == want {
        Ok(())
    } else {
        Err(Error::Execution(format!(
            "{what} for stage {got} while synchronizing stage {want}"
        )))
    }
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
    /// Whether this donor's loan has arrived (each donor loans once).
    loaned: bool,
    /// Helpers holding a dispatched loan task that has not answered yet.
    awaiting: Vec<usize>,
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
        loaned: false,
        awaiting: Vec::new(),
        results: Vec::new(),
    };
    Ok(Some((cold, spec, state)))
}

/// The `extra` handler of a skew-balanced stage. A donor's loan is
/// routed to the assigned helpers as soon as it arrives (so helpers
/// overlap with the still-running sites) and makes the round wait for
/// one result per dispatched task; a helper's per-segment sub-aggregates
/// are filed under their donor.
#[allow(clippy::too_many_arguments)]
fn loan_frame(
    coord: &dyn CoordinatorTransport,
    stage: u32,
    detail_cols: &[String],
    donors: &mut HashMap<usize, DonorState>,
    st: &mut StageTimes,
    obs: &Obs,
    site: usize,
    msg: Message,
) -> Result<usize> {
    match msg.tag {
        protocol::TAG_LOAN => {
            let (s, segments) = protocol::decode_loan(&msg.payload)?;
            check_stage("loan", s, stage)?;
            let state = donors
                .get_mut(&site)
                .ok_or_else(|| Error::Execution("loan from a non-donor site".into()))?;
            if std::mem::replace(&mut state.loaned, true) {
                return Err(Error::Execution(format!("site {site} sent a second loan")));
            }
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
            let tasks = per_helper.len();
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
                state.awaiting.push(helper);
            }
            Ok(tasks)
        }
        protocol::TAG_LOAN_RESULT => {
            let (s, donor, segments) = protocol::decode_loan_result(&msg.payload)?;
            check_stage("loan result", s, stage)?;
            let state = donors
                .get_mut(&(donor as usize))
                .ok_or_else(|| Error::Execution("loan result for a non-donor site".into()))?;
            let task = state.awaiting.iter().position(|&h| h == site).ok_or_else(|| {
                Error::Execution(format!("site {site} answered a loan task it does not hold"))
            })?;
            state.awaiting.swap_remove(task);
            for (seg, rel) in segments {
                st.rows_up += rel.len() as u64;
                state.results.push((seg, site, rel));
            }
            Ok(0)
        }
        t => Err(unexpected_tag(t)),
    }
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
    use skalla_net::star;
    use skalla_relation::{row, DataType};

    const TIMEOUT: Duration = Duration::from_secs(5);

    fn one_row(g: i64) -> Relation {
        Relation::new(Schema::of(&[("g", DataType::Int)]), vec![row![g]]).unwrap()
    }

    /// Run `collect` for stage 1 of a two-site round, returning which
    /// sites' chunks were absorbed.
    fn absorbed(
        coord: &dyn CoordinatorTransport,
        owed: usize,
        extra: impl FnMut(usize, Message) -> Result<usize>,
    ) -> Result<Vec<usize>> {
        let mut from = Vec::new();
        let absorb = |site, _rel| {
            from.push(site);
            Ok(())
        };
        collect(coord, TIMEOUT, 2, 1, owed, extra, absorb)?;
        Ok(from)
    }

    #[test]
    fn a_repeating_site_cannot_close_the_round_for_a_silent_one() {
        // Site 0 (a remote process is outside input) sends its final
        // chunk twice before site 1 answers. Counting completions without
        // per-site memory closed the round here and merged without
        // site 1's sub-aggregates.
        let (coord, sites) = star(2);
        for _ in 0..2 {
            sites[0].send(protocol::result(1, &one_row(0))).unwrap();
        }
        sites[1].send(protocol::result(1, &one_row(1))).unwrap();
        let err = absorbed(&coord, 0, no_extras).unwrap_err().to_string();
        assert!(err.contains("site 0") && err.contains("after its final one"), "{err}");

        // The honest round: chunked site 0, then site 1.
        let (coord, sites) = star(2);
        sites[0].send(protocol::result_chunk(1, &one_row(0), false)).unwrap();
        sites[0].send(protocol::result(1, &one_row(2))).unwrap();
        sites[1].send(protocol::result(1, &one_row(1))).unwrap();
        assert_eq!(absorbed(&coord, 0, no_extras).unwrap(), vec![0, 0, 1]);
    }

    #[test]
    fn a_second_heavy_hitter_report_from_one_site_is_an_error() {
        use crate::distribution::DistributionInfo;
        use crate::plan::{OptFlags, Planner};
        use skalla_gmdj::prelude::*;

        // A skew-eligible plan with balancing on, so the base round owes
        // one report per site.
        let expr = GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("cnt")],
            ))
            .build();
        let plan = Planner::new(DistributionInfo::new(2)).optimize(&expr, OptFlags::none());
        assert!(skew_eligible(&plan).is_some());
        let catalog = HashMap::from([("t".to_string(), Arc::new(one_row(0)))]);
        let schemas = plan.expr.validate(&catalog).unwrap();
        let detail_schemas = HashMap::from([("t".to_string(), one_row(0).schema().clone())]);

        // Both sites answer the base round; site 0 reports twice, site 1
        // not at all.
        let (coord, sites) = star(2);
        for (s, site) in sites.iter().enumerate() {
            site.send(protocol::result(0, &one_row(s as i64))).unwrap();
        }
        for _ in 0..2 {
            sites[0].send(protocol::hh_report(0, &HotReport::default())).unwrap();
        }
        let err = run_coordinator(
            &coord,
            &plan,
            &schemas,
            &detail_schemas,
            &EngineConfig {
                skew_balance: true,
                timeout: TIMEOUT,
                ..EngineConfig::default()
            },
            1,
            None,
            None,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("site 0 sent a second heavy-hitter report"), "{err}");
    }
}
