//! Site-side stage execution, the site's state machine and its driver.
//!
//! Each Skalla site is a local warehouse fully capable of evaluating GMDJ
//! expressions over its partition (paper Sect. 2.1).
//! [`execute_stage_traced`] is the pure function a site runs per round:
//! given the shared plan, the stage index and the base-structure fragment
//! received from the coordinator, it produces the relation to ship back —
//! for a unit answered by position ([`Unit::positional`]), accumulator
//! columns only, with Prop 1's survivor set.
//!
//! The protocol is a state machine, `SiteMachine`, that touches no socket
//! and starts no thread: each frame in, in arrival order, yields a reply
//! or a stage task, whose run is a pure call returning its frames.
//! [`site_session_loop`] drives it over any [`SiteTransport`], so one loop
//! serves an in-process site thread and a standalone TCP site process
//! (`skalla-cli site`); the tests drive it inline, in a seeded order.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::plan::{DistributedPlan, SiteFilter, StageKind, Unit};
use crate::protocol::{self, Survivors, Tag};
use crate::skew::{ExtractSpec, HotReport, SkewSpec, REPORT_TOP, SKETCH_CAPACITY};
use skalla_gmdj::eval::{eval_full, eval_shipped, EvalOptions};
use skalla_gmdj::{BaseQuery, Catalog, SpaceSaving};
use skalla_net::tcp::MAX_FRAME_LEN;
use skalla_net::{Message, SiteTransport};
use skalla_obs::{BusyTimer, Obs, Track};
use skalla_relation::{Column, Columns, Error, Relation, Result, Schema, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Execute one stage at a site, keyed: `incoming` is the base fragment
/// shipped by the coordinator (`None` for base stages and folded units),
/// and a unit the site answers by position comes back with the fragment's
/// key columns at the answered rows ahead of the accumulators — what the
/// sites shipped before they answered by position.
pub fn execute_stage(
    catalog: &dyn Catalog,
    plan: &DistributedPlan,
    stage: usize,
    incoming: Option<Relation>,
    eval: EvalOptions,
) -> Result<Relation> {
    let fragment = incoming.clone();
    let (answer, survivors) = execute_stage_traced(catalog, plan, stage, incoming, eval, &Obs::disabled(), 0)?;
    let positional = matches!(&plan.stages[stage].kind, StageKind::Unit(u) if u.positional());
    let Some(b) = fragment.filter(|_| positional) else {
        return Ok(answer);
    };
    let keys = b.project(&plan.key.iter().map(String::as_str).collect::<Vec<_>>())?;
    let keys = match survivors {
        Some(s) => keys.gather(&s.at),
        None => keys,
    };
    beside(&keys, &answer)
}

/// `front`'s columns, then `back`'s, shared, row for row: both relations
/// have `back.len()` rows.
fn beside(front: &Relation, back: &Relation) -> Result<Relation> {
    let fields = [front.schema().fields(), back.schema().fields()].concat();
    let shared = |r: &Relation| (0..r.schema().len()).map(|c| r.shared_column(c)).collect::<Vec<_>>();
    let cols = [shared(front), shared(back)].concat();
    Relation::from_columns(Schema::new(fields)?, Columns::from_shared(back.len(), cols))
}

/// [`execute_stage`] as the site's worker runs it, with observability
/// (the GMDJ kernel records per-morsel spans on this site's worker
/// tracks): the relation to ship, and a positional answer's survivor set
/// under Prop 1.
#[allow(clippy::too_many_arguments)]
pub fn execute_stage_traced(
    catalog: &dyn Catalog,
    plan: &DistributedPlan,
    stage: usize,
    incoming: Option<Relation>,
    eval: EvalOptions,
    obs: &Obs,
    site: usize,
) -> Result<(Relation, Option<Survivors>)> {
    let st = plan
        .stages
        .get(stage)
        .ok_or_else(|| Error::Execution(format!("no stage {stage}")))?;
    match &st.kind {
        StageKind::Base => Ok((plan.base_fragment(catalog)?, None)),
        StageKind::Unit(unit) => execute_unit(catalog, plan, unit, incoming, eval, obs, site),
    }
}

impl DistributedPlan {
    /// The local base fragment: the base query evaluated over this site's
    /// partition, its distinct groups sorted by the key K — once per
    /// partition and K ([`Relation::project_distinct_sorted`]'s memo). So
    /// every keyed answer a site makes from it (the base round's, a folded
    /// unit's, a folded chain's: one row per base tuple, in fragment order)
    /// is a sorted run.
    pub fn base_fragment(&self, catalog: &dyn Catalog) -> Result<Relation> {
        match &self.expr.base {
            BaseQuery::DistinctProject { table, columns } => {
                let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
                let key: Vec<&str> = self.key.iter().map(String::as_str).collect();
                catalog.table(table)?.project_distinct_sorted(&columns, &key)
            }
            BaseQuery::Literal(_) => self.expr.base.eval(catalog),
        }
    }
}

fn base_input(
    catalog: &dyn Catalog,
    plan: &DistributedPlan,
    unit: &Unit,
    incoming: Option<Relation>,
) -> Result<Relation> {
    if unit.fold_base {
        // Prop 2: the local groups come from the local detail partition —
        // derived and sorted once per partition and key set (the memo of
        // `project_distinct_sorted`), not once per query.
        match &plan.expr.base {
            BaseQuery::DistinctProject { .. } => plan.base_fragment(catalog),
            BaseQuery::Literal(_) => {
                Err(Error::Plan("fold_base with a literal base relation".into()))
            }
        }
    } else {
        incoming.ok_or_else(|| Error::Execution("unit stage without a base fragment".into()))
    }
}

fn execute_unit(
    catalog: &dyn Catalog,
    plan: &DistributedPlan,
    unit: &Unit,
    incoming: Option<Relation>,
    eval: EvalOptions,
    obs: &Obs,
    site: usize,
) -> Result<(Relation, Option<Survivors>)> {
    let detail = catalog.table(&unit.table)?;
    let b_frag = base_input(catalog, plan, unit, incoming)?;
    let key: Vec<&str> = plan.key.iter().map(String::as_str).collect();

    if unit.local_chain {
        // Thm 5 / Cor 1: evaluate the whole unit locally on owned groups,
        // finalizing between operators, and ship logical results.
        let owned = if unit.fold_base {
            b_frag
        } else {
            let (bcol, dcol) = unit
                .ownership
                .as_ref()
                .ok_or_else(|| Error::Plan("chained unit without ownership".into()))?;
            let local = detail.project_distinct(&[dcol.as_str()])?;
            let local_values: HashSet<Value> = (0..local.len()).map(|g| local.column(0).value(g)).collect();
            let owner = b_frag.column(b_frag.schema().index_of(bcol)?);
            b_frag.filter(|i| local_values.contains(&owner.value(i)))
        };
        let mut cur = owned;
        for op in &plan.expr.ops[unit.ops.clone()] {
            cur = eval_full(&cur, detail, op, eval, obs, site)?;
        }
        // Ship K + every logical aggregate the unit produced.
        let mut cols = key.clone();
        for op in &plan.expr.ops[unit.ops.clone()] {
            cols.extend(op.output_names());
        }
        Ok((cur.project(&cols)?, None))
    } else {
        // One operator: the physical accumulators, built straight from
        // the kernel's states, one row per base tuple (per matched one
        // under Prop 1). A folded unit's groups are the site's own, so K
        // leads; against a shipped fragment the row order is the
        // fragment's, so no key ships, and Prop 1's survivor set says
        // which rows are answered.
        debug_assert_eq!(unit.ops.len(), 1);
        let op = &plan.expr.ops[unit.ops.start];
        let key_idx = match unit.positional() {
            true => Vec::new(),
            false => b_frag.schema().indexes_of(&key)?,
        };
        let local = eval_shipped(&b_frag, detail, op, &key_idx, unit.site_reduce, eval, obs, site)?;
        let survivors = (unit.positional() && unit.site_reduce).then(|| Survivors::of(&local.matched));
        Ok((local.physical, survivors))
    }
}

/// Target number of rows the sketch pass actually scans. Larger
/// partitions are stride-sampled with the estimated counts scaled back
/// up by the stride, which caps the detection cost at a constant.
const SKETCH_SAMPLE_TARGET: usize = 16_384;

/// One space-saving pass over the local detail partition's key columns:
/// the site's half of skew detection. Only caller: the benchmark's skew
/// layer (its `skew.hot_report_ms` row; see [`crate::skew`]).
pub fn hot_report(catalog: &dyn Catalog, spec: &SkewSpec) -> Result<HotReport> {
    let detail = catalog.table(&spec.table)?;
    let mut idx = Vec::with_capacity(spec.detail_cols.len());
    for c in &spec.detail_cols {
        idx.push(detail.schema().index_of(c)?);
    }
    let stride = (detail.len() / SKETCH_SAMPLE_TARGET).max(1);
    let mut sketch = SpaceSaving::new(SKETCH_CAPACITY);
    let cols: Vec<&Column> = idx.iter().map(|&i| detail.column(i)).collect();
    let mut key: Vec<Value> = Vec::with_capacity(idx.len());
    for pos in (0..detail.len()).step_by(stride) {
        key.clear();
        key.extend(cols.iter().map(|c| c.value(pos)));
        match &key[..] {
            [v] => sketch.offer(&[v]),
            vs => sketch.offer(&vs.iter().collect::<Vec<_>>()),
        }
    }
    Ok(HotReport {
        rows: detail.len() as u64,
        hitters: sketch
            .top(REPORT_TOP)
            .into_iter()
            .map(|(k, c)| (k, c * stride as u64))
            .collect(),
    })
}

/// Relations keyed by morsel-segment index, in ascending segment order:
/// each half of a [`split_detail`].
pub type Segments = Vec<(u32, Relation)>;

/// Split a detail relation into its hot-key and cold-key rows, both
/// bucketed by morsel segment (`position / morsel_rows`), preserving row
/// order within each bucket. Only caller: the benchmark's skew layer (its `skew.split_detail_ms`
/// row; see [`crate::skew`]).
pub fn split_detail(
    detail: &Relation,
    spec: &ExtractSpec,
    morsel_rows: usize,
) -> Result<(Segments, Segments)> {
    let mut idx = Vec::with_capacity(spec.detail_cols.len());
    for c in &spec.detail_cols {
        idx.push(detail.schema().index_of(c)?);
    }
    let m = morsel_rows.max(1);
    let mut hot_buckets: Vec<(u32, Vec<u32>)> = Vec::new();
    let mut cold_buckets: Vec<(u32, Vec<u32>)> = Vec::new();
    let push = |buckets: &mut Vec<(u32, Vec<u32>)>, pos: usize| {
        let seg = (pos / m) as u32;
        match buckets.last_mut() {
            Some((s, at)) if *s == seg => at.push(pos as u32),
            _ => buckets.push((seg, vec![pos as u32])),
        }
    };
    let cols: Vec<&Column> = idx.iter().map(|&i| detail.column(i)).collect();
    let hot: HashSet<&Vec<Value>> = spec.keys.iter().collect();
    let mut key = Vec::with_capacity(idx.len());
    for pos in 0..detail.len() {
        key.clear();
        key.extend(cols.iter().map(|c| c.value(pos)));
        match hot.contains(&key) {
            true => push(&mut hot_buckets, pos),
            false => push(&mut cold_buckets, pos),
        }
    }
    let pack = |buckets: Vec<(u32, Vec<u32>)>| {
        buckets
            .into_iter()
            .map(|(seg, at)| (seg, detail.gather(&at)))
            .collect()
    };
    Ok((pack(hot_buckets), pack(cold_buckets)))
}

/// The site session: the site's state machine (`SiteMachine`) over one
/// link, each stage task it yields run on its own thread of one scope,
/// which borrows `catalog`. The transport serializes frames (one per
/// `send`), so interleaved queries never corrupt each other's streams.
/// The session ends on [`protocol::TAG_SHUTDOWN`] or when the link dies;
/// the scope then joins the tasks still running.
///
/// `export_obs` should be `true` only when this site owns its recorder
/// (a standalone `skalla-cli site` process): an in-process site thread
/// shares the coordinator's recorder, and exporting from it would
/// duplicate every span on import.
pub fn site_session_loop(
    catalog: &HashMap<String, Arc<Relation>>,
    net: Arc<dyn SiteTransport + Sync>,
    export_obs: bool,
    obs: &Obs,
) {
    let site = net.site_id();
    let net = &*net;
    let mut machine = SiteMachine::new(catalog, site);
    std::thread::scope(|scope| {
        while let Ok(msg) = net.recv() {
            let reply = match machine.on_frame(msg) {
                None => continue,
                Some(Action::Close) => break,
                Some(Action::Send(reply)) => reply,
                Some(Action::Evaluate(task)) => {
                    let query_id = task.query_id;
                    let run = move || {
                        let _ = task.run(catalog, obs, export_obs).into_iter().try_for_each(|f| net.send(f));
                    };
                    let thread = std::thread::Builder::new().name(format!("site-{site}-q{query_id}"));
                    match thread.spawn_scoped(scope, run) {
                        Ok(_) => continue,
                        // The task dropped with the closure, which frees its query.
                        Err(e) => spawn_refused(query_id, &e),
                    }
                }
            };
            if net.send(reply).is_err() {
                break;
            }
        }
    });
}

/// The reply for a stage task whose thread could not start. The query id
/// is remote input, so a failed start must not take the session down: it
/// is that query's `TAG_ERROR`, and the other queries keep being served.
fn spawn_refused(query_id: u32, e: &std::io::Error) -> Message {
    protocol::error(&format!("site cannot start a task for this query: {e}")).with_query_id(query_id)
}

/// What a site does with a frame ([`SiteMachine::on_frame`]).
pub(crate) enum Action {
    /// Send this frame to the coordinator.
    Send(Message),
    /// Run this stage task ([`Task::run`]), on any thread, and send its
    /// frames in order.
    Evaluate(Task),
    /// End the session.
    Close,
}

/// A query's decoded `PLAN`: the plan and its kernel options.
type Decoded = (DistributedPlan, EvalOptions);

/// The site's end of the protocol: frames in, in arrival order, and
/// [`Action`]s out. Per query id, from its `PLAN` to its
/// [`protocol::TAG_QUERY_DONE`], it keeps the decoded plan and the key
/// columns of the rows the site holds for the next stage.
///
/// A query runs one stage task at a time: a `RUN_STAGE` that arrives while
/// the query's task is alive is refused with a `TAG_ERROR`. A task lets
/// go of its query once its frames are built, before they are sent, so a
/// coordinator that sends stage s+1 after the site's final frame for
/// stage s is never refused.
pub(crate) struct SiteMachine<'c> {
    catalog: &'c dyn Catalog,
    site: usize,
    queries: BTreeMap<u32, Query>,
}

/// A query at a site: its plan, its held key columns, and a token each of
/// its live tasks holds a clone of.
type Query = (Arc<Decoded>, Option<Relation>, Arc<()>);

impl<'c> SiteMachine<'c> {
    /// Site `site` over its partition `catalog`, holding no query.
    pub(crate) fn new(catalog: &'c dyn Catalog, site: usize) -> SiteMachine<'c> {
        SiteMachine { catalog, site, queries: BTreeMap::new() }
    }

    /// Take one frame from the coordinator. A reply carries the frame's
    /// query id.
    pub(crate) fn on_frame(&mut self, msg: Message) -> Option<Action> {
        let query_id = msg.query_id;
        let reply = |text: &str| Some(Action::Send(protocol::error(text).with_query_id(query_id)));
        match Tag::try_from(msg.tag) {
            Ok(Tag::Shutdown) => Some(Action::Close),
            Ok(Tag::QueryDone) => {
                self.queries.remove(&query_id);
                None
            }
            Ok(Tag::Plan) => match crate::plan_codec::decode_plan_with_options(&msg.payload) {
                Ok(decoded) => {
                    let (held, token) = self.queries.remove(&query_id).map(|(_, h, t)| (h, t)).unwrap_or_default();
                    self.queries.insert(query_id, (Arc::new(decoded), held, token));
                    None
                }
                Err(e) => reply(&format!("bad plan: {e}")),
            },
            Ok(Tag::RunStage) => match self.stage_task(query_id, &msg.payload) {
                Ok(task) => Some(Action::Evaluate(task)),
                Err(e) => reply(&e),
            },
            // What a site sends, the handshake `SiteServer` answered
            // before the session, and bytes outside the registry.
            Ok(Tag::Result | Tag::Error | Tag::CatalogReq | Tag::Catalog | Tag::Telemetry) | Err(_) => {
                reply("unexpected message tag")
            }
        }
    }

    /// The task a `RUN_STAGE` asks for, its fragment spliced with the rows
    /// the query holds; or why there is none.
    fn stage_task(&mut self, query_id: u32, payload: &[u8]) -> std::result::Result<Task, String> {
        let (query, held, token) = self.queries.get_mut(&query_id).ok_or("stage task before plan")?;
        if Arc::strong_count(token) > 1 {
            return Err("a stage task while this query's previous one runs".into());
        }
        let (stage, fragment, ()) = protocol::decode_run_stage(payload).map_err(|e| e.to_string())?;
        let input = resident_input(self.catalog, &query.0, stage as usize, self.site, fragment, held);
        let input = input.map_err(|e| e.to_string())?;
        let (site, query, token) = (self.site, Arc::clone(query), Arc::clone(token));
        Ok(Task { site, query_id, query, stage, input, token })
    }
}

/// One stage of one query at one site, ready to run: owned, so any
/// thread can run it.
pub(crate) struct Task {
    site: usize,
    query_id: u32,
    query: Arc<Decoded>,
    stage: u32,
    /// The stage's fragment, a resident one spliced with its held keys.
    input: Option<Relation>,
    /// The query's token: while this clone lives, its next task is refused.
    /// `run` drops it before its frames leave, and a coordinator sends the
    /// next stage after them, so the machine reads the count as it is.
    token: Arc<()>,
}

impl Task {
    /// Evaluate the stage: one [`protocol::TAG_TELEMETRY`] frame — the
    /// task's busy seconds and, when `export_obs` is set
    /// ([`site_session_loop`]), the site recorder's delta since the last
    /// export — then the stage's one `RESULT`, the site's whole answer, or
    /// its `TAG_ERROR`; both stamped with the query id. An answer over the
    /// frame limit is that query's `TAG_ERROR` on every transport.
    /// Telemetry frames ride [`skalla_net::TELEMETRY_TAG`] and are exempt
    /// from the byte accounting on every transport, so shipping timings
    /// keeps the channel/TCP byte-identity invariant.
    pub(crate) fn run(self, catalog: &dyn Catalog, obs: &Obs, export_obs: bool) -> [Message; 2] {
        let Task { site, query_id, query, stage, input, token } = self;
        let (plan, eval) = &*query;
        let label = plan.stages.get(stage as usize).map_or("stage", |s| s.label.as_str());
        let mut task_span = obs.span(Track::SiteQuery(site, query_id), label);
        task_span.arg("query_id", query_id as u64);
        if let Some(f) = &input {
            task_span.arg("rows_in", f.len());
        }
        let t = BusyTimer::start();
        let out = execute_stage_traced(catalog, plan, stage as usize, input, *eval, obs, site);
        let busy_s = t.elapsed_s();
        let reply = match out {
            Ok((rel, survivors)) => {
                task_span.arg("rows_out", rel.len());
                task_span.finish();
                let answer = protocol::result_with(stage, &rel, survivors.as_ref());
                match unshippable(answer.payload.len()) {
                    None => answer,
                    Some(why) => protocol::error(&why),
                }
            }
            Err(e) => {
                task_span.arg("error", e.to_string());
                task_span.finish();
                protocol::error(&e.to_string())
            }
        };
        // Ahead of the answer, so the coordinator has it before this
        // site's part of the round closes; taken after the task span
        // closed, so the delta holds it.
        let report = protocol::SiteTelemetry {
            stage,
            busy_s,
            obs: obs.recorder().filter(|_| export_obs).map(|rec| rec.take_delta()),
        };
        drop(token);
        [protocol::telemetry(&report), reply].map(|m| m.with_query_id(query_id))
    }
}

/// Why an answer of `len` payload bytes cannot ship: it is over the frame
/// limit, which a TCP reader refuses by ending the session for every
/// query on it. Checked on every transport, so channels and TCP answer
/// alike.
fn unshippable(len: usize) -> Option<String> {
    (len > MAX_FRAME_LEN).then(|| format!("the stage's answer is {len} bytes, over the {MAX_FRAME_LEN}-byte frame limit"))
}

/// The fragment stage `stage` runs on at `site`, given the one that
/// arrived. A resident fragment ([`SiteFilter::Resident`]) is the rows the
/// site held for the previous unit without their key: the `held` key
/// columns go back in front. Then `held` becomes the key columns of this
/// stage's rows — its fragment's, or a folded unit's own groups — when the
/// next stage leaves them here, and nothing otherwise.
fn resident_input(
    catalog: &dyn Catalog,
    plan: &DistributedPlan,
    stage: usize,
    site: usize,
    fragment: Option<Relation>,
    held: &mut Option<Relation>,
) -> Result<Option<Relation>> {
    let resident_at = |stage: usize| match plan.stages.get(stage).map(|s| &s.kind) {
        Some(StageKind::Unit(u)) => u.site_filters.get(site) == Some(&SiteFilter::Resident),
        _ => false,
    };
    let keys = held.take();
    let input = match (resident_at(stage), fragment) {
        (false, fragment) => fragment,
        (true, None) => return Err(Error::Execution("a resident stage without its fragment".into())),
        (true, Some(rest)) => {
            let keys = keys.ok_or_else(|| Error::Execution("a resident fragment for a query that holds no rows".into()))?;
            if rest.len() != keys.len() {
                return Err(Error::Execution(format!(
                    "a resident fragment of {} rows for {} held rows",
                    rest.len(),
                    keys.len()
                )));
            }
            if let Some(k) = plan.key.iter().find(|k| rest.schema().index_of(k).is_ok()) {
                return Err(Error::Execution(format!("a resident fragment carrying key column {k:?}")));
            }
            Some(beside(&keys, &rest)?)
        }
    };
    if resident_at(stage + 1) {
        let key: Vec<&str> = plan.key.iter().map(String::as_str).collect();
        *held = match (&input, &plan.stages[stage].kind) {
            (Some(f), _) => f.project(&key).ok(),
            (None, StageKind::Unit(u)) if u.fold_base => plan.base_fragment(catalog)?.project(&key).ok(),
            (None, _) => None,
        };
    }
    Ok(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionInfo;
    use crate::plan::{OptFlags, Planner};
    use skalla_gmdj::prelude::*;
    use skalla_relation::{row, DataType, Schema};
    use std::collections::HashMap;

    fn site_catalog() -> HashMap<String, Relation> {
        let t = Relation::new(
            Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]),
            vec![row![1i64, 10i64], row![1i64, 30i64], row![2i64, 7i64]],
        )
        .unwrap();
        HashMap::from([("t".to_string(), t)])
    }

    fn expr() -> GmdjExpr {
        GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("cnt"), AggSpec::avg("v", "avg")],
            ))
            .build()
    }

    #[test]
    fn base_stage_ships_local_groups() {
        let plan = Planner::new(DistributionInfo::new(1)).optimize(&expr(), OptFlags::none());
        let cat = site_catalog();
        let out = execute_stage(&cat, &plan, 0, None, EvalOptions::default()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().column_names(), ["g"]);
    }

    #[test]
    fn unit_stage_ships_key_plus_accumulators() {
        let plan = Planner::new(DistributionInfo::new(1)).optimize(&expr(), OptFlags::none());
        let cat = site_catalog();
        let b = Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            vec![row![1i64], row![2i64], row![3i64]],
        )
        .unwrap();
        let out = execute_stage(&cat, &plan, 1, Some(b), EvalOptions::default()).unwrap();
        assert_eq!(
            out.schema().column_names(),
            ["g", "cnt", "avg__sum", "avg__cnt"]
        );
        assert_eq!(out.len(), 3);
        // Group 3 has no local tuples, but without site reduction it ships.
        assert_eq!(
            out.rows()[2],
            Row::new(vec![
                Value::Int(3),
                Value::Int(0),
                Value::Null,
                Value::Int(0),
            ])
        );
    }

    #[test]
    fn site_reduce_drops_unmatched_groups() {
        let flags = OptFlags {
            group_reduction_site: true,
            ..OptFlags::none()
        };
        let plan = Planner::new(DistributionInfo::new(1)).optimize(&expr(), flags);
        let cat = site_catalog();
        let b = Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            vec![row![1i64], row![3i64]],
        )
        .unwrap();
        let out = execute_stage(&cat, &plan, 1, Some(b), EvalOptions::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0].get(0), &Value::Int(1));
    }

    /// A `PLAN` frame for `expr()`'s plan, for query `q`.
    fn plan_frame(q: u32) -> Message {
        let plan = Planner::new(DistributionInfo::new(1)).optimize(&expr(), OptFlags::none());
        let bytes = crate::plan_codec::encode_plan_with_options(&plan, &EvalOptions::default());
        Message::for_query(protocol::TAG_PLAN, q, bytes)
    }

    /// The base stage's task for query `q`.
    fn run_base(q: u32) -> Message {
        protocol::run_stage(0, None).with_query_id(q)
    }

    fn error_text(action: Option<Action>, q: u32) -> String {
        match action {
            Some(Action::Send(m)) if (m.tag, m.query_id) == (protocol::TAG_ERROR, q) => {
                protocol::decode_error(&m.payload)
            }
            _ => panic!("expected a TAG_ERROR for query {q}"),
        }
    }

    fn task(action: Option<Action>) -> Task {
        match action {
            Some(Action::Evaluate(task)) => task,
            _ => panic!("expected a stage task"),
        }
    }

    /// A site runs at most one stage task per live query: a second
    /// `RUN_STAGE` while the first task is unrun is refused, another
    /// query's is not, and once the task has built its frames (telemetry,
    /// then the result) the query's next stage is accepted.
    #[test]
    fn a_query_runs_one_stage_task_at_a_time() {
        let cat = site_catalog();
        let mut site = SiteMachine::new(&cat, 0);
        for q in [1, 2] {
            assert!(site.on_frame(plan_frame(q)).is_none());
        }
        let first = task(site.on_frame(run_base(1)));
        let err = error_text(site.on_frame(run_base(1)), 1);
        assert!(err.contains("previous one runs"), "{err}");
        let other = task(site.on_frame(run_base(2)));
        let frames = first.run(&cat, &Obs::disabled(), false);
        let tags: Vec<(u8, u32)> = frames.iter().map(|m| (m.tag, m.query_id)).collect();
        assert_eq!(tags, [(protocol::TAG_TELEMETRY, 1), (protocol::TAG_RESULT, 1)]);
        task(site.on_frame(run_base(1)));
        drop(other);
        // QUERY_DONE forgets the query: its next task comes before a plan.
        assert!(site.on_frame(Message::for_query(protocol::TAG_QUERY_DONE, 2, Vec::new())).is_none());
        let err = error_text(site.on_frame(run_base(2)), 2);
        assert!(err.contains("stage task before plan"), "{err}");
    }

    /// A stage task whose thread cannot start is answered with its
    /// query's `TAG_ERROR`; the closure that owned the task drops it,
    /// which clears the query's running mark, and the session serves
    /// that query and the others on.
    #[test]
    fn a_failed_task_spawn_is_answered_per_query_and_the_session_survives() {
        let cat = site_catalog();
        let mut site = SiteMachine::new(&cat, 0);
        for q in [7, 8] {
            assert!(site.on_frame(plan_frame(q)).is_none());
        }
        let refused = task(site.on_frame(run_base(7)));
        let reply = spawn_refused(refused.query_id, &std::io::Error::other("out of threads"));
        drop(refused);
        assert_eq!((reply.tag, reply.query_id), (protocol::TAG_ERROR, 7));
        assert!(protocol::decode_error(&reply.payload).contains("out of threads"));
        for q in [7, 8] {
            let frames = task(site.on_frame(run_base(q))).run(&cat, &Obs::disabled(), false);
            assert_eq!(frames.last().map(|m| (m.tag, m.query_id)), Some((protocol::TAG_RESULT, q)));
        }
    }

    /// A site's answer, encoded straight from the kernel's states, is byte
    /// for byte the frame of the same answer rebuilt from its rows — what
    /// the site shipped when it made rows and the codec columnized them —
    /// carrying the survivor set of an answer by position under Prop 1.
    /// Keyed on one and two columns, and by position; Prop 1 on and off;
    /// Int and Double AVG, VAR, an all-NULL SUM, a string MIN (`Value`
    /// accumulators), NaN payloads, −0.0, NULLs in keys and inputs.
    #[test]
    fn shipped_frames_match_the_frames_of_their_rows() {
        let nan = |p: u64| Value::Double(f64::from_bits(0x7ff8_0000_0000_0000 | p));
        let detail = Relation::new(
            Schema::of(&[
                ("g", DataType::Int),
                ("i", DataType::Int),
                ("d", DataType::Double),
                ("n", DataType::Int),
                ("s", DataType::Str),
            ]),
            (0..40i64)
                .map(|r| {
                    let g = if r % 11 == 0 { Value::Null } else { Value::Int(r % 7) };
                    let d = match r % 5 {
                        0 => nan(r as u64),
                        1 => Value::Double(-0.0),
                        2 => Value::Null,
                        _ => Value::Double(r as f64 * 0.37 - 4.0),
                    };
                    let s = match r % 3 {
                        0 => Value::Null,
                        _ => Value::str(format!("s{}", r % 4)),
                    };
                    Row::new(vec![g, Value::Int(r * 1_000_003), d, Value::Null, s])
                })
                .collect(),
        )
        .unwrap();
        // Keys 0..9 (7, 8 and 9 unmatched) and NULL, under a string tag.
        let base = Relation::new(
            Schema::of(&[("tag", DataType::Str), ("g", DataType::Int)]),
            (0..10i64)
                .map(|g| row![format!("t{}", g % 3), g])
                .chain([Row::new(vec![Value::str("tn"), Value::Null])])
                .collect(),
        )
        .unwrap();
        let op = Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![
                AggSpec::count("cnt"),
                AggSpec::avg("i", "avg_i"),
                AggSpec::avg("d", "avg_d"),
                AggSpec::var("d", "var_d"),
                AggSpec::sum("n", "sum_n"),
                AggSpec::sum("d", "sum_d"),
                AggSpec::min("s", "min_s"),
                AggSpec::max("d", "max_d"),
            ],
        );
        let opts = EvalOptions {
            parallelism: 1,
            morsel_rows: 16,
        };
        let obs = Obs::disabled();
        for key in [&[][..], &[1usize], &[0, 1]] {
            for reduce in [false, true] {
                let local = eval_shipped(&base, &detail, &op, key, reduce, opts, &obs, 0).unwrap();
                let answer = local.physical;
                let rows = answer.clone().rows().to_vec();
                assert_eq!(rows.len(), if reduce { 8 } else { 11 });
                let survivors = (key.is_empty() && reduce).then(|| Survivors::of(&local.matched));
                if let Some(s) = &survivors {
                    assert_eq!((s.fragment_rows, s.at.len()), (11, 8));
                }
                let got = protocol::result_with(4, &answer, survivors.as_ref());
                let rebuilt = Relation::new(answer.schema().clone(), rows).unwrap();
                let want = protocol::result_with(4, &rebuilt, survivors.as_ref());
                assert!(got.payload == want.payload, "key {key:?}, reduce {reduce}: frames differ");
            }
        }
    }

    /// An answer over the frame limit is its query's `TAG_ERROR`, naming
    /// its size and the limit, on every transport; one at the limit
    /// ships.
    #[test]
    fn an_answer_over_the_frame_limit_is_an_error_naming_its_size() {
        assert_eq!(unshippable(MAX_FRAME_LEN), None);
        for len in [MAX_FRAME_LEN + 1, 1 << 32] {
            let why = unshippable(len).unwrap_or_default();
            assert!(why.contains(&format!("is {len} bytes, over the {MAX_FRAME_LEN}-byte frame limit")), "{why:?}");
        }
    }

    #[test]
    fn missing_fragment_is_an_error() {
        let plan = Planner::new(DistributionInfo::new(1)).optimize(&expr(), OptFlags::none());
        let cat = site_catalog();
        assert!(execute_stage(&cat, &plan, 1, None, EvalOptions::default()).is_err());
        assert!(execute_stage(&cat, &plan, 9, None, EvalOptions::default()).is_err());
    }
}
