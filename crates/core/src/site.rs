//! Site-side stage execution and the site driver loop.
//!
//! Each Skalla site is a local warehouse fully capable of evaluating GMDJ
//! expressions over its partition (paper Sect. 2.1). [`execute_stage`] is
//! the pure function a site runs per round: given the shared plan, the
//! stage index and the base-structure fragment received from the
//! coordinator, it produces the relation to ship back.
//! [`site_session_loop`] wraps it in the protocol driver — route each
//! frame to its query's worker, which receives the plan, executes stage
//! tasks and replies to each with its telemetry and then its result,
//! until shutdown — over any [`SiteTransport`], so the same loop serves
//! both an in-process site thread and a standalone TCP site process
//! (`skalla-cli site`).

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::plan::{DistributedPlan, StageKind, Unit};
use crate::protocol::{self, Tag};
use crate::skew::{ExtractSpec, HotReport, SkewSpec, REPORT_TOP, SKETCH_CAPACITY};
use skalla_gmdj::eval::{eval_local_traced, finalize_physical, EvalOptions};
use skalla_gmdj::{BaseQuery, Catalog, SpaceSaving};
use skalla_net::SiteTransport;
use skalla_obs::{BusyTimer, Obs, Track};
use skalla_relation::{Error, Relation, Result, Row, Value};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// Execute one stage at a site. `incoming` is the base fragment shipped by
/// the coordinator (`None` for base stages and folded units).
pub fn execute_stage(
    catalog: &dyn Catalog,
    plan: &DistributedPlan,
    stage: usize,
    incoming: Option<Relation>,
    eval: EvalOptions,
) -> Result<Relation> {
    execute_stage_traced(catalog, plan, stage, incoming, eval, &Obs::disabled(), 0)
}

/// [`execute_stage`] with observability: the GMDJ kernel records
/// per-morsel spans on this site's worker tracks.
#[allow(clippy::too_many_arguments)]
pub fn execute_stage_traced(
    catalog: &dyn Catalog,
    plan: &DistributedPlan,
    stage: usize,
    incoming: Option<Relation>,
    eval: EvalOptions,
    obs: &Obs,
    site: usize,
) -> Result<Relation> {
    let st = plan
        .stages
        .get(stage)
        .ok_or_else(|| Error::Execution(format!("no stage {stage}")))?;
    match &st.kind {
        StageKind::Base => plan.base_fragment(catalog),
        StageKind::Unit(unit) => execute_unit(catalog, plan, unit, incoming, eval, obs, site),
    }
}

impl DistributedPlan {
    /// The local base fragment: the base query evaluated over this site's
    /// partition.
    pub fn base_fragment(&self, catalog: &dyn Catalog) -> Result<Relation> {
        self.expr.base.eval(catalog)
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
        // derived once per partition and key set (`project_distinct`'s
        // memo), not once per query.
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
) -> Result<Relation> {
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
            let local_values: HashSet<&Value> = local.iter().map(|r| r.get(0)).collect();
            let bi = b_frag.schema().index_of(bcol)?;
            b_frag.filter(|row| local_values.contains(row.get(bi)))
        };
        let mut cur = owned;
        for op in &plan.expr.ops[unit.ops.clone()] {
            let local = eval_local_traced(&cur, detail, op, eval, obs, site)?;
            cur = finalize_physical(&local.physical, cur.schema().len(), op, detail.schema())?;
        }
        // Ship K + every logical aggregate the unit produced.
        let mut cols = key.clone();
        for op in &plan.expr.ops[unit.ops.clone()] {
            cols.extend(op.output_names());
        }
        cur.project(&cols)
    } else {
        // One operator: sub-aggregates, shipped as physical accumulators.
        debug_assert_eq!(unit.ops.len(), 1);
        let op = &plan.expr.ops[unit.ops.start];
        let local = eval_local_traced(&b_frag, detail, op, eval, obs, site)?;
        let shipped = if unit.site_reduce {
            local.reduced()
        } else {
            local.physical
        };
        ship_projection(&shipped, &key, b_frag.schema().len())
    }
}

/// Project a unit's evaluated relation to K + the physical accumulator
/// columns — the shape every sub-aggregate ships in.
fn ship_projection(shipped: &Relation, key: &[&str], base_arity: usize) -> Result<Relation> {
    let mut idx: Vec<usize> = Vec::with_capacity(key.len());
    for k in key {
        idx.push(shipped.schema().index_of(k)?);
    }
    idx.extend(base_arity..shipped.schema().len());
    let schema = shipped.schema().project(&idx)?;
    let rows = shipped.iter().map(|r| r.project(&idx)).collect();
    Relation::new(schema, rows)
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
    let mut key: Vec<&Value> = Vec::with_capacity(idx.len());
    for row in detail.iter().step_by(stride) {
        key.clear();
        key.extend(idx.iter().map(|&i| row.get(i)));
        sketch.offer(&key);
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
    let mut hot_buckets: Vec<(u32, Vec<Row>)> = Vec::new();
    let mut cold_buckets: Vec<(u32, Vec<Row>)> = Vec::new();
    let push = |buckets: &mut Vec<(u32, Vec<Row>)>, pos: usize, row: &Row| {
        let seg = (pos / m) as u32;
        match buckets.last_mut() {
            Some((s, rows)) if *s == seg => rows.push(row.clone()),
            _ => buckets.push((seg, vec![row.clone()])),
        }
    };
    if let [i] = idx[..] {
        // Single-column key (the common case): probe the borrowed value
        // directly, no per-row key buffer.
        let hot: HashSet<&Value> = spec.keys.iter().filter_map(|k| k.first()).collect();
        for (pos, row) in detail.iter().enumerate() {
            if hot.contains(row.get(i)) {
                push(&mut hot_buckets, pos, row);
            } else {
                push(&mut cold_buckets, pos, row);
            }
        }
    } else {
        let hot: HashSet<&Vec<Value>> = spec.keys.iter().collect();
        let mut key = Vec::with_capacity(idx.len());
        for (pos, row) in detail.iter().enumerate() {
            key.clear();
            key.extend(idx.iter().map(|&i| row.get(i).clone()));
            if hot.contains(&key) {
                push(&mut hot_buckets, pos, row);
            } else {
                push(&mut cold_buckets, pos, row);
            }
        }
    }
    let pack = |buckets: Vec<(u32, Vec<Row>)>| {
        buckets
            .into_iter()
            .map(|(seg, rows)| (seg, Relation::from_shared(detail.schema_ref(), rows)))
            .collect()
    };
    Ok((pack(hot_buckets), pack(cold_buckets)))
}

/// The site session loop: a demultiplexer that routes frames to
/// per-query workers keyed by [`skalla_net::Message::query_id`].
///
/// Each worker owns one query's state — the decoded plan, its evaluation
/// options, its row-blocking chunk size — so concurrent queries
/// interleave on the site without sharing mutable state. Worker replies
/// are stamped with the worker's query id and serialized by the
/// transport (one frame per `send`), so interleaved queries never
/// corrupt each other's streams.
///
/// Control flow on the session:
/// * [`protocol::TAG_QUERY_DONE`] retires the frame's query worker (its
///   queue closes and it is joined) and sends nothing back;
/// * [`protocol::TAG_SHUTDOWN`] (on the control stream, query id 0) ends
///   the session: all workers are joined and the loop returns;
/// * a dead link also ends the session.
///
/// A worker answers each stage task with one [`protocol::TAG_TELEMETRY`]
/// frame — the task's busy seconds and, when `export_obs` is set, the
/// site recorder's delta since the last export — just ahead of the
/// task's final [`protocol::TAG_RESULT`] or its [`protocol::TAG_ERROR`].
/// Telemetry frames ride [`skalla_net::TELEMETRY_TAG`] and are exempt
/// from the byte accounting on every transport, so shipping timings
/// keeps the channel/TCP byte-identity invariant.
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
    let mut workers: HashMap<u32, Worker> = HashMap::new();
    let site = net.site_id();
    // The loop ends when the coordinator hangs up (or the session idles
    // out) — recv errors — or broadcasts a shutdown.
    while let Ok(msg) = net.recv() {
        let reply = match Tag::try_from(msg.tag) {
            Ok(Tag::Shutdown) => break,
            Ok(Tag::QueryDone) => {
                if let Some((tx, handle)) = workers.remove(&msg.query_id) {
                    drop(tx); // the worker drains its queue and exits
                    let _ = handle.join();
                }
                None
            }
            Ok(Tag::Plan | Tag::RunStage) => {
                let query_id = msg.query_id;
                route_to_worker(&mut workers, msg, |rx| {
                    let catalog = catalog.clone();
                    let net = Arc::clone(&net);
                    let obs = obs.clone();
                    std::thread::Builder::new()
                        .name(format!("site-{site}-q{query_id}"))
                        .spawn(move || {
                            query_worker(&catalog, &*net, rx, query_id, &obs, export_obs)
                        })
                })
                .err()
            }
            // What a site sends, the handshake `SiteServer` answered
            // before this loop, and bytes outside the registry.
            Ok(Tag::Result | Tag::Error | Tag::CatalogReq | Tag::Catalog | Tag::Telemetry)
            | Err(_) => Some(unexpected_tag().with_query_id(msg.query_id)),
        };
        if let Some(reply) = reply {
            if net.send(reply).is_err() {
                break;
            }
        }
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "shutdown join order: every worker is joined, nothing is encoded"
    )]
    for (tx, handle) in workers.into_values() {
        drop(tx);
        let _ = handle.join();
    }
}

/// One query's worker as the session loop holds it: its frame queue and
/// its thread.
type Worker = (Sender<skalla_net::Message>, std::thread::JoinHandle<()>);

/// Queue `msg` for its query's worker, starting the worker through
/// `spawn` on the first frame of a query id. The id is remote input, so
/// a failed start must not take the session down: it comes back as the
/// `TAG_ERROR` reply for that query id, and the other queries keep being
/// served.
fn route_to_worker(
    workers: &mut HashMap<u32, Worker>,
    msg: skalla_net::Message,
    spawn: impl FnOnce(Receiver<skalla_net::Message>) -> std::io::Result<std::thread::JoinHandle<()>>,
) -> std::result::Result<(), skalla_net::Message> {
    use std::collections::hash_map::Entry;
    let query_id = msg.query_id;
    let (tx, _) = match workers.entry(query_id) {
        Entry::Occupied(worker) => worker.into_mut(),
        Entry::Vacant(slot) => {
            let (tx, rx) = channel();
            let handle = spawn(rx).map_err(|e| {
                protocol::error(&format!("site cannot start a worker for this query: {e}"))
                    .with_query_id(query_id)
            })?;
            slot.insert((tx, handle))
        }
    };
    let _ = tx.send(msg);
    Ok(())
}

/// One query's execution state and driver on a site: the per-query half
/// of [`site_session_loop`], whose docs say what `export_obs` means.
fn query_worker(
    catalog: &HashMap<String, Arc<Relation>>,
    net: &dyn SiteTransport,
    rx: Receiver<skalla_net::Message>,
    query_id: u32,
    obs: &Obs,
    export_obs: bool,
) {
    let site = net.site_id();
    let export = obs.recorder().filter(|_| export_obs);
    let track = Track::SiteQuery(site, query_id);
    let mut plan: Option<DistributedPlan> = None;
    let mut eval = EvalOptions::default();
    let mut chunk_rows: Option<usize> = None;
    let reply = |msg: skalla_net::Message| net.send(msg.with_query_id(query_id));
    while let Ok(msg) = rx.recv() {
        match Tag::try_from(msg.tag) {
            Ok(Tag::Plan) => match crate::plan_codec::decode_plan_with_options(&msg.payload) {
                Ok((p, e, c)) => {
                    plan = Some(p);
                    eval = e;
                    chunk_rows = c;
                }
                Err(e) => {
                    let _ = reply(protocol::error(&format!("bad plan: {e}")));
                }
            },
            Ok(Tag::RunStage) => {
                let Some(plan) = &plan else {
                    let _ = reply(protocol::error("stage task before plan"));
                    continue;
                };
                let (stage, fragment, ()) = match protocol::decode_run_stage(&msg.payload) {
                    Ok(task) => task,
                    Err(e) => {
                        let _ = reply(protocol::error(&e.to_string()));
                        continue;
                    }
                };
                let label = plan
                    .stages
                    .get(stage as usize)
                    .map(|s| s.label.as_str())
                    .unwrap_or("stage");
                let mut task_span = obs.span(track, label);
                task_span.arg("query_id", query_id as u64);
                if let Some(f) = &fragment {
                    task_span.arg("rows_in", f.len());
                }
                let t = BusyTimer::start();
                let out =
                    execute_stage_traced(catalog, plan, stage as usize, fragment, eval, obs, site);
                let busy_s = t.elapsed_s();
                let mut replies = match out {
                    Ok(rel) => {
                        task_span.arg("rows_out", rel.len());
                        task_span.finish();
                        chunked_results(stage, &rel, chunk_rows)
                    }
                    Err(e) => {
                        task_span.arg("error", e.to_string());
                        task_span.finish();
                        vec![protocol::error(&e.to_string())]
                    }
                };
                // Just ahead of the final frame, so the coordinator has
                // it before this site's part of the round closes; taken
                // after the task span closed, so the delta holds it.
                let report = protocol::SiteTelemetry {
                    stage,
                    busy_s,
                    obs: export.map(|rec| rec.take_delta()),
                };
                let last = replies.len().saturating_sub(1);
                replies.insert(last, protocol::telemetry(&report));
                for r in replies {
                    if reply(r).is_err() {
                        return;
                    }
                }
            }
            // The session loop queues the two above only.
            Ok(Tag::Result
            | Tag::Error
            | Tag::Shutdown
            | Tag::CatalogReq
            | Tag::Catalog
            | Tag::QueryDone
            | Tag::Telemetry)
            | Err(_) => {
                let _ = reply(unexpected_tag());
            }
        }
    }
}

/// The reply to a frame this end of the protocol does not take.
fn unexpected_tag() -> skalla_net::Message {
    protocol::error("unexpected message tag")
}

/// Split a stage result into row-blocked RESULT messages (one final
/// message when chunking is off or the relation is small).
fn chunked_results(
    stage: u32,
    rel: &Relation,
    chunk_rows: Option<usize>,
) -> Vec<skalla_net::Message> {
    match chunk_rows {
        Some(chunk) if rel.len() > chunk => {
            let schema = rel.schema_ref();
            let chunks: Vec<&[skalla_relation::Row]> = rel.rows().chunks(chunk).collect();
            let n = chunks.len();
            chunks
                .into_iter()
                .enumerate()
                .map(|(i, rows)| {
                    let part = Relation::from_shared(Arc::clone(&schema), rows.to_vec());
                    protocol::result_chunk(stage, &part, i + 1 == n)
                })
                .collect()
        }
        _ => vec![protocol::result(stage, rel)],
    }
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

    #[test]
    fn failed_worker_spawn_is_answered_per_query_and_the_session_survives() {
        let mut workers: HashMap<u32, Worker> = HashMap::new();
        let plan_frame = |q| skalla_net::Message::for_query(protocol::TAG_PLAN, q, Vec::new());

        // Query 7's worker cannot start: the step yields that query's
        // TAG_ERROR reply and registers nothing.
        let reply = route_to_worker(&mut workers, plan_frame(7), |_| {
            Err(std::io::Error::other("out of threads"))
        })
        .unwrap_err();
        assert_eq!((reply.tag, reply.query_id), (protocol::TAG_ERROR, 7));
        assert!(protocol::decode_error(&reply.payload).contains("out of threads"));
        assert!(workers.is_empty());

        // Query 8 is still served: its worker starts once and receives
        // both of its frames.
        let (seen_tx, seen_rx) = channel();
        for _ in 0..2 {
            let seen_tx = seen_tx.clone();
            route_to_worker(&mut workers, plan_frame(8), move |rx| {
                std::thread::Builder::new().spawn(move || {
                    for m in rx {
                        let _ = seen_tx.send(m.query_id);
                    }
                })
            })
            .unwrap();
        }
        let (tx, handle) = workers.remove(&8).unwrap();
        drop(tx);
        handle.join().unwrap();
        drop(seen_tx);
        assert_eq!(seen_rx.iter().collect::<Vec<_>>(), [8, 8]);
    }

    #[test]
    fn missing_fragment_is_an_error() {
        let plan = Planner::new(DistributionInfo::new(1)).optimize(&expr(), OptFlags::none());
        let cat = site_catalog();
        assert!(execute_stage(&cat, &plan, 1, None, EvalOptions::default()).is_err());
        assert!(execute_stage(&cat, &plan, 9, None, EvalOptions::default()).is_err());
    }
}
