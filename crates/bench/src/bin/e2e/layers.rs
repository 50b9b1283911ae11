//! The layer pass: after the timed phase, walk one op per distinct plan
//! through the layers' public functions in pipeline order, single-threaded,
//! one span per call — and time the layers the walk does not reach (cache,
//! scheduler, kernel, skew, tracing) on the workload's real data.
//!
//! The walk is the unbalanced execution path spelled out from outside:
//! `compile_text` → `Planner::optimize_with_decisions` → `encode_plan` /
//! `decode_plan` → per stage, per site: fragment → `protocol::run_stage` →
//! wire → `decode_run_stage` → `site::execute_stage` → `protocol::result` →
//! wire → `decode_result` → `BaseSync` / `ChainSync` / `MergeSync`. Its
//! final relation must be bit-identical to `Skalla::execute`'s; that check
//! is what keeps the walk honest when the coordinator changes.

use crate::engine::{self, Engine};
use crate::metrics::Ledger;
use crate::netprobe::NetProbe;
use crate::run::Scale;
use crate::stats::{median, ms, us};
use crate::verify::bit_identical;
use crate::workloads::{Query, Workload};
use skalla_core::cache::DEFAULT_CACHE_BYTES;
use skalla_core::coordinator::{
    empty_aggregates, parallel_merge_tree, BaseSync, ChainSync, MergeSync,
};
use skalla_core::skew::ExtractSpec;
use skalla_core::{
    decode_plan, encode_plan, plan_fingerprints, plan_routing, protocol, site, skew_eligible,
    DistributedPlan, DistributionInfo, OptFlags, PlanDecision, Planner, QueryScheduler,
    SchedulerConfig, SemanticCache, SiteFilter, StageKind,
};
use skalla_gmdj::eval::eval_local;
use skalla_gmdj::{BaseQuery, Catalog, EvalOptions};
use skalla_net::Message;
use skalla_obs::json::Json;
use skalla_obs::{ArgValue, Obs, Track};
use skalla_query::compile_text;
use skalla_relation::{Columns, Error, Relation};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

type Result<T> = std::result::Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

pub struct LayerPass {
    pub ledger: Ledger,
    pub failures: Vec<String>,
    pub spans: Json,
}

/// One site's tables, borrowed from the workload's master copy.
struct SiteCatalog<'a>(Vec<(&'a str, &'a Relation)>);

impl Catalog for SiteCatalog<'_> {
    fn table(&self, name: &str) -> skalla_relation::Result<&Relation> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, r)| *r)
            .ok_or_else(|| Error::Plan(format!("unknown table {name:?}")))
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median seconds of `reps` calls.
fn median_s(reps: usize, mut f: impl FnMut()) -> Option<f64> {
    median(&(0..reps).map(|_| timed(&mut f).1).collect::<Vec<_>>())
}

/// Time spent in one kind of call over the whole walk.
#[derive(Default, Clone, Copy)]
struct Call {
    total_s: f64,
    longest_s: f64,
}

/// What the walk adds up besides its spans.
#[derive(Default)]
struct Totals {
    /// Per span name (`layer.call`).
    calls: BTreeMap<&'static str, Call>,
    /// Payload bytes of every frame (each is encoded once and decoded once).
    frame_bytes: usize,
    /// Of which: frames that carried a fragment down, and their rows.
    down_bytes: usize,
    down_rows: usize,
    up_bytes: usize,
    up_rows: usize,
    up_frames: usize,
    plan_rounds: usize,
    rewrites_fired: usize,
}

impl Totals {
    /// Seconds in every call whose span name starts with one of `prefixes`.
    fn seconds(&self, prefixes: &[&str]) -> f64 {
        self.calls
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .fold(0.0, |sum, (_, call)| sum + call.total_s)
    }
}

const TRACK: Track = Track::Coordinator;

struct Walker<'a> {
    obs: Obs,
    probe: NetProbe,
    totals: Totals,
    sites: &'a [SiteCatalog<'a>],
    dist: DistributionInfo,
    eval: EvalOptions,
    op: u64,
}

/// One call into a layer: a span named `layer.call`, and its duration
/// added to that name's total.
fn step<T>(
    obs: &Obs,
    totals: &mut Totals,
    op: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let span = obs.span(TRACK, name).with("op", op);
    let (out, secs) = timed(f);
    span.finish();
    let call = totals.calls.entry(name).or_default();
    call.total_s += secs;
    call.longest_s = call.longest_s.max(secs);
    out
}

impl Walker<'_> {
    fn step<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        step(&self.obs, &mut self.totals, self.op, name, f)
    }

    /// Ship one stage task to one site and bring its answer back, every
    /// frame encoded, carried over the workload's transport and decoded.
    fn exchange(
        &mut self,
        site: usize,
        stage: usize,
        fragment: Option<&Relation>,
        plan: &DistributedPlan,
    ) -> Result<Relation> {
        let (obs, totals, op) = (&self.obs, &mut self.totals, self.op);
        let down = step(obs, totals, op, "codec.encode_down", || {
            protocol::run_stage(stage as u32, fragment)
        });
        totals.frame_bytes += down.payload.len();
        if let Some(f) = fragment {
            totals.down_bytes += down.payload.len();
            totals.down_rows += f.len();
        }
        let arrived = step(obs, totals, op, "net.down", || self.probe.down(down))?;
        let (stage_no, incoming, _) = step(obs, totals, op, "codec.decode_down", || {
            protocol::decode_run_stage(&arrived.payload)
        })
        .map_err(text)?;
        let answer = step(obs, totals, op, "site.execute_stage", || {
            site::execute_stage(
                &self.sites[site],
                plan,
                stage_no as usize,
                incoming,
                self.eval,
            )
        })
        .map_err(text)?;
        let up = step(obs, totals, op, "codec.encode_up", || {
            protocol::result(stage_no, &answer)
        });
        let arrived = step(obs, totals, op, "net.up", || self.probe.up(up))?;
        let (_, _, relation) = step(obs, totals, op, "codec.decode_up", || {
            protocol::decode_result(&arrived.payload)
        })
        .map_err(text)?;
        totals.frame_bytes += arrived.payload.len();
        totals.up_bytes += arrived.payload.len();
        totals.up_rows += relation.len();
        totals.up_frames += 1;
        Ok(relation)
    }

    /// Walk one query through every layer; returns its plan and answer.
    fn walk(&mut self, query: &Query) -> Result<(DistributedPlan, Relation)> {
        let op_span = self
            .obs
            .span(TRACK, "op")
            .with("op", self.op)
            .with("query", query.label);
        let expr = self
            .step("query.compile_text", || compile_text(&query.text))
            .map_err(text)?;
        let dist = self.dist.clone();
        let (plan, decisions) = self.step("plan.optimize", || {
            Planner::new(dist).optimize_with_decisions(&expr, OptFlags::all())
        });
        self.totals.plan_rounds += plan.n_rounds();
        self.totals.rewrites_fired += decisions
            .iter()
            .filter(|d| {
                !matches!(
                    d,
                    PlanDecision::CoalesceBlocked { .. }
                        | PlanDecision::FoldBlocked { .. }
                        | PlanDecision::SiteGroupReductionSuppressed { .. }
                )
            })
            .count();
        // The sites execute the plan they decoded, so the walk does too.
        let bytes = self.step("plan_codec.encode", || encode_plan(&plan));
        let plan = self
            .step("plan_codec.decode", || decode_plan(&bytes))
            .map_err(text)?;

        let n_sites = self.sites.len();
        plan.check_structure(n_sites).map_err(text)?;
        let schemas = plan.expr.validate(&self.sites[0]).map_err(text)?;
        let key: Vec<&str> = plan.key.iter().map(String::as_str).collect();
        let mut b_cur: Option<Relation> = match &plan.expr.base {
            BaseQuery::Literal(rel) => Some(rel.clone()),
            BaseQuery::DistinctProject { .. } => None,
        };
        for (sidx, stage) in plan.stages.iter().enumerate() {
            let stage_span = self
                .obs
                .span(TRACK, stage.label.as_str())
                .with("op", self.op);
            match &stage.kind {
                StageKind::Base => {
                    let mut sync = BaseSync::new();
                    for site in 0..n_sites {
                        let fragment = self.exchange(site, sidx, None, &plan)?;
                        self.step("coordinator.base_sync", || sync.absorb(fragment))
                            .map_err(text)?;
                    }
                    let b = self.step("coordinator.base_sync", || sync.finish(&plan.key));
                    b_cur = Some(b.map_err(text)?);
                }
                StageKind::Unit(unit) => {
                    let ship: Vec<&str> = unit.ship_columns.iter().map(String::as_str).collect();
                    let shared: Option<Relation> = match (&b_cur, unit.fold_base) {
                        (_, true) => None,
                        (Some(b), false) => Some(
                            self.step("coordinator.fragment", || b.project(&ship))
                                .map_err(text)?,
                        ),
                        (None, false) => return Err("unit stage with no base structure".into()),
                    };
                    let mut answers = Vec::with_capacity(n_sites);
                    for site in 0..n_sites {
                        let fragment = match (&unit.site_filters[site], &b_cur) {
                            (SiteFilter::Skip, _) => continue,
                            (SiteFilter::Predicate(p), Some(b)) => Some(
                                self.step("coordinator.fragment", || {
                                    b.select(&p.bind(b.schema(), None)?)?.project(&ship)
                                })
                                .map_err(text)?,
                            ),
                            _ => shared.clone(),
                        };
                        answers.push(self.exchange(site, sidx, fragment.as_ref(), &plan)?);
                    }
                    let ops = &plan.expr.ops[unit.ops.clone()];
                    let out_schema = schemas[unit.ops.end].clone();
                    let merged = if unit.local_chain {
                        self.step("coordinator.merge.chain_sync", || {
                            let mut sync = ChainSync::new(key.len());
                            for h in &answers {
                                sync.absorb(h)?;
                            }
                            match b_cur.take() {
                                Some(b) if !unit.fold_base => sync.finish_against(
                                    &b,
                                    &plan.key,
                                    &empty_aggregates(ops)?,
                                    out_schema,
                                ),
                                _ => sync.finish_folded(out_schema),
                            }
                        })
                    } else {
                        let op = &ops[0];
                        let detail = self.sites[0]
                            .table(&unit.table)
                            .map_err(text)?
                            .schema()
                            .clone();
                        let b_in = if unit.fold_base { None } else { b_cur.as_ref() };
                        let workers = self.eval.effective_parallelism();
                        self.step("coordinator.merge.merge_sync", || {
                            let mut sync = MergeSync::new(b_in, &plan.key, op)?;
                            if let Some(m) = parallel_merge_tree(answers, key.len(), op, workers)? {
                                sync.absorb(&m)?;
                            }
                            sync.finish(&schemas[unit.ops.start], op, &detail)
                        })
                    };
                    b_cur = Some(merged.map_err(text)?);
                }
            }
            stage_span.finish();
        }
        op_span.finish();
        let answer = b_cur.ok_or("plan produced no result")?;
        Ok((plan, answer))
    }
}

fn arg_json(v: &ArgValue) -> Json {
    match v {
        ArgValue::Int(i) => Json::Int(*i),
        ArgValue::UInt(u) => Json::UInt(*u),
        ArgValue::Float(f) => Json::Float(*f),
        ArgValue::Str(s) => Json::Str(s.clone()),
        ArgValue::Bool(b) => Json::Bool(*b),
    }
}

fn spans_json(workload: &str, obs: &Obs) -> Json {
    let spans = obs.recorder().map(|r| r.spans()).unwrap_or_default();
    Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("time_unit", Json::Str("us".into())),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        let end = s.start_us + s.dur_us.unwrap_or(0);
                        let mut fields = vec![
                            ("id", Json::UInt(s.id.into())),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::UInt(p.into())),
                            ),
                            ("name", Json::Str(s.name.clone())),
                            ("start", Json::UInt(s.start_us)),
                            ("end", Json::UInt(end)),
                        ];
                        fields.extend(s.args.iter().map(|(k, v)| (*k, arg_json(v))));
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// p50 latency of `n` single-client ops in the workload's bump pattern.
fn p50_of_ops(
    engine: &Engine,
    w: &Workload,
    firsts: &[Relation],
    n: usize,
    failures: &mut Vec<String>,
) -> Option<f64> {
    let mut latencies = Vec::with_capacity(n);
    for i in 0..n {
        if i % w.bump_every == 0 {
            engine.bump_partition_epoch();
        }
        let (outcome, secs) = timed(|| engine::run_op(engine, w, 0));
        match outcome {
            Ok((answers, _)) if answers.iter().zip(firsts).all(|(a, f)| bit_identical(a, f)) => {
                latencies.push(secs);
            }
            Ok(_) => failures.push("traced-overhead op: answer is not bit-identical".into()),
            Err(e) => failures.push(format!("traced-overhead op: {e}")),
        }
    }
    median(&latencies)
}

/// `obs`: the same ops on the untraced engine, then on one built with a
/// recording handle. Consumes the timed phase's engine.
fn tracing_overhead(
    ledger: &mut Ledger,
    failures: &mut Vec<String>,
    w: &Workload,
    engine: Engine,
    firsts: &[Relation],
    ops: usize,
) -> Result<()> {
    let untraced = p50_of_ops(&engine, w, firsts, ops, failures);
    drop(engine);
    let tables = engine::clone_tables(&w.tables);
    let (traced_engine, _) = engine::build(w, tables, Some(Obs::recording())).map_err(text)?;
    engine::run_op(&traced_engine, w, 0).map_err(text)?; // builds the columnar layout
    let traced = p50_of_ops(&traced_engine, w, firsts, ops, failures);
    ledger.put_timing(
        "obs.traced_overhead_share",
        untraced.zip(traced).map(|(u, t)| (t - u) / u),
        ops,
    );
    Ok(())
}

/// `relation::columns`, `gmdj` and the part of `core::site` outside the
/// kernel: the first operator of the first query over the largest fragment
/// of its detail table, on a private copy so that "cold" is cold.
fn columns_and_kernel(
    ledger: &mut Ledger,
    w: &Workload,
    sites: &[SiteCatalog],
    first_answer: &Relation,
    eval: EvalOptions,
    reps: usize,
) -> Result<()> {
    let expr = compile_text(&w.queries[0].text).map_err(text)?;
    let first_op = &expr.ops[0];
    let largest = w
        .tables
        .iter()
        .filter(|t| t.name == first_op.detail)
        .flat_map(|t| &t.parts)
        .map(|p| &p.relation)
        .max_by_key(|r| r.len())
        .ok_or("the first operator's detail table is not in the workload")?;
    let mrows = largest.len() as f64 / 1e6;
    let build_s = median_s(reps, || {
        black_box(Columns::from_rows(largest.schema(), largest.rows()));
    });
    ledger.put_timing("columns.build_ms", build_s.map(ms), reps);
    ledger.put_timing("columns.build_mrows_s", build_s.map(|s| mrows / s), reps);

    let fresh = largest.clone();
    let key_cols = expr.key_columns(&sites[0]).map_err(text)?;
    let key_cols: Vec<&str> = key_cols.iter().map(String::as_str).collect();
    let base = first_answer.project(&key_cols).map_err(text)?;
    let kernel = || {
        black_box(eval_local(&base, &fresh, first_op, eval))
            .map(drop)
            .map_err(text)
    };
    let (cold, cold_s) = timed(kernel);
    cold?;
    ledger.put_timing("kernel.cold_eval_local_ms", Some(ms(cold_s)), 1);
    let warm_s = median_s(reps, || {
        let _ = kernel();
    });
    ledger.put_timing("kernel.eval_local_ms", warm_s.map(ms), reps);
    ledger.put_timing("kernel.mrows_s", warm_s.map(|s| mrows / s), reps);

    // Deriving the local groups (`DISTINCT` over the base table's
    // fragment), which a folded plan does on every op.
    let base_s = match &expr.base {
        BaseQuery::DistinctProject { .. } => median_s(reps, || {
            let _ = black_box(expr.base.eval(&sites[0]));
        }),
        BaseQuery::Literal(_) => None,
    };
    ledger.put_timing("site.base_fragment_ms", base_s.map(ms), reps);
    Ok(())
}

/// `net`: the walk's link, timed bare — a 64-byte ping-pong, and one frame
/// of the walk's mean up-frame size.
fn bare_link(
    ledger: &mut Ledger,
    probe: &NetProbe,
    frame_bytes: usize,
    reps: usize,
    few: usize,
) -> Result<()> {
    let ping = || Message::new(protocol::TAG_RESULT, vec![0u8; 64]);
    let mut rtts = Vec::with_capacity(reps * 8);
    for _ in 0..reps * 8 {
        let (round_trip, secs) = timed(|| probe.down(ping()).and_then(|m| probe.up(m)));
        round_trip?;
        rtts.push(secs);
    }
    ledger.put_timing("net.rtt_us", median(&rtts).map(us), rtts.len());
    let mut bulk = Vec::with_capacity(few);
    for _ in 0..few {
        probe.down(ping())?;
        let frame = Message::new(protocol::TAG_RESULT, vec![0u8; frame_bytes]);
        let (sent, secs) = timed(|| probe.up(frame));
        sent?;
        bulk.push(secs);
    }
    ledger.put_timing(
        "net.bulk_mb_s",
        median(&bulk).map(|s| frame_bytes as f64 / 1e6 / s),
        few,
    );
    Ok(())
}

/// What the walk's totals say about `relation::codec`, `core::site`,
/// `core::coordinator`, `core::plan` and the walk as a whole.
fn walk_metrics(ledger: &mut Ledger, totals: &Totals, walk_s: f64) {
    let mb_s = |secs: f64| (secs > 0.0).then(|| totals.frame_bytes as f64 / 1e6 / secs);
    let per_row = |bytes: usize, rows: usize| (rows > 0).then(|| bytes as f64 / rows as f64);
    ledger.put_opt(
        "codec.encode_mb_s",
        mb_s(totals.seconds(&["codec.encode"])),
        None,
    );
    ledger.put_opt(
        "codec.decode_mb_s",
        mb_s(totals.seconds(&["codec.decode"])),
        None,
    );
    ledger.put_opt(
        "codec.down_bytes_per_row",
        per_row(totals.down_bytes, totals.down_rows),
        None,
    );
    ledger.put_opt(
        "codec.up_bytes_per_row",
        per_row(totals.up_bytes, totals.up_rows),
        None,
    );
    let slowest_stage = totals
        .calls
        .get("site.execute_stage")
        .map_or(0.0, |c| c.longest_s);
    ledger.put("site.stage_ms_max", ms(slowest_stage));
    ledger.put(
        "coordinator.base_sync_ms",
        ms(totals.seconds(&["coordinator.base_sync"])),
    );
    ledger.put(
        "coordinator.merge_ms",
        ms(totals.seconds(&["coordinator.merge"])),
    );
    ledger.put("plan.rounds", totals.plan_rounds as f64);
    ledger.put("plan.rewrites_fired", totals.rewrites_fired as f64);
    // Building the columnar layouts (op 0) is reported as
    // `columns.build_ms`; it is no share of a steady-state op.
    let all = totals.seconds(&[""]) - totals.seconds(&["columns."]);
    ledger.put("walk.total_ms", ms(walk_s));
    ledger.put("walk.compute_share", totals.seconds(&["site."]) / all);
    ledger.put(
        "walk.transfer_share",
        totals.seconds(&["codec.", "net.", "coordinator."]) / all,
    );
}

/// `query`, `core::plan`, `core::plan_codec`, `core::cache`,
/// `core::scheduler` on their own: per op, that is summed over the op's
/// queries, median of `reps`.
fn planning_and_cache(
    ledger: &mut Ledger,
    w: &Workload,
    plans: &[DistributedPlan],
    dist: DistributionInfo,
    firsts: &[Relation],
    eval: &EvalOptions,
    reps: usize,
) -> Result<()> {
    let exprs: Vec<_> = w
        .queries
        .iter()
        .map(|q| compile_text(&q.text).map_err(text))
        .collect::<Result<_>>()?;
    let encoded: Vec<Vec<u8>> = plans.iter().map(encode_plan).collect();
    let planner = Planner::new(dist);
    let mut per_op = |name, f: &mut dyn FnMut()| {
        ledger.put_timing(name, median_s(reps, f).map(us), reps);
    };
    per_op("query.compile_us", &mut || {
        for q in &w.queries {
            let _ = black_box(compile_text(&q.text));
        }
    });
    per_op("plan.optimize_us", &mut || {
        for e in &exprs {
            black_box(planner.optimize_with_decisions(e, OptFlags::all()));
        }
    });
    per_op("plan_codec.encode_us", &mut || {
        for p in plans {
            black_box(encode_plan(p));
        }
    });
    per_op("plan_codec.decode_us", &mut || {
        for b in &encoded {
            let _ = black_box(decode_plan(b));
        }
    });
    per_op("cache.fingerprint_us", &mut || {
        for p in plans {
            black_box(plan_fingerprints(p, eval));
        }
    });
    ledger.put(
        "plan_codec.bytes",
        encoded.iter().map(Vec::len).sum::<usize>() as f64,
    );

    // The workload's real answers in and out of a cache of the engine's size.
    let fingerprints: Vec<_> = plans
        .iter()
        .filter_map(|p| plan_fingerprints(p, eval).pop())
        .collect();
    let cache = SemanticCache::new(DEFAULT_CACHE_BYTES);
    let (mut inserts, mut lookups) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        cache.bump_epoch();
        let insert_all = || {
            for (fp, answer) in fingerprints.iter().zip(firsts) {
                cache.insert(*fp, answer);
            }
        };
        inserts.push(timed(insert_all).1);
        let lookup_all = || {
            for fp in &fingerprints {
                black_box(cache.lookup(*fp));
            }
        };
        lookups.push(timed(lookup_all).1);
    }
    ledger.put_timing("cache.insert_us", median(&inserts).map(us), reps);
    ledger.put_timing("cache.lookup_hit_us", median(&lookups).map(us), reps);

    // An uncontended admit + release.
    let scheduler = QueryScheduler::new(SchedulerConfig::default());
    const ADMITS: usize = 1_000;
    let admit_s = median_s(reps, || {
        for _ in 0..ADMITS {
            drop(black_box(scheduler.admit()));
        }
    });
    ledger.put_timing(
        "scheduler.admit_us",
        admit_s.map(|s| us(s) / ADMITS as f64),
        reps * ADMITS,
    );
    Ok(())
}

/// `core::skew`: only where the default planner leaves the balancer a stage
/// to work on; elsewhere the layer is bypassed and every metric says n/a.
fn skew_layer(
    ledger: &mut Ledger,
    plans: &[DistributedPlan],
    sites: &[SiteCatalog],
    eval: &EvalOptions,
    reps: usize,
    few: usize,
) -> Result<()> {
    let spec = plans.iter().find_map(skew_eligible);
    ledger.put("skew.eligible", if spec.is_some() { 1.0 } else { 0.0 });
    let mut measured = [None; 5];
    if let Some(spec) = &spec {
        let report_s = median_s(few, || {
            let _ = black_box(site::hot_report(&sites[0], spec));
        });
        let reports: Vec<_> = sites
            .iter()
            .map(|s| site::hot_report(s, spec).map_err(text))
            .collect::<Result<_>>()?;
        let routing_s = median_s(reps, || {
            black_box(plan_routing(&reports));
        });
        let routing = plan_routing(&reports);
        let split_s = match routing.assignments.iter().position(|a| !a.is_empty()) {
            Some(donor) => {
                let extract = ExtractSpec {
                    detail_cols: spec.detail_cols.clone(),
                    keys: routing.assignments[donor]
                        .iter()
                        .map(|a| a.key.clone())
                        .collect(),
                };
                let detail = sites[donor].table(&spec.table).map_err(text)?;
                median_s(few, || {
                    let _ = black_box(site::split_detail(detail, &extract, eval.morsel_rows));
                })
            }
            None => None,
        };
        measured = [
            report_s.map(ms),
            routing_s.map(us),
            Some(routing.n_donors() as f64),
            Some(routing.n_hot_keys() as f64),
            split_s.map(ms),
        ];
    }
    let names = [
        "skew.hot_report_ms",
        "skew.plan_routing_us",
        "skew.donors",
        "skew.hot_keys",
        "skew.split_detail_ms",
    ];
    for (name, value) in names.into_iter().zip(measured) {
        ledger.put_opt(name, value, None);
    }
    Ok(())
}

/// The layer pass. Takes the timed phase's engine over (for the untraced
/// half of the tracing-overhead pair) and drops it before the walk.
pub fn layer_pass(
    w: &Workload,
    engine: Engine,
    firsts: &[Relation],
    scale: Scale,
) -> Result<LayerPass> {
    let mut ledger = Ledger::default();
    let mut failures = Vec::new();
    let eval = EvalOptions::default();
    let (reps, few) = (scale.reps, scale.reps.min(5));
    let dist = engine.distribution();
    let sites: Vec<SiteCatalog> = (0..crate::workloads::N_SITES)
        .map(|site| {
            SiteCatalog(
                w.tables
                    .iter()
                    .map(|t| (t.name, &t.parts[site].relation))
                    .collect(),
            )
        })
        .collect();

    tracing_overhead(
        &mut ledger,
        &mut failures,
        w,
        engine,
        firsts,
        scale.overhead_ops,
    )?;
    columns_and_kernel(&mut ledger, w, &sites, &firsts[0], eval, few)?;

    let obs = Obs::recording();
    let mut walker = Walker {
        obs: obs.clone(),
        probe: NetProbe::open(w.transport)?,
        totals: Totals::default(),
        sites: &sites,
        dist,
        eval,
        op: 0,
    };
    // Op 0 is not an op: it builds every fragment's columnar layout, which
    // the engine's sites did on their first query, so that the walk
    // measures the steady state the timed phase measured.
    let warm_span = obs.span(TRACK, "prepare").with("op", 0u64);
    for catalog in &sites {
        for (_, relation) in &catalog.0 {
            walker.step("columns.build", || {
                relation.columns();
            });
        }
    }
    warm_span.finish();
    let mut plans = Vec::with_capacity(w.queries.len());
    let (walked, walk_s) = timed(|| -> Result<()> {
        for (i, query) in w.queries.iter().enumerate() {
            walker.op = i as u64 + 1;
            let (plan, answer) = walker.walk(query)?;
            if !bit_identical(&answer, &firsts[i]) {
                failures.push(format!(
                    "layer walk: {} differs from Skalla::execute",
                    query.label
                ));
            }
            plans.push(plan);
        }
        Ok(())
    });
    walked?;
    let Walker {
        probe,
        totals,
        dist,
        ..
    } = walker;

    let mean_up_frame = totals.up_bytes / totals.up_frames.max(1);
    bare_link(&mut ledger, &probe, mean_up_frame, reps, few)?;
    probe.close();
    walk_metrics(&mut ledger, &totals, walk_s);
    planning_and_cache(&mut ledger, w, &plans, dist, firsts, &eval, reps)?;
    skew_layer(&mut ledger, &plans, &sites, &eval, reps, few)?;

    Ok(LayerPass {
        ledger,
        failures,
        spans: spans_json(w.name, &obs),
    })
}
