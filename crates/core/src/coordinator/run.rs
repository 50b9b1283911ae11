//! Alg. GMDJDistribEval, coordinator side: [`CoordMachine`], one query's
//! end of the protocol as a state machine that touches no transport, and
//! [`run_coordinator`], the receive driver the [`Skalla`](crate::Skalla)
//! engine runs it under on every backend.

use super::{empty_aggregates, verify_unique_key, BaseSync, ChainSync, MergeSync};
use crate::plan::{DistributedPlan, SiteFilter, StageKind, Unit};
use crate::protocol::{self, Tag};
use crate::stats::StageTimes;
use crate::warehouse::EngineConfig;
use skalla_gmdj::BaseQuery;
use skalla_net::{CoordinatorTransport, Message, NetStats};
use skalla_obs::{estimate_offset_us, Obs, SpanGuard, TelemetryDelta, Track};
use skalla_relation::{DataType, Error, Relation, Result, Schema};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The plan-validation catalog: each table's schema, as relations.
type Catalog = HashMap<String, Arc<Relation>>;

/// Run one query's machine over a coordinator transport: open each round
/// it asks for and send that round's frames, then receive, with `timeout`,
/// until it has the answer. The engine calls this once per executing
/// query, whichever backend carries the bytes, so the protocol logic
/// cannot diverge between transports.
pub(crate) fn run_coordinator(
    coord: &dyn CoordinatorTransport,
    mut machine: CoordMachine<'_>,
    timeout: Duration,
    clock: &mut Clock,
) -> Result<(Relation, Vec<StageTimes>)> {
    let mut step = machine.start(clock)?;
    loop {
        for (label, frames) in step.rounds {
            coord.stats().begin_round(label);
            for (site, msg) in frames {
                coord.send(site, msg).map_err(net_err)?;
            }
        }
        machine.shipped(clock);
        if let Some(answer) = step.done {
            return Ok(answer);
        }
        let (site, msg) = coord.recv(timeout).map_err(net_err)?;
        step = machine.on_frame(site, msg, clock)?;
    }
}

/// What [`CoordMachine`] asks of its driver: open these accounting
/// rounds in order, sending each one's `(site, frame)`s; then wait for the
/// next frame or, once `done`, return the answer and each round's times.
#[derive(Default)]
pub(crate) struct Step {
    pub(crate) rounds: Vec<(String, Vec<(usize, Message)>)>,
    pub(crate) done: Option<(Relation, Vec<StageTimes>)>,
}

/// One query's coordinator as a state machine: frames in; the frames to
/// send and, at last, the answer out. Per stage it ships the base
/// structure down, absorbs the sites' sub-results as they arrive and
/// synchronizes. It reads time only through the [`Clock`] its driver
/// lends it. Its spans land on the query's own [`Track::Query`] timeline
/// (span nesting is per-track, so it holds when queries interleave).
pub(crate) struct CoordMachine<'q> {
    plan: &'q DistributedPlan,
    catalog: &'q Catalog,
    /// The obs handle, and the options the plan ships with.
    cfg: &'q EngineConfig,
    query_id: u32,
    /// The logical schema of B before each operator, and after the last.
    schemas: Vec<Schema>,
    b_cur: Option<Relation>,
    /// Per site, the fragment it holds from the previous unit, which a
    /// resident site is sent again without its key.
    held: Vec<Option<Rows>>,
    /// The finished rounds' times, the plan round's first.
    times: Vec<StageTimes>,
    round: Option<Round<'q>>,
}

/// The stage round under way.
struct Round<'q> {
    stage: u32,
    st: StageTimes,
    /// Per site the stage was sent to, its fragment's B rows.
    sent: Vec<Option<Rows>>,
    /// The sites whose answer is still to come.
    waiting: Vec<bool>,
    /// When the stage was shipped, on the coordinator recorder's clock:
    /// no site can have exported a trace delta for it earlier.
    shipped_us: u64,
    sync: Sync<'q>,
    /// The stage's span and its synchronizer's.
    spans: (SpanGuard, SpanGuard),
}

/// The synchronizer a round's answers go into.
enum Sync<'q> {
    Base(BaseSync),
    Chain(ChainSync, &'q Unit),
    Merge(Box<Merge<'q>>),
}

/// A merge unit's synchronizer, and what places and checks its answers.
struct Merge<'q> {
    unit: &'q Unit,
    /// The unit's detail table's schema.
    detail: &'q Schema,
    sync: MergeSync,
    /// Per site, its leaf: its rank among the sites the stage was sent
    /// to, so the merge tree's shape depends only on the participant set.
    leaf: Vec<usize>,
    /// A sub-result's types: a folded unit's key, as B types it, then the
    /// unit's physical accumulators'.
    result_types: Vec<DataType>,
    survivor_bytes: usize,
}

impl<'q> CoordMachine<'q> {
    /// A machine for `plan` over `n` sites, checked against `catalog`.
    pub(crate) fn new(
        plan: &'q DistributedPlan,
        catalog: &'q Catalog,
        cfg: &'q EngineConfig,
        query_id: u32,
        n: usize,
    ) -> Result<Self> {
        plan.check_structure(n)?;
        let schemas = plan.expr.validate(catalog)?;
        // A literal B's key is checked unique once, here: every later B is
        // made unique by the synchronizer that made it.
        let b_cur = match &plan.expr.base {
            BaseQuery::Literal(rel) => verify_unique_key(rel, &plan.key).map(|()| Some(rel.clone()))?,
            BaseQuery::DistinctProject { .. } => None,
        };
        let (held, times, round) = (vec![None; n], Vec::with_capacity(plan.stages.len() + 1), None);
        Ok(CoordMachine { plan, catalog, cfg, query_id, schemas, b_cur, held, times, round })
    }

    /// The plan round, which broadcasts the plan, and the first stage's.
    pub(crate) fn start(&mut self, clock: &mut Clock) -> Result<Step> {
        let n = self.held.len();
        let bytes = crate::plan_codec::encode_plan_with_options(self.plan, &self.cfg.eval);
        let msg = Message::new(protocol::TAG_PLAN, bytes);
        let mut st = StageTimes::new("plan", n);
        clock.charge(&mut st.coord_s);
        self.times.push(st);
        let mut step = self.advance(clock)?;
        step.rounds.insert(0, ("plan".into(), (0..n).map(|site| (site, msg.clone())).collect()));
        Ok(step)
    }

    /// The driver sent the last step's frames: the open round's time.
    pub(crate) fn shipped(&mut self, clock: &mut Clock) {
        if let Some(round) = &mut self.round {
            clock.charge(&mut round.st.coord_s);
        }
    }

    /// Take one frame from `site`: the time since the driver's last mark
    /// is the round's wait, the frame's handling the coordinator's. A
    /// site's `RESULT`, its whole answer to the stage, goes into the
    /// round's synchronizer as it arrives, its rows still encoded; a
    /// `TELEMETRY` frame, just ahead of it, adds its busy seconds and
    /// merges its trace delta, if any. Any other frame, a frame for
    /// another stage, and a result or telemetry frame from a site the
    /// stage was not sent to or that already answered fail the query: so
    /// neither an uninvited nor a repeating site can close the round
    /// ahead of a silent participant and drop its sub-aggregates from the
    /// merge.
    pub(crate) fn on_frame(&mut self, site: usize, msg: Message, clock: &mut Clock) -> Result<Step> {
        let late = || Error::Execution(format!("site {site} sent a frame after the query finished"));
        let round = self.round.as_mut().ok_or_else(late)?;
        clock.charge(&mut round.st.wait_s);
        let (stage, tag) = (round.stage, Tag::try_from(msg.tag)?);
        if matches!(tag, Tag::Result | Tag::Telemetry) && !round.waiting[site] {
            let why = if round.sent[site].is_some() { "after its answer" } else { "but was not sent it" };
            return Err(Error::Execution(format!("site {site} sent {} for stage {stage} {why}", tag.name())));
        }
        match tag {
            Tag::Result => {
                let answer = protocol::decode_result_frame(&msg.payload)?;
                check_stage("result", answer.stage, stage)?;
                round.waiting[site] = false;
                round.st.rows_up += answer.len() as u64;
                match &mut round.sync {
                    Sync::Base(sync) => sync.absorb_run(site, answer.relation()?)?,
                    Sync::Chain(sync, _) => sync.absorb_run(site, &answer.relation()?)?,
                    Sync::Merge(m) => {
                        check_result_types(&answer, &m.result_types, m.unit.positional())?;
                        if !m.unit.positional() {
                            m.sync.absorb_frame(m.leaf[site], answer)?;
                        } else {
                            m.survivor_bytes += answer.survivors.as_ref().map_or(0, protocol::Survivors::encoded_size);
                            let fragment = round.sent[site].as_ref().and_then(Option::as_deref);
                            m.sync.absorb_at(m.leaf[site], fragment, answer)?;
                        }
                    }
                }
            }
            Tag::Telemetry => {
                let report = protocol::decode_telemetry(&msg.payload)?;
                check_stage("telemetry", report.stage, stage)?;
                round.st.site_busy_s[site] += report.busy_s;
                if let Some(delta) = report.obs {
                    import_site_delta(&self.cfg.obs, site, delta, round.shipped_us);
                }
            }
            Tag::Error => {
                let why = protocol::decode_error(&msg.payload);
                return Err(Error::Execution(format!("site failed (site {site}, stage {stage}): {why}")));
            }
            // What a coordinator sends, and the handshake reply.
            Tag::RunStage | Tag::Shutdown | Tag::Plan | Tag::CatalogReq | Tag::Catalog | Tag::QueryDone => {
                return Err(Error::Execution(format!("unexpected message tag {} from site", msg.tag)));
            }
        }
        clock.charge(&mut round.st.coord_s);
        self.advance(clock)
    }

    /// Synchronize each round that owes nothing more and open the next
    /// stage's, until a round owes a result or the plan is done.
    fn advance(&mut self, clock: &mut Clock) -> Result<Step> {
        let mut step = Step::default();
        loop {
            // `times` holds the plan round's and each finished stage's.
            match self.round.take() {
                Some(round) if round.waiting.contains(&true) => {
                    self.round = Some(round);
                    return Ok(step);
                }
                Some(round) => self.finish(round, clock)?,
                None if self.times.len() > self.plan.stages.len() => break,
                None => self.round = Some(self.open(self.times.len() - 1, &mut step)?),
            }
        }
        let relation = self.b_cur.take().ok_or_else(|| Error::Execution("plan produced no result".into()))?;
        step.done = Some((relation, std::mem::take(&mut self.times)));
        Ok(step)
    }

    /// Open stage `sidx`'s round in `step`: ship the base structure to the
    /// participating sites, keeping each site's fragment → B map.
    fn open(&mut self, sidx: usize, step: &mut Step) -> Result<Round<'q>> {
        let (plan, n, obs) = (self.plan, self.held.len(), &self.cfg.obs);
        let (track, stage, stage_no) = (Track::Query(self.query_id), &plan.stages[sidx], sidx as u32);
        let stage_span = obs.span(track, stage.label.as_str()).with("query_id", self.query_id as u64);
        let shipped_us = obs.recorder().map_or(0, |r| r.now_us());
        let mut st = StageTimes::new(&stage.label, n);
        let mut frames = Vec::with_capacity(n);
        let mut sent: Vec<Option<Rows>> = vec![None; n];
        let (sync, name) = match &stage.kind {
            StageKind::Base => {
                let msg = protocol::run_stage(stage_no, None);
                frames.extend((0..n).map(|site| (site, msg.clone())));
                sent = vec![Some(None); n];
                (Sync::Base(BaseSync::new()), "BaseSync")
            }
            StageKind::Unit(unit) => {
                // Ship base fragments to participating sites, keeping
                // each site's fragment → B map (`None`: all of B).
                let mut ship_span = obs.span(track, "ship base");
                // A resident site already holds K: only the other columns ship.
                let resident_columns: Vec<String> =
                    unit.ship_columns.iter().filter(|c| !plan.key.contains(c)).cloned().collect();
                // The stage every site sent all of B gets, keyed and
                // resident, encoded once.
                let mut whole: [Option<Message>; 2] = [None, None];
                for (site, filter) in unit.site_filters.iter().enumerate() {
                    let (resident, rows) = match filter {
                        SiteFilter::Skip => {
                            // Thm 4, S_MD ⊂ S_B case: the whole fragment is
                            // eliminated for this site.
                            if obs.is_recording() {
                                let rows = self.b_cur.as_ref().map(|b| b.len()).unwrap_or(0);
                                obs.event(
                                    track,
                                    "group reduction skip",
                                    vec![("site", site.into()), ("rows_eliminated", rows.into())],
                                );
                            }
                            continue;
                        }
                        SiteFilter::All => (false, None),
                        SiteFilter::Predicate(p) => {
                            let b = self.b_cur.as_ref().ok_or_else(no_base)?;
                            let kept = b.selection(&p.bind(b.schema(), None)?)?;
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
                            (false, Some(kept))
                        }
                        SiteFilter::Resident => {
                            let rows = self.held[site].take().ok_or_else(|| {
                                Error::Plan(format!("stage {stage_no}: site {site} is resident but holds no rows"))
                            })?;
                            (true, rows)
                        }
                    };
                    let msg = match (unit.fold_base, &rows) {
                        (true, _) => protocol::run_stage(stage_no, None),
                        (false, rows) => {
                            let b = self.b_cur.as_ref().ok_or_else(no_base)?;
                            let columns = if resident { &resident_columns } else { &unit.ship_columns };
                            st.rows_down += rows.as_ref().map_or(b.len(), Vec::len) as u64;
                            match (rows, &mut whole[usize::from(resident)]) {
                                (None, Some(msg)) => msg.clone(),
                                (None, slot) => slot.insert(ship(stage_no, b, columns, None)?).clone(),
                                (Some(at), _) => ship(stage_no, b, columns, Some(at))?,
                            }
                        }
                    };
                    sent[site] = Some(rows);
                    frames.push((site, msg));
                }
                ship_span.arg("rows_down", st.rows_down);
                ship_span.arg("participants", frames.len());
                ship_span.arg("fold_base", unit.fold_base);
                ship_span.finish();
                if unit.local_chain {
                    (Sync::Chain(ChainSync::new(plan.key.len()), unit), "ChainSync")
                } else {
                    let op = &plan.expr.ops[unit.ops.start];
                    let b_in_schema = &self.schemas[unit.ops.start];
                    // A sub-result's types: a folded unit's key, as B
                    // types it, then the unit's physical accumulators'.
                    let unknown = || Error::Plan(format!("unknown table {:?}", unit.table));
                    let detail = self.catalog.get(&unit.table).ok_or_else(unknown)?.schema();
                    let b = if unit.fold_base { None } else { self.b_cur.as_ref() };
                    let layout = op.layout(detail)?;
                    let mut result_types = Vec::with_capacity(plan.key.len() + layout.width());
                    for k in plan.key.iter().filter(|_| !unit.positional()) {
                        result_types.push(b_in_schema.field(b_in_schema.index_of(k)?).data_type());
                    }
                    result_types.extend(layout.slots().iter().map(|s| s.field.data_type()));
                    let mut sync = MergeSync::over(b, &plan.key, op, layout)?;
                    let sites: Vec<usize> = (0..n).filter(|&s| sent[s].is_some()).collect();
                    let mut leaf = vec![0; n];
                    sites.iter().enumerate().for_each(|(l, &s)| leaf[s] = l);
                    sync.runs.sites = sites;
                    let merge = Merge { unit, detail, sync, leaf, result_types, survivor_bytes: 0 };
                    (Sync::Merge(Box::new(merge)), "MergeSync")
                }
            }
        };
        step.rounds.push((stage.label.clone(), frames));
        let waiting = sent.iter().map(Option::is_some).collect();
        let spans = (stage_span, obs.span(track, name));
        Ok(Round { stage: stage_no, st, sent, waiting, shipped_us, sync, spans })
    }

    /// Synchronize a round whose answers are all in: B becomes the
    /// stage's output, and each site's held rows what the next unit may
    /// leave it.
    fn finish(&mut self, round: Round<'q>, clock: &mut Clock) -> Result<()> {
        let Round { stage, mut st, sent, sync, spans: (mut stage_span, mut sync_span), .. } = round;
        let plan = self.plan;
        sync_span.arg("rows_up", st.rows_up);
        let (b, held) = match sync {
            Sync::Base(sync) => {
                let b = sync.finish(&plan.key)?;
                sync_span.arg("groups", b.len());
                (b, None)
            }
            Sync::Chain(sync, unit) => {
                let out_schema = self.schemas[unit.ops.end].clone();
                let b = if unit.fold_base {
                    sync.finish_folded(out_schema)?
                } else {
                    let b = self.b_cur.take().ok_or_else(no_base)?;
                    let empty = empty_aggregates(&plan.expr.ops[unit.ops.clone()])?;
                    sync.finish_against(&b, &plan.key, &empty, out_schema)?
                };
                // X does not place a folded chain's groups.
                (b, (!unit.fold_base).then_some(sent))
            }
            Sync::Merge(m) => {
                let unit = m.unit;
                let (op, b_in_schema) = (&plan.expr.ops[unit.ops.start], &self.schemas[unit.ops.start]);
                sync_span.arg("positional", unit.positional());
                sync_span.arg("survivor_bytes", m.survivor_bytes);
                // After a fold, each site's own groups, where a resident
                // next unit finds them: the B rows the pass placed a
                // folded answer's rows at.
                let next_resident = matches!(
                    plan.stages.get(stage as usize + 1).map(|s| &s.kind),
                    Some(StageKind::Unit(u)) if u.site_filters.contains(&SiteFilter::Resident)
                );
                let (b, rows) = m.sync.finish_held(b_in_schema, op, m.detail)?;
                let own = || sent.iter().zip(&m.leaf).map(|(s, &l)| s.as_ref().map(|_| Some(rows.leaf(l).to_vec())));
                match unit.fold_base {
                    true => (b, next_resident.then(|| own().collect())),
                    false => (b, Some(sent)),
                }
            }
        };
        self.b_cur = Some(b);
        self.held = held.unwrap_or_else(|| vec![None; self.held.len()]);
        sync_span.finish();
        stage_span.arg("rows_down", st.rows_down);
        stage_span.arg("rows_up", st.rows_up);
        stage_span.finish();
        clock.charge(&mut st.coord_s);
        self.times.push(st);
        Ok(())
    }
}

/// One query's time cursor. Each mark charges the wall time since the
/// previous mark to one bucket, a round's `coord_s` or `wait_s`, so the
/// rounds' buckets sum to [`Clock::wall_s`] by construction. Only
/// *site* busy seconds are CPU time (`skalla_obs::BusyTimer`), and they
/// overlap the waits.
pub(crate) struct Clock {
    start: Instant,
    mark: Instant,
}

impl Clock {
    /// A cursor whose first interval starts now.
    pub(crate) fn start() -> Clock {
        let now = wall_now();
        Clock {
            start: now,
            mark: now,
        }
    }

    /// Mark now, charging the time since the last mark to `bucket`.
    pub(crate) fn charge(&mut self, bucket: &mut f64) {
        let now = wall_now();
        *bucket += (now - self.mark).as_secs_f64();
        self.mark = now;
    }

    /// Seconds from the start to the last mark.
    pub(crate) fn wall_s(&self) -> f64 {
        (self.mark - self.start).as_secs_f64()
    }
}

/// The coordinator's wall clock, read only by [`Clock`].
#[expect(
    clippy::disallowed_methods,
    reason = "the one wall-clock read under `coordinator`: coordinator seconds, never site busy time"
)]
fn wall_now() -> Instant {
    Instant::now()
}

/// Merge a standalone site's trace delta into the coordinator's
/// recorder. The link index names the lane (`site-N`), whatever the site
/// calls itself. The site took the delta after the stage was shipped
/// and before its frame arrived, which bounds its clock offset
/// (Cristian's algorithm; see [`estimate_offset_us`]).
fn import_site_delta(obs: &Obs, site: usize, mut delta: TelemetryDelta, shipped_us: u64) {
    let Some(rec) = obs.recorder() else {
        return;
    };
    delta.process_id = site as u32 + 2;
    delta.process_name = format!("site-{site}");
    let offset = estimate_offset_us(
        rec.wall_start_unix_us(),
        &delta,
        Some((shipped_us, rec.now_us())),
    );
    rec.import_remote(delta, offset);
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

/// Refuse a merge unit's `RESULT` whose fields are not typed as `want`:
/// the unit's physical schema, after a keyed answer's key as B types it.
fn check_result_types(answer: &protocol::ResultFrame, want: &[DataType], positional: bool) -> Result<()> {
    let got = answer.schema().fields();
    if got.len() == want.len() && got.iter().zip(want).all(|(f, t)| f.data_type() == *t) {
        return Ok(());
    }
    let how = if positional { "by position with" } else { "with its key and" };
    Err(Error::Execution(format!(
        "site sent {} where the unit answers {how} accumulators {want:?}",
        answer.schema()
    )))
}

/// The B rows of a site's fragment, in fragment order: `None` is all of B.
type Rows = Option<Vec<u32>>;

fn no_base() -> Error {
    Error::Execution("unit stage with no base structure".into())
}

/// The `RUN_STAGE` task shipping the base structure's `ship_columns` — at
/// the `rows` of a Thm 4 selection, or all of them — from its columns.
fn ship(stage: u32, b: &Relation, ship_columns: &[String], rows: Option<&[u32]>) -> Result<Message> {
    let shipped = b.project(&ship_columns.iter().map(String::as_str).collect::<Vec<_>>())?;
    let fragment = match rows {
        Some(at) => shipped.gather(at),
        None => shipped,
    };
    Ok(protocol::run_stage(stage, Some(&fragment)))
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
    use crate::distribution::DistributionInfo;
    use crate::plan::{OptFlags, Planner};
    use skalla_gmdj::prelude::*;
    use skalla_relation::{row, DomainMap};

    fn catalog() -> HashMap<String, Arc<Relation>> {
        let t = Relation::new(Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]), Vec::new()).unwrap();
        HashMap::from([("t".to_string(), Arc::new(t))])
    }

    /// A base round over `t`'s groups, then one `COUNT` unit answered by
    /// position, over `n` sites.
    fn plan(n: usize) -> DistributedPlan {
        let mut dist = DistributionInfo::new(n);
        dist.set_table("t", vec![DomainMap::new(); n]);
        let expr = GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(ThetaBuilder::group_by(&["g"]).build(), vec![AggSpec::count("c")]))
            .build();
        Planner::new(dist).optimize(&expr, OptFlags::none())
    }

    /// Groups 1 and 2, as a site's base fragment.
    fn groups() -> Relation {
        Relation::new(Schema::of(&[("g", DataType::Int)]), vec![row![1i64], row![2i64]]).unwrap()
    }

    /// A stage-1 answer by position: two lone `COUNT` accumulators, under
    /// a survivor set over both of B's rows.
    fn counts() -> Message {
        let rel = Relation::new(Schema::of(&[("c", DataType::Int)]), vec![row![1i64]; 2]).unwrap();
        protocol::result_with(1, &rel, Some(&protocol::Survivors::of(&[true, true])))
    }

    /// Start a machine for `plan` and feed it `frames`, `(site, frame)`:
    /// the first error, or whether the query finished.
    fn feed(plan: &DistributedPlan, frames: Vec<(usize, Message)>) -> Result<bool> {
        let (cat, cfg) = (catalog(), EngineConfig::default());
        let n = plan.stages.iter().find_map(|s| match &s.kind {
            StageKind::Unit(u) => Some(u.site_filters.len()),
            StageKind::Base => None,
        });
        let mut clock = Clock::start();
        let mut m = CoordMachine::new(plan, &cat, &cfg, 1, n.unwrap()).unwrap();
        let mut step = m.start(&mut clock)?;
        for (site, msg) in frames {
            step = m.on_frame(site, msg, &mut clock)?;
        }
        Ok(step.done.is_some())
    }

    /// An honest base round over `n` sites.
    fn base(n: usize) -> Vec<(usize, Message)> {
        (0..n).map(|site| (site, protocol::result(0, &groups()))).collect()
    }

    #[test]
    fn a_repeating_site_cannot_close_the_round_for_a_silent_one() {
        // Site 0 (a remote process is outside input) sends its answer
        // twice before site 1 answers. Counting completions without
        // per-site memory closed the round here and merged without
        // site 1's sub-aggregates.
        let plan = plan(2);
        let twice = vec![(0, protocol::result(0, &groups())), (0, protocol::result(0, &groups()))];
        let err = feed(&plan, twice).unwrap_err().to_string();
        assert!(err.contains("site 0") && err.contains("after its answer"), "{err}");

        // The same with answers by position under a survivor set, and with
        // a telemetry frame after the answer.
        let telemetry = protocol::telemetry(&protocol::SiteTelemetry { stage: 1, ..Default::default() });
        for again in [counts(), telemetry] {
            let mut frames = base(2);
            frames.extend([(0, counts()), (0, again)]);
            let err = feed(&plan, frames).unwrap_err().to_string();
            assert!(err.contains("site 0") && err.contains("after its answer"), "{err}");
        }

        // The honest round: one answer from each site.
        let mut frames = base(2);
        frames.extend([(0, counts()), (1, counts())]);
        assert!(feed(&plan, frames).unwrap());
    }

    #[test]
    fn a_site_the_stage_was_not_sent_to_cannot_close_the_round() {
        // Thm 4 skipped site 2. Its result, counted as a completion,
        // closed the round before site 1 answered, and site 1's
        // sub-aggregates were dropped from the merge.
        let mut plan = plan(3);
        if let StageKind::Unit(u) = &mut plan.stages[1].kind {
            u.site_filters[2] = SiteFilter::Skip;
        }
        let mut frames = base(3);
        frames.extend([(2, counts()), (0, counts())]);
        let err = feed(&plan, frames).unwrap_err().to_string();
        assert!(err.contains("site 2") && err.contains("was not sent it"), "{err}");
    }

    #[test]
    fn a_retired_skew_tag_is_an_error_not_a_hang() {
        // Tag byte 10 was HH_REPORT until protocol v7. A v6 site (or any
        // peer) sending it mid-round gets the round refused at once,
        // rather than the coordinator waiting out its timeout for a
        // result that is never coming.
        let frames = vec![(0, protocol::result(0, &groups())), (1, Message::new(10, vec![0; 8]))];
        let err = feed(&plan(2), frames).unwrap_err().to_string();
        assert!(err.contains("unknown frame tag 10"), "{err}");
    }
}
