//! Alg. GMDJDistribEval, coordinator side: the stage loop the
//! [`Skalla`](crate::Skalla) engine runs once per executing query, and
//! the one receive loop every stage round goes through — results and
//! the sites' telemetry alike.

use super::{empty_aggregates, verify_unique_key, BaseSync, ChainSync, MergeSync};
use crate::plan::{DistributedPlan, SiteFilter, StageKind};
use crate::protocol::{self, Tag};
use crate::stats::StageTimes;
use crate::warehouse::EngineConfig;
use skalla_gmdj::BaseQuery;
use skalla_net::{CoordinatorTransport, Message, NetStats};
use skalla_obs::{estimate_offset_us, Obs, TelemetryDelta, Track};
use skalla_relation::{DataType, Error, Relation, Result, Schema};
use std::collections::HashMap;
use std::time::Instant;

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
/// Of `cfg`, the coordinator reads the round timeout and the obs handle.
/// Each site's busy seconds for a stage arrive in
/// that round (see [`collect`]) and land in the stage's
/// [`StageTimes::site_busy_s`]. The `clock` charges every moment from
/// its last mark to the end of the last stage to one stage's
/// coordinator or wait seconds.
pub(crate) fn run_coordinator(
    coord: &dyn CoordinatorTransport,
    plan: &DistributedPlan,
    schemas: &[Schema],
    detail_schemas: &HashMap<String, Schema>,
    cfg: &EngineConfig,
    query_id: u32,
    clock: &mut Clock,
) -> Result<(Relation, Vec<StageTimes>)> {
    let obs = &cfg.obs;
    let track = Track::Query(query_id);
    let n = coord.n_sites();
    // A literal B's key is checked unique once, here: every later B is
    // made unique by the synchronizer that made it.
    let mut b_cur = match &plan.expr.base {
        BaseQuery::Literal(rel) => verify_unique_key(rel, &plan.key).map(|()| Some(rel.clone()))?,
        BaseQuery::DistinctProject { .. } => None,
    };
    let mut stage_times = Vec::with_capacity(plan.stages.len());
    // Per site, the fragment it holds from the previous unit, which a
    // resident site is sent again without its key.
    let mut held: Vec<Option<Rows>> = vec![None; n];

    for (sidx, stage) in plan.stages.iter().enumerate() {
        coord.stats().begin_round(stage.label.clone());
        let stage_no = sidx as u32;
        let mut stage_span = obs
            .span(track, stage.label.as_str())
            .with("query_id", query_id as u64);
        let mut st = StageTimes::new(&stage.label, n);

        match &stage.kind {
            StageKind::Base => {
                held = vec![None; n];
                let round = Round::shipped_now(stage_no, vec![true; n], obs);
                coord
                    .broadcast(&protocol::run_stage(stage_no, None))
                    .map_err(net_err)?;
                let mut sync_span = obs.span(track, "BaseSync");
                let mut sync = BaseSync::new();
                collect(coord, cfg, &round, &mut st, clock, |_, c| sync.absorb(c.relation()?))?;
                b_cur = Some(sync.finish(&plan.key)?);
                sync_span.arg("rows_up", st.rows_up);
                sync_span.arg("groups", b_cur.as_ref().map(|b| b.len()).unwrap_or(0));
                sync_span.finish();
            }
            StageKind::Unit(unit) => {
                // 1. Ship base fragments to participating sites, keeping
                // each site's fragment → B map (`None`: all of B).
                let no_base = || Error::Execution("unit stage with no base structure".into());
                let mut ship_span = obs.span(track, "ship base");
                let mut round = Round::shipped_now(stage_no, vec![false; n], obs);
                let mut fragments: Vec<Option<Rows>> = vec![None; n];
                // A resident site already holds K: only the other columns ship.
                let resident_columns: Vec<String> =
                    unit.ship_columns.iter().filter(|c| !plan.key.contains(c)).cloned().collect();
                // The stage every site sent all of B gets, keyed and
                // resident, encoded once.
                let mut whole: [Option<Message>; 2] = [None, None];
                for site in 0..n {
                    let (resident, rows) = match &unit.site_filters[site] {
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
                        SiteFilter::All => (false, None),
                        SiteFilter::Predicate(p) => {
                            let b = b_cur.as_ref().ok_or_else(no_base)?;
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
                            let rows = held[site].take().ok_or_else(|| {
                                Error::Plan(format!("stage {stage_no}: site {site} is resident but holds no rows"))
                            })?;
                            (true, rows)
                        }
                    };
                    let msg = match (unit.fold_base, &rows) {
                        (true, _) => protocol::run_stage(stage_no, None),
                        (false, rows) => {
                            let b = b_cur.as_ref().ok_or_else(no_base)?;
                            let columns = if resident { &resident_columns } else { &unit.ship_columns };
                            st.rows_down += rows.as_ref().map_or(b.len(), Vec::len) as u64;
                            match (rows, &mut whole[usize::from(resident)]) {
                                (None, Some(msg)) => msg.clone(),
                                (None, slot) => slot.insert(ship(stage_no, b, columns, None)?).clone(),
                                (Some(at), _) => ship(stage_no, b, columns, Some(at))?,
                            }
                        }
                    };
                    round.owed[site] = true;
                    fragments[site] = Some(rows);
                    coord.send(site, msg).map_err(net_err)?;
                }
                ship_span.arg("rows_down", st.rows_down);
                ship_span.arg("participants", round.owed.iter().filter(|o| **o).count());
                ship_span.arg("fold_base", unit.fold_base);
                ship_span.finish();

                // 2. Synchronize sub-results.
                let ops = &plan.expr.ops[unit.ops.clone()];
                let b_in_schema = &schemas[unit.ops.start];
                let out_schema = schemas[unit.ops.end].clone();
                // After a fold, each site's own groups, where a resident
                // next unit finds them.
                let own_groups = if unit.local_chain {
                    let mut sync_span = obs.span(track, "ChainSync");
                    let mut sync = ChainSync::new(plan.key.len());
                    collect(coord, cfg, &round, &mut st, clock, |_, c| sync.absorb(&c.relation()?))?;
                    b_cur = Some(if unit.fold_base {
                        sync.finish_folded(out_schema)?
                    } else {
                        let empty = empty_aggregates(ops)?;
                        let b = b_cur.take().ok_or_else(no_base)?;
                        sync.finish_against(&b, &plan.key, &empty, out_schema)?
                    });
                    sync_span.arg("rows_up", st.rows_up);
                    sync_span.finish();
                    // X does not place a folded chain's groups.
                    None
                } else {
                    let mut sync_span = obs.span(track, "MergeSync");
                    let op = &ops[0];
                    let detail = detail_schemas
                        .get(&unit.table)
                        .ok_or_else(|| Error::Plan(format!("unknown table {:?}", unit.table)))?;
                    // A sub-result's types: a folded unit's key, as B
                    // types it, then the unit's physical accumulators'.
                    let positional = unit.positional();
                    let mut result_types = Vec::with_capacity(plan.key.len() + op.layout().width());
                    for k in plan.key.iter().filter(|_| !positional) {
                        result_types.push(b_in_schema.field(b_in_schema.index_of(k)?).data_type());
                    }
                    let acc = op.layout().physical_fields(detail)?;
                    result_types.extend(acc.iter().map(|f| f.data_type()));
                    let mut sync = MergeSync::new(
                        if unit.fold_base { None } else { b_cur.as_ref() },
                        &plan.key,
                        op,
                    )?;
                    // Each chunk goes into X as it lands, into its site's
                    // leaf: the site's rank among the sites the stage was
                    // sent to, so the merge tree's shape depends only on
                    // the participant set.
                    let leaf: Vec<usize> = round
                        .owed
                        .iter()
                        .scan(0, |next, &owed| {
                            let rank = *next;
                            *next += usize::from(owed);
                            Some(rank)
                        })
                        .collect();
                    let (mut n_chunks, mut survivor_bytes) = (0usize, 0usize);
                    collect(coord, cfg, &round, &mut st, clock, |site, c| {
                        n_chunks += 1;
                        check_result_types(&c, &result_types, positional)?;
                        if !positional {
                            return sync.absorb_frame(leaf[site], c);
                        }
                        survivor_bytes += c.survivors.as_ref().map_or(0, protocol::Survivors::encoded_size);
                        sync.absorb_at(leaf[site], fragments[site].as_ref().and_then(Option::as_deref), c)
                    })?;
                    // A folded answer's rows are the B rows they landed at.
                    let next_resident = matches!(
                        plan.stages.get(sidx + 1).map(|s| &s.kind),
                        Some(StageKind::Unit(u)) if u.site_filters.contains(&SiteFilter::Resident)
                    );
                    let own_groups = if unit.fold_base && next_resident {
                        let (b_next, rows) = sync.finish_held(b_in_schema, op, detail)?;
                        b_cur = Some(b_next);
                        Some((0..n).map(|s| round.owed[s].then(|| Some(rows.leaf(leaf[s]).to_vec()))).collect())
                    } else {
                        b_cur = Some(sync.finish(b_in_schema, op, detail)?);
                        None
                    };
                    sync_span.arg("rows_up", st.rows_up);
                    sync_span.arg("chunks", n_chunks);
                    sync_span.arg("positional", positional);
                    sync_span.arg("survivor_bytes", survivor_bytes);
                    sync_span.finish();
                    own_groups
                };
                held = match own_groups {
                    Some(own) => own,
                    None if unit.fold_base => vec![None; n],
                    None => fragments,
                };
            }
        }
        stage_span.arg("rows_down", st.rows_down);
        stage_span.arg("rows_up", st.rows_up);
        stage_span.finish();
        clock.charge(&mut st.coord_s);
        stage_times.push(st);
    }

    let relation = b_cur.ok_or_else(|| Error::Execution("plan produced no result".into()))?;
    Ok((relation, stage_times))
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

/// One stage round as [`collect`] receives it.
struct Round {
    stage: u32,
    /// `owed[site]`: the stage was sent to `site`, which owes it a result.
    owed: Vec<bool>,
    /// When the stage was shipped, on the coordinator recorder's clock:
    /// no site can have exported a trace delta for it earlier.
    shipped_us: u64,
}

impl Round {
    fn shipped_now(stage: u32, owed: Vec<bool>, obs: &Obs) -> Round {
        Round {
            stage,
            owed,
            shipped_us: obs.recorder().map_or(0, |r| r.now_us()),
        }
    }
}

/// Receive one stage round into `st`: the time up to the call is the
/// coordinator's, then each frame's receipt is charged as a wait and its
/// handling as the coordinator's. Result chunks from the owed sites
/// (each site's result possibly row-blocked into several) are fed to
/// `absorb` with the sending site's id as they arrive, their rows still
/// encoded. Each site's
/// `TELEMETRY` frame, sent just ahead of its final chunk, adds its busy
/// seconds and merges its trace delta, if any, into the coordinator's
/// recorder. Any other frame, a frame for another stage, and a result or
/// telemetry frame from a site the stage was not sent to or that already
/// sent its final chunk end the round with an error: so neither an
/// uninvited nor a repeating site can close the round ahead of a silent
/// participant and drop its sub-aggregates from the merge.
fn collect(
    coord: &dyn CoordinatorTransport,
    cfg: &EngineConfig,
    round: &Round,
    st: &mut StageTimes,
    clock: &mut Clock,
    mut absorb: impl FnMut(usize, protocol::ResultChunk) -> Result<()>,
) -> Result<()> {
    clock.charge(&mut st.coord_s);
    let stage = round.stage;
    // The sites whose final result chunk is still to come.
    let mut waiting = round.owed.clone();
    while waiting.contains(&true) {
        let (site, msg) = coord.recv(cfg.timeout).map_err(net_err)?;
        clock.charge(&mut st.wait_s);
        let tag = Tag::try_from(msg.tag)?;
        if matches!(tag, Tag::Result | Tag::Telemetry) && !waiting[site] {
            let why = if round.owed[site] {
                "after its final one"
            } else {
                "but was not sent it"
            };
            return Err(Error::Execution(format!(
                "site {site} sent {} for stage {stage} {why}",
                tag.name()
            )));
        }
        match tag {
            Tag::Result => {
                let chunk = protocol::decode_result_chunk(&msg.payload)?;
                check_stage("result", chunk.stage, stage)?;
                if chunk.last {
                    waiting[site] = false;
                }
                st.rows_up += chunk.len() as u64;
                absorb(site, chunk)?;
            }
            Tag::Telemetry => {
                let report = protocol::decode_telemetry(&msg.payload)?;
                check_stage("telemetry", report.stage, stage)?;
                st.site_busy_s[site] += report.busy_s;
                if let Some(delta) = report.obs {
                    import_site_delta(&cfg.obs, site, delta, round.shipped_us);
                }
            }
            Tag::Error => {
                return Err(Error::Execution(format!(
                    "site failed: {}",
                    protocol::decode_error(&msg.payload)
                )));
            }
            // What a coordinator sends, and the handshake reply.
            Tag::RunStage
            | Tag::Shutdown
            | Tag::Plan
            | Tag::CatalogReq
            | Tag::Catalog
            | Tag::QueryDone => return Err(unexpected_tag(msg.tag)),
        }
        clock.charge(&mut st.coord_s);
    }
    Ok(())
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

/// Refuse a merge unit's `RESULT` whose fields are not typed as `want`:
/// the unit's physical schema, after a keyed answer's key as B types it.
fn check_result_types(chunk: &protocol::ResultChunk, want: &[DataType], positional: bool) -> Result<()> {
    let got = chunk.schema().fields();
    if got.len() == want.len() && got.iter().zip(want).all(|(f, t)| f.data_type() == *t) {
        return Ok(());
    }
    let how = if positional { "by position with" } else { "with its key and" };
    Err(Error::Execution(format!(
        "site sent {} where the unit answers {how} accumulators {want:?}",
        chunk.schema()
    )))
}

/// The B rows of a site's fragment, in fragment order: `None` is all of B.
type Rows = Option<Vec<u32>>;

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
    use skalla_net::{star, Message, SiteTransport};
    use skalla_relation::{row, DataType};
    use std::time::Duration;

    /// One row of an answer by position: a lone `COUNT` accumulator.
    fn one_row(c: i64) -> Relation {
        Relation::new(Schema::of(&[("c", DataType::Int)]), vec![row![c]]).unwrap()
    }

    /// [`one_row`] as a site's first chunk under Prop 1: its survivor
    /// set (fragment row 1 of 2) rides along.
    fn first_of_two(c: i64) -> Message {
        let survivors = protocol::Survivors::of(&[false, true]);
        let rel = one_row(c);
        protocol::result_columns(1, rel.schema(), 1, &[rel.column(0)], false, Some(&survivors))
    }

    /// Run `collect` for stage 1 of a round owed by the sites in
    /// `owed`, returning which sites' chunks were absorbed.
    fn absorbed(coord: &dyn CoordinatorTransport, owed: &[usize]) -> Result<Vec<usize>> {
        let cfg = EngineConfig {
            timeout: Duration::from_secs(5),
            ..EngineConfig::default()
        };
        let mut round = Round::shipped_now(1, vec![false; coord.n_sites()], &cfg.obs);
        for &site in owed {
            round.owed[site] = true;
        }
        let mut st = StageTimes::new("", coord.n_sites());
        let mut from = Vec::new();
        let absorb = |site, _chunk: protocol::ResultChunk| {
            from.push(site);
            Ok(())
        };
        collect(coord, &cfg, &round, &mut st, &mut Clock::start(), absorb)?;
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
        let err = absorbed(&coord, &[0, 1]).unwrap_err().to_string();
        assert!(err.contains("site 0") && err.contains("after its final one"), "{err}");

        // The same with a survivor set leading site 0's answer.
        let (coord, sites) = star(2);
        sites[0].send(first_of_two(0)).unwrap();
        for _ in 0..2 {
            sites[0].send(protocol::result(1, &one_row(0))).unwrap();
        }
        sites[1].send(protocol::result(1, &one_row(1))).unwrap();
        let err = absorbed(&coord, &[0, 1]).unwrap_err().to_string();
        assert!(err.contains("site 0") && err.contains("after its final one"), "{err}");

        // The honest round: chunked site 0, its survivor set first, then
        // site 1.
        let (coord, sites) = star(2);
        sites[0].send(first_of_two(0)).unwrap();
        sites[0].send(protocol::result(1, &one_row(2))).unwrap();
        sites[1].send(protocol::result(1, &one_row(1))).unwrap();
        assert_eq!(absorbed(&coord, &[0, 1]).unwrap(), vec![0, 0, 1]);
    }

    #[test]
    fn a_site_the_stage_was_not_sent_to_cannot_close_the_round() {
        // Thm 4 skipped site 2. Its result, counted as a completion,
        // closed the round before site 1 answered, and site 1's
        // sub-aggregates were dropped from the merge.
        let (coord, sites) = star(3);
        sites[2].send(first_of_two(2)).unwrap();
        sites[0].send(protocol::result(1, &one_row(0))).unwrap();
        let err = absorbed(&coord, &[0, 1]).unwrap_err().to_string();
        assert!(
            err.contains("site 2") && err.contains("was not sent it"),
            "{err}"
        );
    }

    #[test]
    fn a_retired_skew_tag_is_an_error_not_a_hang() {
        // Tag byte 10 was HH_REPORT until protocol v7. A v6 site (or any
        // peer) sending it mid-round gets the round refused at once,
        // rather than the coordinator waiting out its timeout for a
        // result that is never coming.
        let (coord, sites) = star(2);
        sites[0].send(protocol::result(1, &one_row(0))).unwrap();
        sites[1].send(Message::new(10, vec![0; 8])).unwrap();
        let err = absorbed(&coord, &[0, 1]).unwrap_err().to_string();
        assert!(err.contains("unknown frame tag 10"), "{err}");
    }
}
