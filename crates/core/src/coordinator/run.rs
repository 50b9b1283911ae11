//! Alg. GMDJDistribEval, coordinator side: the stage loop the
//! [`Skalla`](crate::Skalla) engine runs once per executing query, and
//! the one receive loop every stage round goes through — results and
//! the sites' telemetry alike.

use super::{empty_aggregates, BaseSync, ChainSync, MergeSync};
use crate::plan::{DistributedPlan, SiteFilter, StageKind};
use crate::protocol::{self, Tag};
use crate::stats::StageTimes;
use crate::warehouse::EngineConfig;
use skalla_gmdj::BaseQuery;
use skalla_net::{CoordinatorTransport, Message, NetStats};
use skalla_obs::{estimate_offset_us, Obs, TelemetryDelta, Track};
use skalla_relation::{Error, Relation, Result, Schema};
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
/// `resume` seeds execution from a cached prefix snapshot: `(j, b)`
/// adopts `b` as the synchronized base structure after stage `j` and
/// skips stages `0..=j` entirely — no site is contacted for them, but
/// each still contributes an empty round (and a zero
/// [`StageTimes`] entry) so round indices, traffic series, and the
/// busy-time merge stay aligned with the plan. Sites evaluate each
/// stage statelessly from the shipped fragment, so the resumed suffix
/// is bit-identical to a cold run.
///
/// Of `cfg`, the coordinator reads the round timeout and the obs handle.
/// Each site's busy seconds for a stage arrive in
/// that round (see [`collect`]) and land in the stage's
/// [`StageTimes::site_busy_s`].
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
    let obs = &cfg.obs;
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
                let round = Round::shipped_now(stage_no, vec![true; n], obs);
                coord
                    .broadcast(&protocol::run_stage(stage_no, None))
                    .map_err(net_err)?;
                let mut sync_span = obs.span(track, "BaseSync");
                let mut sync = BaseSync::new();
                collect(coord, cfg, &round, &mut st, |_, c| sync.absorb(c.relation()?))?;
                let t = wall_now();
                b_cur = Some(sync.finish(&plan.key)?);
                st.coord_s += t.elapsed().as_secs_f64();
                sync_span.arg("rows_up", st.rows_up);
                sync_span.arg("groups", b_cur.as_ref().map(|b| b.len()).unwrap_or(0));
                sync_span.finish();
            }
            StageKind::Unit(unit) => {
                // 1. Ship base fragments to participating sites.
                let no_base = || Error::Execution("unit stage with no base structure".into());
                let t = wall_now();
                let mut ship_span = obs.span(track, "ship base");
                let mut round = Round::shipped_now(stage_no, vec![false; n], obs);
                // The stage every `SiteFilter::All` site gets, encoded once:
                // its fragment's row count and the message.
                let mut shared: Option<(usize, Message)> = None;
                for site in 0..n {
                    let (rows, msg) = match &unit.site_filters[site] {
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
                        SiteFilter::All => {
                            let (rows, msg) = match shared.take() {
                                Some(s) => s,
                                None if unit.fold_base => (0, protocol::run_stage(stage_no, None)),
                                None => {
                                    let b = b_cur.as_ref().ok_or_else(no_base)?;
                                    (b.len(), ship(stage_no, b, &unit.ship_columns)?)
                                }
                            };
                            let copy = msg.clone();
                            shared = Some((rows, msg));
                            (rows, copy)
                        }
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
                            (kept.len(), ship(stage_no, &kept, &unit.ship_columns)?)
                        }
                    };
                    round.owed[site] = true;
                    st.rows_down += rows as u64;
                    coord.send(site, msg).map_err(net_err)?;
                }
                st.coord_s += t.elapsed().as_secs_f64();
                ship_span.arg("rows_down", st.rows_down);
                ship_span.arg("participants", round.owed.iter().filter(|o| **o).count());
                ship_span.arg("fold_base", unit.fold_base);
                ship_span.finish();

                // 2. Synchronize sub-results.
                let ops = &plan.expr.ops[unit.ops.clone()];
                let b_in_schema = &schemas[unit.ops.start];
                let out_schema = schemas[unit.ops.end].clone();
                if unit.local_chain {
                    let mut sync_span = obs.span(track, "ChainSync");
                    let mut sync = ChainSync::new(plan.key.len());
                    collect(coord, cfg, &round, &mut st, |_, c| sync.absorb(&c.relation()?))?;
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
                    let mut n_chunks = 0usize;
                    collect(coord, cfg, &round, &mut st, |site, c| {
                        n_chunks += 1;
                        sync.absorb_frame(leaf[site], c)
                    })?;
                    let t = wall_now();
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

/// Receive one stage round into `st`. Result chunks from the owed sites
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
    mut absorb: impl FnMut(usize, protocol::ResultChunk<'_>) -> Result<()>,
) -> Result<()> {
    let stage = round.stage;
    // The sites whose final result chunk is still to come.
    let mut waiting = round.owed.clone();
    while waiting.contains(&true) {
        let (site, msg) = coord.recv(cfg.timeout).map_err(net_err)?;
        let t = wall_now();
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
                st.rows_up += chunk.rows_left() as u64;
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
        st.coord_s += t.elapsed().as_secs_f64();
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

/// The `RUN_STAGE` task shipping the base structure's `ship_columns`,
/// encoded straight from its rows.
fn ship(stage: u32, b: &Relation, ship_columns: &[String]) -> Result<Message> {
    let cols = b
        .schema()
        .indexes_of(&ship_columns.iter().map(String::as_str).collect::<Vec<_>>())?;
    protocol::run_stage_projected(stage, b, &cols)
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

    fn one_row(g: i64) -> Relation {
        Relation::new(Schema::of(&[("g", DataType::Int)]), vec![row![g]]).unwrap()
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
        let mut st = StageTimes {
            site_busy_s: vec![0.0; coord.n_sites()],
            ..StageTimes::default()
        };
        let mut from = Vec::new();
        let absorb = |site, _chunk: protocol::ResultChunk<'_>| {
            from.push(site);
            Ok(())
        };
        collect(coord, &cfg, &round, &mut st, absorb)?;
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

        // The honest round: chunked site 0, then site 1.
        let (coord, sites) = star(2);
        sites[0].send(protocol::result_chunk(1, &one_row(0), false)).unwrap();
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
        sites[2].send(protocol::result(1, &one_row(2))).unwrap();
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
