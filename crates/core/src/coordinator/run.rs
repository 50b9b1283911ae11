//! Alg. GMDJDistribEval, coordinator side: the stage loop the
//! [`Skalla`](crate::Skalla) engine runs once per executing query, and
//! the one receive loop every stage round goes through.

use super::{empty_aggregates, parallel_merge_tree, BaseSync, ChainSync, MergeSync, PartialMerge};
use crate::plan::{DistributedPlan, SiteFilter, StageKind};
use crate::protocol::{self, Tag};
use crate::stats::StageTimes;
use crate::warehouse::EngineConfig;
use skalla_gmdj::BaseQuery;
use skalla_net::{CoordinatorTransport, NetStats};
use skalla_obs::Track;
use skalla_relation::{Error, Relation, Result, Schema};
use std::collections::HashMap;
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
/// is bit-identical to a cold run.
///
/// Of `cfg`, the coordinator reads the round timeout, the obs handle and
/// the merge parallelism.
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
                coord
                    .broadcast(&protocol::run_stage(stage_no, None))
                    .map_err(net_err)?;
                let mut sync_span = obs.span(track, "BaseSync");
                let mut sync = BaseSync::new();
                st.coord_s += collect(coord, timeout, n, stage_no, |_, rel| {
                    st.rows_up += rel.len() as u64;
                    sync.absorb(rel)
                })?;
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
                let mut participants = 0usize;
                let shared_fragment: Option<Relation> = if unit.fold_base {
                    None
                } else {
                    let b = b_cur.as_ref().ok_or_else(no_base)?;
                    Some(project_ship(b, &unit.ship_columns)?)
                };
                for site in 0..n {
                    let fragment = match &unit.site_filters[site] {
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
                    if let Some(f) = &fragment {
                        st.rows_down += f.len() as u64;
                    }
                    coord
                        .send(site, protocol::run_stage(stage_no, fragment.as_ref()))
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
                    st.coord_s += collect(coord, timeout, participants, stage_no, |_, rel| {
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
                    // keys, so this is a bitwise pass-through), then
                    // merge across sites as a parallel binary tree whose
                    // shape depends only on the participant set.
                    let mut chunks_per_site: Vec<Vec<Relation>> = vec![Vec::new(); n];
                    let busy = collect(coord, timeout, participants, stage_no, |site, rel| {
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
                    for chunks in chunks_per_site {
                        n_chunks += chunks.len();
                        if chunks.len() == 1 {
                            per_site.extend(chunks);
                            continue;
                        }
                        // A site that sent no chunk contributes nothing.
                        let Some(schema) = chunks.first().map(|c| c.schema_ref()) else {
                            continue;
                        };
                        let mut pm = PartialMerge::new(plan.key.len(), op);
                        for c in &chunks {
                            pm.absorb(c)?;
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
/// with the sending site's id as they arrive; any other frame a site
/// sends ends the round with an error. Completion is remembered per site: a chunk from a site that
/// already sent its final one is an error rather than a second
/// completion, so a repeating site cannot close the round ahead of a
/// silent one and drop that site's sub-aggregates from the merge.
/// Returns coordinator busy seconds (decode + absorb, excluding waits).
fn collect(
    coord: &dyn CoordinatorTransport,
    timeout: Duration,
    expected: usize,
    stage: u32,
    mut absorb: impl FnMut(usize, Relation) -> Result<()>,
) -> Result<f64> {
    let mut busy = 0.0;
    let mut done = vec![false; coord.n_sites()];
    let mut finished = 0usize;
    while finished < expected {
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
            // What a coordinator sends, the handshake reply, and telemetry
            // (which answers QUERY_DONE, after the last round).
            Tag::RunStage
            | Tag::Shutdown
            | Tag::Plan
            | Tag::CatalogReq
            | Tag::Catalog
            | Tag::QueryDone
            | Tag::Telemetry => return Err(unexpected_tag(msg.tag)),
        }
        busy += t.elapsed().as_secs_f64();
    }
    Ok(busy)
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
    use skalla_net::{star, Message};
    use skalla_relation::{row, DataType};

    const TIMEOUT: Duration = Duration::from_secs(5);

    fn one_row(g: i64) -> Relation {
        Relation::new(Schema::of(&[("g", DataType::Int)]), vec![row![g]]).unwrap()
    }

    /// Run `collect` for stage 1 of a two-site round, returning which
    /// sites' chunks were absorbed.
    fn absorbed(coord: &dyn CoordinatorTransport) -> Result<Vec<usize>> {
        let mut from = Vec::new();
        let absorb = |site, _rel| {
            from.push(site);
            Ok(())
        };
        collect(coord, TIMEOUT, 2, 1, absorb)?;
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
        let err = absorbed(&coord).unwrap_err().to_string();
        assert!(err.contains("site 0") && err.contains("after its final one"), "{err}");

        // The honest round: chunked site 0, then site 1.
        let (coord, sites) = star(2);
        sites[0].send(protocol::result_chunk(1, &one_row(0), false)).unwrap();
        sites[0].send(protocol::result(1, &one_row(2))).unwrap();
        sites[1].send(protocol::result(1, &one_row(1))).unwrap();
        assert_eq!(absorbed(&coord).unwrap(), vec![0, 0, 1]);
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
        let err = absorbed(&coord).unwrap_err().to_string();
        assert!(err.contains("unknown frame tag 10"), "{err}");
    }
}
