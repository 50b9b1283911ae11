//! The deterministic driver: one query's [`CoordMachine`] and k
//! [`SiteMachine`]s on one thread, every stage task run inline, and a
//! seeded generator choosing which link delivers its next frame. Each link
//! keeps its order, as a channel or a TCP stream does; the links of
//! different sites interleave freely. So one seed is one arrival order,
//! and rerunning it replays the same frames.

// No wall clock and no hash-order iteration here: a hash-order walk
// would break seed replay (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::coordinator::{Clock, CoordMachine};
use crate::plan::DistributedPlan;
use crate::protocol::{self, Tag};
use crate::site::{Action, SiteMachine};
use crate::warehouse::EngineConfig;
use skalla_datagen::cases::{Rng, StdRng};
use skalla_net::Message;
use skalla_obs::Obs;
use skalla_relation::{Error, Relation, Result};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One site's partition, as the engine's site threads hold it.
type SiteCatalog = Arc<HashMap<String, Arc<Relation>>>;

/// One delivered frame: its sender and receiver (`None` is the
/// coordinator), its tag and stage, and its payload — left empty for
/// `TELEMETRY`, whose busy seconds are measured time.
#[derive(Debug, PartialEq)]
struct Delivery {
    from: Option<usize>,
    to: Option<usize>,
    tag: u8,
    stage: Option<u32>,
    payload: Vec<u8>,
}

impl Delivery {
    fn of(from: Option<usize>, to: Option<usize>, msg: &Message) -> Delivery {
        let lead = || msg.payload.get(..4).and_then(|b| b.try_into().ok()).map(u32::from_le_bytes);
        let (stage, payload) = match Tag::try_from(msg.tag) {
            Ok(Tag::Telemetry) => (protocol::decode_telemetry(&msg.payload).ok().map(|t| t.stage), Vec::new()),
            Ok(Tag::RunStage | Tag::Result) => (lead(), msg.payload.clone()),
            _ => (None, msg.payload.clone()),
        };
        Delivery { from, to, tag: msg.tag, stage, payload }
    }
}

/// Run `plan` over sites holding `catalogs` (site 0's also checks the
/// plan), delivering one frame at a time from a link `rng` picks among
/// those with a frame in flight; every delivery goes into `trace`.
fn run(
    plan: &DistributedPlan,
    catalogs: &[SiteCatalog],
    cfg: &EngineConfig,
    rng: &mut StdRng,
    trace: &mut Vec<Delivery>,
) -> Result<Relation> {
    let n = catalogs.len();
    let mut sites: Vec<SiteMachine> = catalogs
        .iter()
        .enumerate()
        .map(|(site, cat)| SiteMachine::new(cat.as_ref(), site))
        .collect();
    let mut coord = CoordMachine::new(plan, &catalogs[0], cfg, 1, n)?;
    let mut clock = Clock::start();
    // Link `2s` runs down to site `s`, link `2s + 1` up from it.
    let mut links: Vec<VecDeque<Message>> = vec![VecDeque::new(); 2 * n];
    let mut step = coord.start(&mut clock)?;
    loop {
        for (_, frames) in step.rounds {
            for (site, msg) in frames {
                links[2 * site].push_back(msg);
            }
        }
        coord.shipped(&mut clock);
        if let Some((relation, _)) = step.done {
            return Ok(relation);
        }
        step = loop {
            let live: Vec<usize> = (0..2 * n).filter(|&l| !links[l].is_empty()).collect();
            let Some(&link) = live.get(rng.gen_range(0..live.len().max(1))) else {
                return Err(Error::Execution("the query waits, and no frame is in flight".into()));
            };
            let (site, msg) = (link / 2, links[link].pop_front().unwrap());
            if link % 2 == 1 {
                trace.push(Delivery::of(Some(site), None, &msg));
                break coord.on_frame(site, msg, &mut clock)?;
            }
            trace.push(Delivery::of(None, Some(site), &msg));
            match sites[site].on_frame(msg) {
                Some(Action::Send(reply)) => links[link + 1].push_back(reply),
                Some(Action::Evaluate(task)) => {
                    links[link + 1].extend(task.run(catalogs[site].as_ref(), &Obs::disabled(), false))
                }
                Some(Action::Close) | None => {}
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OptFlags, Planner, SiteFilter, StageKind};
    use crate::Cluster;
    use skalla_datagen::cases::{case_rng, for_cases};
    use skalla_gmdj::prelude::*;
    use skalla_relation::{row, DataType, Domain, DomainMap, Schema, Value};

    const SITES: usize = 4;

    /// `t(r, g, v)` over sites 0–2 by `r` ranges, each declaring its `r`
    /// range; site 3 holds no row and declares an empty one. `keys(r)`, a
    /// dimension table, round-robin with no domain. Integer values only,
    /// so every aggregate is exact and the centralized oracle's bits are
    /// the distributed ones.
    fn cluster() -> Cluster {
        let mut rng = case_rng("sim_cluster", 0);
        let rows = (0..300)
            .map(|_| row![rng.gen_range(0..40i64), rng.gen_range(0..30i64), rng.gen_range(0..100i64)])
            .collect();
        let schema = Schema::of(&[("r", DataType::Int), ("g", DataType::Int), ("v", DataType::Int)]);
        let t = Relation::new(schema, rows).unwrap();
        let parts = (0..SITES as i64).map(|s| {
            let (lo, hi) = (14 * s, 14 * s + 13);
            let part = t.filter(|i| (lo..=hi).contains(&t.column(0).value(i).as_i64().unwrap()));
            let r = if part.is_empty() { Domain::of([]) } else { Domain::IntRange(lo, hi) };
            (part, DomainMap::new().with("r", r))
        });
        let keys = Relation::new(Schema::of(&[("r", DataType::Int)]), (0..40i64).map(|r| row![r]).collect()).unwrap();
        let key_parts = (0..SITES).map(|s| (keys.filter(|i| i % SITES == s), DomainMap::new()));
        let mut c = Cluster::new(SITES);
        c.add_table("t", parts.collect()).add_table("keys", key_parts.collect());
        c
    }

    /// The Fig. 2 chain over `t` grouped on `group`, its base the distinct
    /// `group` values of `base`: an aggregate unit, then a count of the
    /// rows at or above the group's average.
    fn chain(base: &str, group: &str) -> GmdjExpr {
        GmdjExprBuilder::distinct_base(base, &[group])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&[group]).build(),
                vec![
                    AggSpec::count("cnt"),
                    AggSpec::sum("v", "sm"),
                    AggSpec::avg("v", "av"),
                    AggSpec::min("v", "mn"),
                    AggSpec::max("v", "mx"),
                ],
            ))
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&[group]).and(Expr::dcol("v").ge(Expr::bcol("av"))).build(),
                vec![AggSpec::count("big")],
            ))
            .build()
    }

    /// A plan shape under test: its name (the seed stream's), query,
    /// flags, and what its plan must look like.
    struct Shape {
        name: &'static str,
        expr: GmdjExpr,
        flags: OptFlags,
        looks_right: fn(&[StageKind]) -> bool,
    }

    fn unit(kind: &StageKind) -> Option<&crate::plan::Unit> {
        match kind {
            StageKind::Unit(u) => Some(u),
            StageKind::Base => None,
        }
    }

    fn shapes() -> Vec<Shape> {
        vec![
            // `skewed_star`'s: a base round over a dimension table, then
            // Thm 4's per-site filters, site 3 skipped.
            Shape {
                name: "sim_base_round_thm4",
                expr: chain("keys", "r"),
                flags: OptFlags { group_reduction_coord: true, ..OptFlags::none() },
                looks_right: |s| {
                    let filters = unit(&s[1]).map(|u| u.site_filters.clone()).unwrap_or_default();
                    matches!(s[0], StageKind::Base)
                        && filters[..3].iter().all(|f| matches!(f, SiteFilter::Predicate(_)))
                        && filters[3] == SiteFilter::Skip
                },
            },
            // `group_heavy`'s: a folded merge unit, then a unit resident
            // at every site that answered it.
            Shape {
                name: "sim_folded_then_resident",
                expr: chain("t", "g"),
                flags: OptFlags::all(),
                looks_right: |s| {
                    let (first, second) = (unit(&s[0]), s.get(1).and_then(unit));
                    first.is_some_and(|u| u.fold_base && !u.local_chain)
                        && second.is_some_and(|u| u.site_filters.contains(&SiteFilter::Resident))
                },
            },
            // `scan_heavy`'s: Thm 5's local chain, folded, one round.
            Shape {
                name: "sim_local_chain",
                expr: chain("t", "r"),
                flags: OptFlags::all(),
                looks_right: |s| s.len() == 1 && unit(&s[0]).is_some_and(|u| u.fold_base && u.local_chain),
            },
            // Prop 1: answers by position with survivor sets.
            Shape {
                name: "sim_positional",
                expr: chain("t", "g"),
                flags: OptFlags { group_reduction_site: true, ..OptFlags::none() },
                looks_right: |s| unit(&s[1]).is_some_and(|u| u.positional() && u.site_reduce),
            },
        ]
    }

    /// Rows with each value's bits: `Debug` of an `f64` round-trips.
    fn bits(rel: &Relation) -> String {
        format!("{:?} {:?}", rel.schema(), rel.rows())
    }

    fn catalogs(c: &Cluster) -> Vec<SiteCatalog> {
        (0..c.n_sites()).map(|s| c.site_catalog_shared(s)).collect()
    }

    /// Every shape under 200 seeded arrival orders answers, bit for bit,
    /// what the engine over channels answers and what the centralized
    /// oracle does; a seed replays its frame trace, and seeds differ.
    #[test]
    fn any_arrival_order_gives_the_oracles_bits_and_a_seed_replays_its_trace() {
        for shape in shapes() {
            let c = cluster();
            let cfg = EngineConfig::default();
            let plan = Planner::new(c.distribution()).optimize(&shape.expr, shape.flags);
            let kinds: Vec<StageKind> = plan.stages.iter().map(|s| s.kind.clone()).collect();
            assert!((shape.looks_right)(&kinds), "{}: {}", shape.name, plan.explain());
            let channel = c.execute(&plan).unwrap().relation;
            let key: Vec<&str> = plan.key.iter().map(String::as_str).collect();
            let oracle = c.execute_centralized(&shape.expr).unwrap().relation.sorted_by(&key).unwrap();
            assert_eq!(bits(&channel.sorted_by(&key).unwrap()), bits(&oracle), "{}", shape.name);
            let sites = catalogs(&c);
            let mut traces = Vec::new();
            for_cases(shape.name, 200, |rng| {
                let mut trace = Vec::new();
                let got = run(&plan, &sites, &cfg, rng, &mut trace).unwrap();
                assert_eq!(bits(&got), bits(&channel), "{}", shape.name);
                traces.push(trace);
            });
            for (i, trace) in traces.iter().enumerate().take(5) {
                let mut again = Vec::new();
                run(&plan, &sites, &cfg, &mut case_rng(shape.name, i as u32), &mut again).unwrap();
                assert!(again == *trace, "{}: seed {i} did not replay its trace", shape.name);
            }
            assert!(traces.iter().any(|t| *t != traces[0]), "{}: every seed gave one order", shape.name);
        }
    }

    /// Two sites spell one `Double` key differently — `-0.0` at site 0,
    /// `0.0` at sites 1 and 2; `NaN`s of two payloads at sites 1 and 2 —
    /// and the answer's key bits are the lowest answering site's spelling
    /// under every arrival order, on the base round's shape and on a
    /// folded unit's.
    #[test]
    fn a_key_is_spelled_as_the_lowest_site_spells_it_under_any_arrival_order() {
        let nan = |p: u64| f64::from_bits(0x7ff8_0000_0000_0000 | p);
        let schema = Schema::of(&[("g", DataType::Double), ("v", DataType::Int)]);
        let part = |rows: &[(f64, i64)]| {
            let rel = Relation::new(schema.clone(), rows.iter().map(|&(g, v)| row![g, v]).collect()).unwrap();
            (rel, DomainMap::new())
        };
        let mut c = Cluster::new(SITES);
        c.add_table(
            "t",
            vec![
                part(&[(-0.0, 1), (2.5, 2)]),
                part(&[(0.0, 3), (nan(1), 4)]),
                part(&[(nan(2), 5), (0.0, 6)]),
                part(&[(2.5, 7)]),
            ],
        );
        let expr = GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("cnt"), AggSpec::sum("v", "sm")],
            ))
            .build();
        let key_bits = |rel: &Relation| -> Vec<u64> {
            (0..rel.len()).map(|i| rel.column(0).value(i).as_f64().unwrap().to_bits()).collect()
        };
        let want = [(-0.0f64).to_bits(), 2.5f64.to_bits(), nan(1).to_bits()];
        let sites = catalogs(&c);
        let folding = OptFlags { sync_reduction: true, ..OptFlags::none() };
        for (name, flags, folded) in [("sim_spelling_base_round", OptFlags::none(), false), ("sim_spelling_folded", folding, true)] {
            let plan = Planner::new(c.distribution()).optimize(&expr, flags);
            let first = unit(&plan.stages[0].kind).map(|u| u.fold_base && !u.local_chain);
            assert_eq!(first, folded.then_some(true), "{name}: {}", plan.explain());
            let mut first: Option<String> = None;
            for_cases(name, 200, |rng| {
                let got = run(&plan, &sites, &EngineConfig::default(), rng, &mut Vec::new()).unwrap();
                assert_eq!(key_bits(&got), want, "{name}: {got}");
                assert_eq!(got.rows()[0].values()[1..], [Value::Int(3), Value::Int(10)], "{name}");
                let bits = format!("{:?}", (0..got.len()).map(|i| got.rows()[i].clone()).collect::<Vec<_>>());
                assert_eq!(first.get_or_insert_with(|| bits.clone()), &bits, "{name}");
            });
        }
    }

    /// A site's `TAG_ERROR` reaches the caller naming the site and the
    /// stage, under any arrival order.
    #[test]
    fn a_site_error_names_its_site_and_stage() {
        let shape = shapes().remove(0);
        let c = cluster();
        let plan = Planner::new(c.distribution()).optimize(&shape.expr, shape.flags);
        let mut sites = catalogs(&c);
        // Site 1 lost `t`: its first unit, stage 1, fails there.
        Arc::make_mut(&mut sites[1]).remove("t");
        for_cases("sim_site_error", 20, |rng| {
            let err = run(&plan, &sites, &EngineConfig::default(), rng, &mut Vec::new()).unwrap_err();
            let err = err.to_string();
            assert!(err.contains("site failed (site 1, stage 1): "), "{err}");
        });
    }
}
