//! End-to-end observability: a traced distributed execution must produce
//! a well-formed Chrome trace containing the full span hierarchy (query,
//! stage, per-site task, sync), optimizer-decision events, and net
//! counters — and the per-round table must partition the wall time.

use skalla::core::{Cluster, ExecStats, OptFlags, Planner, Skalla};
use skalla::datagen::flow::{generate_flows, FlowConfig};
use skalla::datagen::partition::{partition_by_int_ranges, Partition};
use skalla::datagen::tpcr::{generate_tpcr, TpcrConfig};
use skalla::gmdj::prelude::*;
use skalla::net::RoundStats;
use skalla::obs::chrome::{metrics_snapshot, write_chrome_trace};
use skalla::obs::{json, Obs, Track};
use skalla::query;

const EXAMPLE1: &str = include_str!("../queries/example1.skl");

fn flow_parts() -> Vec<Partition> {
    let flows = generate_flows(&FlowConfig::new(1500, 11));
    partition_by_int_ranges(&flows, "source_as", 3)
}

fn traced_run(flags: OptFlags) -> (Obs, skalla::core::QueryResult) {
    let mut cluster = Cluster::from_partitions("flow", flow_parts());
    let obs = Obs::recording();
    cluster.configure(&skalla::core::EngineConfig {
        obs: obs.clone(),
        ..skalla::core::EngineConfig::default()
    });
    let expr = query::compile_text(EXAMPLE1).unwrap();
    let planner = Planner::new(cluster.distribution()).with_obs(obs.clone());
    let (plan, decisions) = planner.optimize_with_decisions(&expr, flags);
    assert!(!decisions.is_empty(), "optimizer records its decisions");
    let out = cluster.execute(&plan).unwrap();
    (obs, out)
}

#[test]
fn chrome_trace_round_trips_and_has_all_span_kinds() {
    let (obs, out) = traced_run(OptFlags::group_reduction_only());
    let rec = obs.recorder().unwrap();

    // The JSON must parse back through our own strict parser.
    let text = write_chrome_trace(rec);
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("invalid trace JSON: {e}"));
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Partition by phase.
    let ph = |e: &json::Json| e.get("ph").and_then(|p| p.as_str()).unwrap().to_string();
    let name = |e: &json::Json| e.get("name").and_then(|n| n.as_str()).unwrap().to_string();
    let spans: Vec<_> = events.iter().filter(|e| ph(e) == "X").collect();
    let instants: Vec<_> = events.iter().filter(|e| ph(e) == "i").collect();
    let counters: Vec<_> = events.iter().filter(|e| ph(e) == "C").collect();

    // Query span on the query's own track (the run is the one-shot
    // engine's query 1).
    let query_span = spans
        .iter()
        .find(|e| name(e) == "query")
        .expect("query span");
    assert_eq!(
        query_span.get("tid").and_then(|t| t.as_u64()),
        Some(Track::Query(1).tid())
    );
    // Stage spans for every executed round.
    for label in ["base", "gmdj 1", "gmdj 2"] {
        assert!(
            spans.iter().any(|e| name(e) == label),
            "missing stage span {label}"
        );
    }
    // Sync spans.
    assert!(spans.iter().any(|e| name(e) == "BaseSync"));
    assert!(spans.iter().any(|e| name(e) == "MergeSync"));
    // Per-site task spans: every site's track for this query saw all
    // three stages.
    for site in 0..3 {
        let tid = Track::SiteQuery(site, 1).tid();
        for label in ["base", "gmdj 1", "gmdj 2"] {
            assert!(
                spans
                    .iter()
                    .any(|e| e.get("tid").and_then(|t| t.as_u64()) == Some(tid)
                        && name(e) == label),
                "site {site} missing task span {label}"
            );
        }
    }
    // At least one optimizer decision event on the optimizer track.
    assert!(
        instants
            .iter()
            .any(|e| e.get("tid").and_then(|t| t.as_u64()) == Some(Track::Optimizer.tid())),
        "no optimizer decision events in trace"
    );
    // Net byte counters present and consistent with the stats totals.
    let last_down = counters
        .iter()
        .rfind(|e| name(e) == "net.bytes_down")
        .and_then(|e| e.get("args").and_then(|a| a.get("value")).and_then(|v| v.as_f64()))
        .expect("net.bytes_down counter");
    assert_eq!(last_down as u64, out.stats.bytes_down());

    // Every span is closed (dur present and non-negative).
    for s in &spans {
        assert!(s.get("dur").and_then(|d| d.as_u64()).is_some(), "open span in trace");
    }
}

/// Every round's coordinator and wait seconds sum to the wall; every
/// time is finite and non-negative; a plan round, where there is one,
/// spent coordinator time encoding and broadcasting the plan; and the
/// table has one row per stage, in order, with its rows, bytes and
/// messages.
fn assert_partitions_the_wall(stats: &ExecStats, what: &str) {
    let parts: f64 = stats.stages.iter().map(|st| st.coord_s + st.wait_s).sum();
    assert!(
        (parts - stats.wall_s).abs() <= 1e-9,
        "{what}: Σ coord + wait is {parts} s of a {} s wall",
        stats.wall_s
    );
    assert!(
        stats.wall_s.is_finite() && stats.wall_s > 0.0,
        "{what}: wall {}",
        stats.wall_s
    );
    for st in &stats.stages {
        for v in [st.coord_s, st.wait_s].iter().chain(&st.site_busy_s) {
            assert!(
                v.is_finite() && *v >= 0.0,
                "{what}: round {:?} reads {v}",
                st.label
            );
        }
    }
    if let Some(plan) = stats.stages.iter().find(|st| st.label == "plan") {
        assert!(
            plan.coord_s > 0.0,
            "{what}: the plan round took no coordinator time"
        );
    }
    let table = stats.round_table();
    let rows: Vec<&str> = table.lines().skip(1).collect();
    assert_eq!(rows.len(), stats.stages.len(), "{what}:\n{table}");
    for (i, (line, st)) in rows.iter().zip(&stats.stages).enumerate() {
        assert!(
            line.starts_with(&format!("{i:<5} {} ", st.label)),
            "{what}: {line}"
        );
        let net = stats.net.get(i).map(RoundStats::totals).unwrap_or_default();
        let traffic = [
            st.rows_down,
            st.rows_up,
            net.down_bytes,
            net.up_bytes,
            net.down_msgs + net.up_msgs,
        ];
        let words: Vec<&str> = line.split_whitespace().collect();
        let want: Vec<String> = traffic.iter().map(u64::to_string).collect();
        assert_eq!(words[words.len() - 5..], want, "{what}: {line}");
    }
}

#[test]
fn round_table_partitions_the_wall() {
    // Base + merge units.
    let (_, out) = traced_run(OptFlags::group_reduction_only());
    assert_partitions_the_wall(&out.stats, "base + unit");
    let labels: Vec<&str> = out
        .stats
        .stages
        .iter()
        .map(|st| st.label.as_str())
        .collect();
    assert_eq!(labels, ["plan", "base", "gmdj 1", "gmdj 2"]);
    let gmdj1 = &out.stats.stages[2];
    let net = out.stats.net[2].totals();
    assert!(gmdj1.rows_down > 0 && gmdj1.rows_up > 0);
    assert!(net.down_bytes > 0 && net.up_bytes > 0);

    // A Thm 5 chain: one local round.
    let (_, out) = traced_run(OptFlags::all());
    assert_partitions_the_wall(&out.stats, "chain");
    assert_eq!(out.stats.n_rounds(), 1);

    // A folded unit whose next round leaves every site its own rows.
    let tpcr = generate_tpcr(&TpcrConfig {
        parts: 2_000,
        ..TpcrConfig::new(4_000, 42)
    });
    let cluster = Cluster::from_partitions("tpcr", partition_by_int_ranges(&tpcr, "nation_key", 4));
    let expr = GmdjExprBuilder::distinct_base("tpcr", &["part_key"])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["part_key"]).build(),
            vec![
                AggSpec::count("cnt1"),
                AggSpec::avg("extended_price", "avg1"),
            ],
        ))
        .gmdj(
            Gmdj::new("tpcr").block(
                ThetaBuilder::group_by(&["part_key"])
                    .and(Expr::dcol("extended_price").ge(Expr::bcol("avg1")))
                    .build(),
                vec![AggSpec::count("cnt2")],
            ),
        )
        .build();
    let plan = Planner::new(cluster.distribution()).optimize(&expr, OptFlags::all());
    assert!(
        plan.explain().contains("site-resident rows"),
        "{}",
        plan.explain()
    );
    assert_partitions_the_wall(&cluster.execute(&plan).unwrap().stats, "folded + resident");

    // The ship-everything baseline.
    assert_partitions_the_wall(
        &cluster.execute_centralized(&expr).unwrap().stats,
        "centralized",
    );

    // Every level of a cube, each its own distributed query.
    let flows = Cluster::from_partitions("flow", flow_parts());
    let aggs = [AggSpec::count("n"), AggSpec::sum("num_bytes", "bytes")];
    let cube = query::cube_with_rollup(
        &flows,
        "flow",
        &["source_as", "dest_as"],
        &aggs,
        OptFlags::all(),
        false,
    )
    .unwrap();
    assert_eq!(cube.levels.len(), 4);
    for level in &cube.levels {
        let stats = level.stats.as_ref().expect("every level runs");
        assert_partitions_the_wall(stats, &format!("cube level {:?}", level.dims));
    }

    // A cache hit: its one round's coordinator seconds are its wall.
    let engine = Skalla::builder()
        .partitions("flow", flow_parts())
        .build()
        .unwrap();
    let expr = query::compile_text(EXAMPLE1).unwrap();
    let plan = Planner::new(engine.distribution()).optimize(&expr, OptFlags::all());
    assert!(!engine.execute(&plan).unwrap().stats.is_cache_hit());
    let hit = engine.execute(&plan).unwrap().stats;
    assert!(hit.is_cache_hit());
    assert_partitions_the_wall(&hit, "cache hit");
    assert_eq!(hit.stages[0].coord_s, hit.wall_s);
}

#[test]
fn metrics_snapshot_is_valid_json_with_counters() {
    let (obs, out) = traced_run(OptFlags::all());
    let rec = obs.recorder().unwrap();
    let doc = json::parse(&metrics_snapshot(rec).to_json()).unwrap();
    let counters = doc.get("counters").expect("counters object");
    assert_eq!(
        counters
            .get("net.bytes_up")
            .and_then(|v| v.as_f64())
            .map(|v| v as u64),
        Some(out.stats.bytes_up())
    );
    assert!(doc.get("elapsed_us").and_then(|v| v.as_u64()).is_some());
}

#[test]
fn disabled_obs_records_nothing_and_execution_matches() {
    // Same query with and without a recorder: identical results, and the
    // disabled handle never allocates a recorder.
    let flows = generate_flows(&FlowConfig::new(800, 3));
    let parts = partition_by_int_ranges(&flows, "source_as", 2);
    let mut cluster = Cluster::from_partitions("flow", parts);
    let expr = query::compile_text(EXAMPLE1).unwrap();
    let plan = Planner::new(cluster.distribution()).optimize(&expr, OptFlags::all());
    let plain = cluster.execute(&plan).unwrap();

    let obs = Obs::disabled();
    assert!(!obs.is_recording());
    assert!(obs.recorder().is_none());
    cluster.configure(&skalla::core::EngineConfig {
        obs,
        ..skalla::core::EngineConfig::default()
    });
    let traced = cluster.execute(&plan).unwrap();
    assert!(plain.relation.same_bag(&traced.relation));
}
