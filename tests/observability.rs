//! End-to-end observability: a traced distributed execution must produce
//! a well-formed Chrome trace containing the full span hierarchy (query,
//! stage, per-site task, sync), optimizer-decision events, and net
//! counters — and the per-round table must cover every executed stage.

use skalla::core::{Cluster, OptFlags, Planner};
use skalla::datagen::flow::{generate_flows, FlowConfig};
use skalla::datagen::partition::partition_by_int_ranges;
use skalla::obs::chrome::{metrics_snapshot, write_chrome_trace};
use skalla::obs::{json, Obs, Track};
use skalla::query;

const EXAMPLE1: &str = include_str!("../queries/example1.skl");

fn traced_run(flags: OptFlags) -> (Obs, skalla::core::QueryResult) {
    let flows = generate_flows(&FlowConfig::new(1500, 11));
    let parts = partition_by_int_ranges(&flows, "source_as", 3);
    let mut cluster = Cluster::from_partitions("flow", parts);
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

#[test]
fn round_table_covers_every_executed_stage() {
    let (_, out) = traced_run(OptFlags::group_reduction_only());
    let table = out.stats.round_table();
    // Header + plan round + 3 executed stages.
    assert_eq!(table.lines().count(), 1 + out.stats.stages.len());
    for st in &out.stats.stages {
        assert!(
            table.contains(&st.label),
            "round table missing stage {:?}:\n{table}",
            st.label
        );
    }
    let summaries = out.stats.round_summaries();
    assert_eq!(summaries.len(), out.stats.stages.len());
    // Executed stages moved rows and bytes.
    let gmdj1 = summaries.iter().find(|r| r.label == "gmdj 1").unwrap();
    assert!(gmdj1.rows_down > 0 && gmdj1.rows_up > 0);
    assert!(gmdj1.bytes_down > 0 && gmdj1.bytes_up > 0);
    assert!(gmdj1.skew >= 1.0);
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
