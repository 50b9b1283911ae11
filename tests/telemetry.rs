//! The distributed telemetry plane, end to end over real TCP sites.
//!
//! After every query the coordinator broadcasts `QUERY_DONE` and each
//! site replies with a telemetry frame: its per-query busy times plus
//! (when the site records) its span/counter delta. These tests pin the
//! two observable consequences:
//!
//! 1. the ExplainAnalyze round table reports *site-measured* busy times
//!    over TCP, agreeing with the in-process channel transport's ground
//!    truth on which sites did work in which round;
//! 2. `--trace` style merging: the coordinator's recorder ends up with
//!    one process lane per site, clock-aligned, with spans attributed
//!    to the right query ids.
//!
//! Telemetry frames must also never perturb the paper's traffic model:
//! every test asserts the channel/TCP `NetStats` byte-identity that the
//! rest of the suite relies on.

use proptest::prelude::*;
use skalla::core::{protocol, OptFlags, Planner, SiteServer, Skalla};
use skalla::datagen::partition::{observe_int_ranges, partition_by_int_ranges, Partition};
use skalla::datagen::tpcr::{generate_tpcr, TpcrConfig};
use skalla::gmdj::prelude::*;
use skalla::net::TcpConfig;
use skalla::obs::json::{self, Json};
use skalla::obs::Obs;
use std::collections::HashMap;
use std::sync::Arc;

const N_SITES: usize = 4;

/// Nation-partitioned TPCR fragments — the Fig. 2 experimental setup at
/// test scale (same construction as the transport-equivalence tests).
fn fig2_partitions() -> Vec<Partition> {
    let tpcr = generate_tpcr(&TpcrConfig::new(8_000, 42));
    let mut parts = partition_by_int_ranges(&tpcr, "nation_key", N_SITES);
    observe_int_ranges(&mut parts, &["cust_key", "cust_group"]);
    parts
}

/// The Fig. 2 group-reduction query: two correlated GMDJs.
fn fig2_query() -> GmdjExpr {
    GmdjExprBuilder::distinct_base("tpcr", &["cust_group"])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["cust_group"]).build(),
            vec![
                AggSpec::count("cnt1"),
                AggSpec::avg("extended_price", "avg1"),
            ],
        ))
        .gmdj(
            Gmdj::new("tpcr").block(
                ThetaBuilder::group_by(&["cust_group"])
                    .and(Expr::dcol("extended_price").ge(Expr::bcol("avg1")))
                    .build(),
                vec![AggSpec::count("cnt2"), AggSpec::avg("quantity", "avg2")],
            ),
        )
        .build()
}

/// Spawn one `SiteServer` per fragment. With `record` each site gets a
/// recording [`Obs`] and the `site-N` process identity a standalone
/// `skalla-cli site` would claim, so its delta ships in telemetry
/// replies; without, sites still measure busy times (that path is
/// always on) but export no spans.
fn spawn_sites(parts: &[Partition], record: bool) -> Vec<String> {
    let mut addrs = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        let catalog = HashMap::from([("tpcr".to_string(), Arc::new(part.relation.clone()))]);
        let domains = HashMap::from([("tpcr".to_string(), part.domains.clone())]);
        let mut server =
            SiteServer::bind("127.0.0.1:0", catalog, domains, TcpConfig::default()).unwrap();
        if record {
            let obs = Obs::recording();
            if let Some(rec) = obs.recorder() {
                rec.set_process(2 + i as u32, format!("site-{i}"));
            }
            server.set_obs(obs);
        }
        addrs.push(server.local_addr().unwrap().to_string());
        std::thread::spawn(move || {
            let _ = server.serve_once();
        });
    }
    addrs
}

/// Per stage, which sites did measurable work (busy > 0): the shape we
/// can compare across transports without timing flakiness.
fn worked(stages: &[skalla::core::StageTimes]) -> Vec<(String, Vec<bool>)> {
    stages
        .iter()
        .map(|s| {
            (
                s.label.clone(),
                s.site_busy_s.iter().map(|&b| b > 0.0).collect(),
            )
        })
        .collect()
}

/// Over TCP, the round table's busy/skew columns must come from real
/// site-side measurements shipped in telemetry frames — not simulated
/// zeros (the pre-telemetry behaviour) — and must agree with the
/// channel transport's ground truth about which sites worked when.
#[test]
fn tcp_site_busy_matches_channel_transport_ground_truth() {
    let parts = fig2_partitions();
    let expr = fig2_query();

    let local = Skalla::builder()
        .partitions("tpcr", parts.clone())
        .build()
        .unwrap();
    let plan = Planner::new(local.distribution()).optimize(&expr, OptFlags::all());
    let local_out = local.execute(&plan).unwrap();

    let addrs = spawn_sites(&parts, false);
    let remote = Skalla::builder()
        .remote(&addrs, TcpConfig::default())
        .build()
        .unwrap();
    let remote_out = remote.execute(&plan).unwrap();

    // Telemetry frames ride tag 9 and are exempt from accounting, so
    // the paper's traffic model still sees identical bytes.
    assert_eq!(remote_out.stats.net, local_out.stats.net);

    // Both backends now measure at the sites; the gmdj round must show
    // real work and both transports must agree on who did it.
    assert_eq!(
        worked(&remote_out.stats.stages),
        worked(&local_out.stats.stages),
        "site-busy pattern must match the channel-transport ground truth"
    );
    let gmdj_busy: f64 = remote_out
        .stats
        .stages
        .iter()
        .filter(|s| s.label.starts_with("gmdj"))
        .flat_map(|s| s.site_busy_s.iter())
        .sum();
    assert!(
        gmdj_busy > 0.0,
        "TCP run reported no site busy time at all — telemetry not merged"
    );
    // …and the human-facing round table renders it (busy max column).
    let table = remote_out.stats.round_table();
    assert!(
        !table.contains("busy max") || table.lines().count() > 1,
        "round table lost its rows: {table}"
    );
}

/// Coordinator + recording sites: after a query the coordinator's
/// recorder holds one remote lane per site, clock-aligned into the
/// coordinator's timeline, and the merged Chrome trace attributes the
/// site spans to the query that ran.
#[test]
fn merged_trace_has_one_aligned_lane_per_site() {
    let parts = fig2_partitions();
    let expr = fig2_query();
    let addrs = spawn_sites(&parts, true);

    let obs = Obs::recording();
    let rec = Arc::clone(obs.recorder().unwrap());
    rec.set_process(1, "coordinator");
    let engine = Skalla::builder()
        .remote(&addrs, TcpConfig::default())
        .obs(obs)
        .build()
        .unwrap();
    let plan = Planner::new(engine.distribution()).optimize(&expr, OptFlags::all());
    engine.execute(&plan).unwrap();

    // One lane per site, named by the coordinator from the link index
    // (authoritative even if a site misconfigured its own identity).
    let parts_seen = rec.remote_parts();
    let mut names: Vec<String> = parts_seen.iter().map(|p| p.process_name.clone()).collect();
    names.sort();
    assert_eq!(
        names,
        (0..N_SITES).map(|i| format!("site-{i}")).collect::<Vec<_>>(),
        "expected one remote lane per site"
    );
    let now = rec.now_us();
    for part in &parts_seen {
        assert!(
            !part.spans.is_empty(),
            "{}: site shipped no spans",
            part.process_name
        );
        for span in &part.spans {
            let start = part.shift_us(span.start_us);
            let end = part.shift_us(span.start_us + span.dur_us.unwrap_or(0));
            assert!(start <= end, "alignment reversed a span");
            // Aligned site work happened within the coordinator's run
            // (generous slack: loopback offsets are microseconds, the
            // bound guards against s-vs-µs unit mistakes).
            assert!(
                end <= now + 2_000_000,
                "{}: span ends {}µs past the coordinator clock",
                part.process_name,
                end - now
            );
        }
    }

    // The merged Chrome trace exposes those lanes with query-attributed
    // spans: every site lane has ≥1 "X" span carrying a query_id arg.
    let trace = json::parse(&skalla::obs::chrome::write_chrome_trace(&rec)).unwrap();
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let mut lane_of = HashMap::new();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) == Some("M")
            && ev.get("name").and_then(Json::as_str) == Some("process_name")
        {
            lane_of.insert(
                ev.get("pid").and_then(Json::as_u64).unwrap(),
                ev.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
            );
        }
    }
    let mut attributed_site_spans = 0;
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let pid = ev.get("pid").and_then(Json::as_u64).unwrap();
        if !lane_of.get(&pid).is_some_and(|n| n.starts_with("site-")) {
            continue;
        }
        if let Some(qid) = ev
            .get("args")
            .and_then(|a| a.get("query_id"))
            .and_then(Json::as_u64)
        {
            assert!(qid >= 1, "site span attributed to the control stream");
            attributed_site_spans += 1;
        }
    }
    assert!(
        attributed_site_spans >= N_SITES,
        "expected ≥1 query-attributed span per site lane, got {attributed_site_spans}"
    );
}

proptest! {
    /// The telemetry payload codec round-trips arbitrary busy reports
    /// exactly (the delta side is covered by the obs crate's own
    /// round-trip tests; `None` must survive too).
    #[test]
    fn telemetry_payload_round_trips(
        busy in proptest::collection::vec((0u32..64, 0u32..8, 0.0f64..10.0), 0..20),
    ) {
        let report = protocol::SiteTelemetry { busy, obs: None };
        let msg = protocol::telemetry(&report);
        prop_assert_eq!(msg.tag, protocol::TAG_TELEMETRY);
        let back = protocol::decode_telemetry(&msg.payload).unwrap();
        prop_assert_eq!(back, report);
    }
}
