//! The distributed telemetry plane, end to end over real TCP sites.
//!
//! For every stage task a site sends one telemetry frame — the task's
//! busy seconds plus (when the site records) its span/counter delta —
//! just ahead of the task's final result, and the coordinator's one
//! receive loop takes it with the round. These tests pin the two
//! observable consequences:
//!
//! 1. the ExplainAnalyze round table reports *site-measured* busy times
//!    for every site each round was sent to, the same pattern over TCP
//!    as over the in-process channel transport;
//! 2. `--trace` style merging: the coordinator's recorder ends up with
//!    one process lane per site, clock-aligned, with spans attributed
//!    to the right query ids — the last stage's included, so the final
//!    delta is in before `execute` returns.
//!
//! Telemetry frames must also never perturb the paper's traffic model:
//! every test asserts the channel/TCP `NetStats` byte-identity that the
//! rest of the suite relies on.

use skalla::core::{
    protocol, DistributedPlan, OptFlags, Planner, SiteFilter, SiteServer, Skalla, StageKind,
};
use skalla::datagen::cases::{self, for_cases, Rng};
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

/// Per stage, which sites were sent it: every site for the base round,
/// all but the Thm 4-skipped ones for a unit.
fn sent(plan: &DistributedPlan) -> Vec<(String, Vec<bool>)> {
    plan.stages
        .iter()
        .map(|s| {
            let to = match &s.kind {
                StageKind::Base => vec![true; N_SITES],
                StageKind::Unit(u) => u
                    .site_filters
                    .iter()
                    .map(|f| !matches!(f, SiteFilter::Skip))
                    .collect(),
            };
            (s.label.clone(), to)
        })
        .collect()
}

/// Per executed stage (the plan round sliced off), which sites did
/// measurable work (busy > 0): the shape we can compare without timing
/// flakiness.
fn worked(stages: &[skalla::core::StageTimes]) -> Vec<(String, Vec<bool>)> {
    stages[1..]
        .iter()
        .map(|s| {
            (
                s.label.clone(),
                s.site_busy_s.iter().map(|&b| b > 0.0).collect(),
            )
        })
        .collect()
}

/// On both backends, every site a stage was sent to reports the busy
/// time it measured for that stage, in that stage's round: an
/// unoptimized three-round plan, so every round — the last included —
/// reaches every site.
#[test]
fn tcp_site_busy_matches_channel_transport_ground_truth() {
    let parts = fig2_partitions();
    let expr = fig2_query();

    let local = Skalla::builder()
        .partitions("tpcr", parts.clone())
        .build()
        .unwrap();
    let plan = Planner::new(local.distribution()).optimize(&expr, OptFlags::none());
    assert_eq!(plan.stages.len(), 3, "base + two GMDJ rounds");
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

    assert_eq!(
        worked(&local_out.stats.stages),
        sent(&plan),
        "in-process sites: busy > 0 exactly where a stage was sent"
    );
    assert_eq!(
        worked(&remote_out.stats.stages),
        worked(&local_out.stats.stages),
        "TCP sites report the channel transport's busy pattern"
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
    let mut parts_seen = rec.remote_parts();
    parts_seen.sort_by_key(|p| p.process_id);
    let mut names: Vec<String> = parts_seen.iter().map(|p| p.process_name.clone()).collect();
    names.sort();
    assert_eq!(
        names,
        (0..N_SITES).map(|i| format!("site-{i}")).collect::<Vec<_>>(),
        "expected one remote lane per site"
    );
    // Each site's delta for the last stage rides just ahead of its final
    // result, so it is merged by the time `execute` returns.
    let (last, last_sent) = sent(&plan).pop().unwrap();
    let now = rec.now_us();
    for (part, sent_last) in parts_seen.iter().zip(last_sent) {
        assert!(
            !part.spans.is_empty(),
            "{}: site shipped no spans",
            part.process_name
        );
        assert_eq!(
            part.spans.iter().any(|s| s.name == last),
            sent_last,
            "{}: a span for the last stage {last:?} iff the site was sent it",
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

/// The telemetry payload codec round-trips arbitrary busy reports
/// exactly — every finite non-negative `busy_s`, subnormals and
/// `f64::MAX` included, down to the bits (the delta side is covered by
/// the obs crate's own round-trip tests; `None` must survive too).
#[test]
fn telemetry_payload_round_trips() {
    const MAX_BITS: u64 = f64::MAX.to_bits();
    for_cases("telemetry_payload_round_trips", 64, |rng| {
        let stage = rng.gen_range(0u32..64);
        let busy_s = match rng.gen_range(0..4) {
            0 => f64::from_bits(rng.gen_range(0..=MAX_BITS)),
            1 => f64::from_bits(rng.gen_range(1..1 << 52)),
            2 => cases::pick(rng, &[0.0, f64::from_bits(1), f64::MIN_POSITIVE, f64::MAX]),
            _ => rng.gen_range(0.0..10.0),
        };
        let report = protocol::SiteTelemetry { stage, busy_s, obs: None };
        let msg = protocol::telemetry(&report);
        assert_eq!(msg.tag, protocol::TAG_TELEMETRY);
        let back = protocol::decode_telemetry(&msg.payload).unwrap();
        assert_eq!(back.busy_s.to_bits(), busy_s.to_bits(), "{busy_s:e}");
        assert_eq!(back, report);
    });
}
