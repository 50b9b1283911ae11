//! Concurrent multi-query execution: N distinct queries submitted at
//! once through the [`Skalla`] scheduler — over both the in-process
//! channel transport and loopback TCP — must return bit-identical
//! results AND byte-for-byte identical per-query [`RoundStats`] to the
//! same queries run one at a time on the same engine. Admission control
//! must reject overload with clean, descriptive errors rather than
//! deadlocks or panics.

use skalla::core::{OptFlags, Planner, SiteServer, Skalla, SkallaBuilder};
use skalla::datagen::partition::{observe_int_ranges, partition_by_int_ranges, Partition};
use skalla::datagen::tpcr::{generate_tpcr, TpcrConfig};
use skalla::gmdj::prelude::*;
use skalla::net::TcpConfig;
use skalla::relation::Relation;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const N_SITES: usize = 4;

fn fig2_partitions() -> Vec<Partition> {
    let tpcr = generate_tpcr(&TpcrConfig::new(6_000, 17));
    let mut parts = partition_by_int_ranges(&tpcr, "nation_key", N_SITES);
    observe_int_ranges(&mut parts, &["cust_key", "cust_group"]);
    parts
}

/// Four *different* queries — distinct grouping attributes, operator
/// counts, and round structures — so the multiplexer has to keep genuinely
/// different per-query state apart, not just four copies of one plan.
/// Each is paired with the column to canonicalize its result on.
fn workload() -> Vec<(GmdjExpr, &'static str)> {
    let correlated = GmdjExprBuilder::distinct_base("tpcr", &["cust_group"])
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
                vec![AggSpec::count("cnt2")],
            ),
        )
        .build();
    let by_nation = GmdjExprBuilder::distinct_base("tpcr", &["nation_key"])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["nation_key"]).build(),
            vec![AggSpec::count("lines"), AggSpec::avg("quantity", "avg_qty")],
        ))
        .build();
    let by_group = GmdjExprBuilder::distinct_base("tpcr", &["cust_group"])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["cust_group"]).build(),
            vec![AggSpec::sum("quantity", "qty")],
        ))
        .build();
    // supp_key is not a partition attribute, so this one takes the
    // general multi-round path.
    let by_supplier = GmdjExprBuilder::distinct_base("tpcr", &["supp_key"])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["supp_key"]).build(),
            vec![
                AggSpec::count("lines"),
                AggSpec::max("extended_price", "max_price"),
            ],
        ))
        .build();
    vec![
        (correlated, "cust_group"),
        (by_nation, "nation_key"),
        (by_group, "cust_group"),
        (by_supplier, "supp_key"),
    ]
}

fn canonical(rel: &Relation, key: &str) -> Relation {
    rel.sorted_by(&[key]).unwrap()
}

/// An engine for the comparison below: room for the whole workload at
/// once, and the semantic cache pinned off — every run must pay its full
/// traffic, which a cache hit on the second run of a query would
/// (correctly) zero out.
fn comparison_engine(backend: SkallaBuilder) -> Skalla {
    backend
        .config(skalla::core::EngineConfig {
            cache_bytes: 0,
            ..skalla::core::EngineConfig::default()
        })
        .max_concurrent(workload().len())
        .build()
        .unwrap()
}

/// Serial reference: each query alone on `engine`, one after the other.
fn serial_reference(engine: &Skalla) -> Vec<skalla::core::QueryResult> {
    workload()
        .iter()
        .map(|(expr, _)| {
            let plan = Planner::new(engine.distribution()).optimize(expr, OptFlags::all());
            engine.execute(&plan).unwrap()
        })
        .collect()
}

/// Run the whole workload concurrently on `engine` and compare each
/// query's relation (canonicalized) and `RoundStats` against the serial
/// reference.
fn assert_concurrent_matches_serial(engine: &Skalla) {
    let want = serial_reference(engine);
    let queries = workload();
    let outs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .map(|(expr, _)| {
                scope.spawn(|| {
                    let plan =
                        Planner::new(engine.distribution()).optimize(expr, OptFlags::all());
                    engine.execute(&plan).unwrap()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread panicked"))
            .collect()
    });
    for (i, ((_, key), (got, want))) in queries.iter().zip(outs.iter().zip(&want)).enumerate() {
        assert_eq!(
            canonical(&got.relation, key),
            canonical(&want.relation, key),
            "query {i}: concurrent result differs from serial"
        );
        assert_eq!(
            got.stats.net, want.stats.net,
            "query {i}: per-query traffic accounting differs from serial"
        );
        assert_eq!(
            got.stats.stages.len(),
            want.stats.stages.len(),
            "query {i}: round structure differs from serial"
        );
    }
}

#[test]
fn concurrent_queries_match_serial_over_channels() {
    let engine = comparison_engine(Skalla::builder().partitions("tpcr", fig2_partitions()));
    assert_concurrent_matches_serial(&engine);
}

#[test]
fn concurrent_queries_match_serial_over_tcp() {
    let parts = fig2_partitions();
    let mut addrs = Vec::new();
    for part in &parts {
        let catalog = HashMap::from([("tpcr".to_string(), Arc::new(part.relation.clone()))]);
        let domains = HashMap::from([("tpcr".to_string(), part.domains.clone())]);
        let server =
            SiteServer::bind("127.0.0.1:0", catalog, domains, TcpConfig::default()).unwrap();
        addrs.push(server.local_addr().unwrap().to_string());
        std::thread::spawn(move || {
            let _ = server.serve_once();
        });
    }
    let engine = comparison_engine(Skalla::builder().remote(&addrs, TcpConfig::default()));
    assert_concurrent_matches_serial(&engine);
}

/// Repeated concurrent batches over one engine: the persistent sessions
/// and query-id assignment must stay coherent across batches.
#[test]
fn repeated_concurrent_batches_reuse_the_sessions() {
    let engine = comparison_engine(Skalla::builder().partitions("tpcr", fig2_partitions()));
    for _ in 0..3 {
        assert_concurrent_matches_serial(&engine);
    }
}

#[test]
fn overload_is_rejected_with_a_clean_queue_full_error() {
    let parts = fig2_partitions();
    let engine = Skalla::builder()
        .partitions("tpcr", parts)
        .max_concurrent(1)
        .queue_capacity(0)
        .build()
        .unwrap();
    let (expr, _) = workload().remove(0);
    let plan = Planner::new(engine.distribution()).optimize(&expr, OptFlags::all());
    // Occupy the only slot, then submit: the queue has no capacity, so
    // the submission must be rejected immediately and descriptively.
    let permit = engine.scheduler().admit().unwrap();
    let err = engine.execute(&plan).unwrap_err().to_string();
    assert!(
        err.contains("admission queue full"),
        "expected a queue-full rejection, got: {err}"
    );
    drop(permit);
    // With the slot free again the same engine still works.
    engine.execute(&plan).unwrap();
}

#[test]
fn queue_timeout_surfaces_as_a_clean_error() {
    let parts = fig2_partitions();
    let engine = Skalla::builder()
        .partitions("tpcr", parts)
        .max_concurrent(1)
        .queue_capacity(4)
        .queue_timeout(Duration::from_millis(50))
        .build()
        .unwrap();
    let (expr, _) = workload().remove(0);
    let plan = Planner::new(engine.distribution()).optimize(&expr, OptFlags::all());
    let _permit = engine.scheduler().admit().unwrap();
    let err = engine.execute(&plan).unwrap_err().to_string();
    assert!(
        err.contains("timed out in the admission queue"),
        "expected a queue-timeout error, got: {err}"
    );
}
