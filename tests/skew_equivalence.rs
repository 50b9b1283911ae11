//! Skew balancing is a pure performance transform: turning it on or off
//! must never change a single output bit.
//!
//! The balanced path rebuilds each donor's result from per-segment
//! sub-aggregates computed by *other* sites (helpers), merged back in
//! donor morsel order — so any drift in morsel decomposition, segment
//! routing, or merge order shows up as a low-bit difference in the
//! order-sensitive f64 accumulators (AVG / VAR / STDDEV). These tests
//! compare raw `f64` bit patterns, not `Value` equality, across random
//! GMDJ chains over Zipf-partitioned data, thread counts and both
//! transports.

mod common;

use common::assert_bit_identical;
use proptest::prelude::*;
use skalla::core::{Cluster, OptFlags, Planner, SiteServer, Skalla};
use skalla::datagen::partition::{partition_by_int_ranges, Partition};
use skalla::datagen::Zipf;
use skalla::gmdj::prelude::*;
use skalla::gmdj::EvalOptions;
use skalla::net::TcpConfig;
use skalla::relation::{DataType, Row};
use std::collections::HashMap;
use std::sync::Arc;

/// Zipf-keyed detail: group key is a Zipf(s) rank (rank 0 hottest), so
/// range partitioning concentrates the hot keys on site 0 — the regime
/// the balancer detects and rewrites.
fn zipf_detail(rows: usize, keys: usize, s: f64, seed: u64) -> Relation {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let zipf = Zipf::new(keys, s);
    let mut rng = StdRng::seed_from_u64(seed);
    Relation::new(
        Schema::of(&[("g", DataType::Int), ("v", DataType::Double)]),
        (0..rows)
            .map(|i| {
                let g = zipf.sample(&mut rng) as i64;
                // Thirds are inexact in binary, so SUM/AVG/VAR low bits
                // depend on accumulation order.
                let v = ((i.wrapping_mul(1_103_515_245).wrapping_add(12_345)) % 1000) as f64 / 3.0;
                Row::new(vec![g.into(), v.into()])
            })
            .collect(),
    )
    .expect("static schema")
}

/// Shape of the optional later rounds of the chain.
#[derive(Debug, Clone)]
enum Tail {
    /// Single-round chain: balancing only has the one stage to rewrite.
    None,
    /// Correlated round (θ references the round-1 AVG output).
    AboveAvg,
    /// Independent filter round plus a third correlated round.
    FilteredThenBelowAvg(i64),
}

fn arb_tail() -> impl Strategy<Value = Tail> {
    prop_oneof![
        Just(Tail::None),
        Just(Tail::AboveAvg),
        (0i64..300).prop_map(Tail::FilteredThenBelowAvg),
    ]
}

fn build_chain(tail: &Tail) -> GmdjExpr {
    let mut b = GmdjExprBuilder::distinct_base("t", &["g"]).gmdj(Gmdj::new("t").block(
        ThetaBuilder::group_by(&["g"]).build(),
        vec![
            AggSpec::count("cnt"),
            AggSpec::sum("v", "sm"),
            AggSpec::avg("v", "av"),
            AggSpec::var("v", "vr"),
            AggSpec::stddev("v", "sd"),
        ],
    ));
    b = match tail {
        Tail::None => b,
        Tail::AboveAvg => b.gmdj(Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"])
                .and(Expr::dcol("v").ge(Expr::bcol("av")))
                .build(),
            vec![AggSpec::count("big"), AggSpec::avg("v", "av2")],
        )),
        Tail::FilteredThenBelowAvg(k) => b
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"])
                    .and(Expr::dcol("v").gt(Expr::lit(*k)))
                    .build(),
                vec![AggSpec::count("big"), AggSpec::sum("v", "sm2")],
            ))
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"])
                    .and(Expr::dcol("v").lt(Expr::bcol("av")))
                    .build(),
                vec![AggSpec::min("v", "mn"), AggSpec::var("v", "vr2")],
            )),
    };
    b.build()
}

fn opts(
    skew_balance: bool,
    parallelism: usize,
    morsel_rows: usize,
) -> skalla::core::EngineConfig {
    skalla::core::EngineConfig {
        eval: EvalOptions {
            parallelism,
            morsel_rows,
        },
        skew_balance,
        ..skalla::core::EngineConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random chains × random Zipf data × random partitioning, thread
    /// counts and morsel sizes: the balanced execution is bit-identical
    /// to the unbalanced one, row for row.
    #[test]
    fn balanced_matches_unbalanced_bitwise(
        rows in 200usize..900,
        keys in 8usize..64,
        s in 0.3f64..1.6,
        n_sites in 2usize..9,
        parallelism in 1usize..5,
        morsel_rows in 16usize..96,
        all_flags in any::<bool>(),
        tail in arb_tail(),
        seed in 0u64..1_000,
    ) {
        let detail = zipf_detail(rows, keys, s, seed);
        let mut cluster =
            Cluster::from_partitions("t", partition_by_int_ranges(&detail, "g", n_sites));
        let expr = build_chain(&tail);
        let flags = if all_flags { OptFlags::all() } else { OptFlags::none() };
        let plan = Planner::new(cluster.distribution()).optimize(&expr, flags);

        cluster.configure(&opts(false, parallelism, morsel_rows));
        let off = cluster.execute(&plan).expect("unbalanced run");
        cluster.configure(&opts(true, parallelism, morsel_rows));
        let on = cluster.execute(&plan).expect("balanced run");

        assert_bit_identical(
            &on.relation,
            &off.relation,
            &[],
            &format!(
                "rows {rows} keys {keys} s {s:.2} sites {n_sites} par {parallelism} \
                 morsel {morsel_rows} flags {flags:?} tail {tail:?}"
            ),
        );
    }
}

/// The same invariant across transports: a loopback TCP run with skew
/// balancing on must be bit-identical (in key order — arrival order is
/// transport-dependent) to the in-process channel run, and its logical
/// traffic accounting — heavy-hitter reports and loan frames included —
/// must match the channel transport byte for byte.
#[test]
fn tcp_transport_matches_channel_under_balancing() {
    let detail = zipf_detail(6_000, 64, 1.3, 7);
    let parts = partition_by_int_ranges(&detail, "g", 4);
    let expr = build_chain(&Tail::FilteredThenBelowAvg(100));

    let mut local = Cluster::from_partitions("t", parts.clone());
    let plan = Planner::new(local.distribution()).optimize(&expr, OptFlags::all());
    local.configure(&opts(false, 2, 512));
    let local_off = local.execute(&plan).expect("local unbalanced");
    local.configure(&opts(true, 2, 512));
    let local_on = local.execute(&plan).expect("local balanced");
    assert_bit_identical(&local_on.relation, &local_off.relation, &[], "local on/off");

    let spawn = |parts: &[Partition]| -> Vec<String> {
        let mut addrs = Vec::new();
        for part in parts {
            let catalog = HashMap::from([("t".to_string(), Arc::new(part.relation.clone()))]);
            let domains = HashMap::from([("t".to_string(), part.domains.clone())]);
            let server =
                SiteServer::bind("127.0.0.1:0", catalog, domains, TcpConfig::default()).unwrap();
            addrs.push(server.local_addr().unwrap().to_string());
            std::thread::spawn(move || {
                let _ = server.serve_once();
            });
        }
        addrs
    };

    let remote = Skalla::builder()
        .remote(&spawn(&parts), TcpConfig::default())
        .config(opts(true, 2, 512))
        .build()
        .unwrap();
    let remote_on = remote.execute(&plan).expect("remote balanced");

    assert_bit_identical(
        &remote_on.relation,
        &local_on.relation,
        &["g"],
        "tcp vs channel, balanced",
    );
    // Loan and report frames are accounted in payload bytes at the
    // protocol layer, so the two transports must agree exactly.
    assert_eq!(remote_on.stats.net, local_on.stats.net);
}
