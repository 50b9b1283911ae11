//! Transport equivalence: the TCP transport must be indistinguishable
//! from the in-process channel transport at the logical layer.
//!
//! One [`Skalla`] engine drives both backends, and traffic is accounted
//! in payload bytes at the protocol layer (never wire framing), so a
//! loopback multi-process run of the paper's Fig. 2 workload must
//! produce the same result relation AND byte-for-byte identical
//! [`RoundStats`] — same rounds, same per-site byte/message counts — as
//! the threaded in-process run, and so must the in-process run over
//! links shaped to the paper's LAN. These tests pin that invariant
//! between local-backend and remote-backend engines, plus the failure mode: a
//! site dying mid-round surfaces as a clean disconnect error, not a
//! hang.

use skalla::core::{protocol, EngineConfig, OptFlags, Planner, SiteServer, Skalla};
use skalla::datagen::partition::{observe_int_ranges, partition_by_int_ranges, Partition};
use skalla::datagen::tpcr::{generate_tpcr, TpcrConfig};
use skalla::gmdj::prelude::*;
use skalla::net::{CoordinatorTransport, Link, Message, SiteTransport, TcpConfig, TcpCoordinator, TcpSiteListener};
use skalla::relation::Relation;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const N_SITES: usize = 4;

/// Nation-partitioned TPCR fragments with observed `cust_key` /
/// `cust_group` domains — the Fig. 2 experimental setup at test scale.
fn fig2_partitions() -> Vec<Partition> {
    let tpcr = generate_tpcr(&TpcrConfig::new(8_000, 42));
    let mut parts = partition_by_int_ranges(&tpcr, "nation_key", N_SITES);
    observe_int_ranges(&mut parts, &["cust_key", "cust_group"]);
    parts
}

/// The Fig. 2 group-reduction query: two correlated GMDJs grouped on the
/// partition-aligned attribute, COUNT + AVG each; θ₂ references `avg1`,
/// which prevents coalescing.
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

/// Spawn one `SiteServer` thread per fragment; returns their addresses.
fn spawn_sites(parts: &[Partition]) -> Vec<String> {
    let mut addrs = Vec::new();
    for part in parts {
        let catalog = HashMap::from([("tpcr".to_string(), Arc::new(part.relation.clone()))]);
        let domains = HashMap::from([("tpcr".to_string(), part.domains.clone())]);
        let server =
            SiteServer::bind("127.0.0.1:0", catalog, domains, TcpConfig::default()).unwrap();
        addrs.push(server.local_addr().unwrap().to_string());
        std::thread::spawn(move || {
            let _ = server.serve_once();
        });
    }
    addrs
}

fn canonical(rel: &Relation) -> Relation {
    rel.sorted_by(&["cust_group"]).unwrap()
}

/// An engine over in-process site threads (channel transport).
fn local_engine(parts: &[Partition], cfg: EngineConfig) -> Skalla {
    Skalla::builder()
        .partitions("tpcr", parts.to_vec())
        .config(cfg)
        .build()
        .unwrap()
}

/// An engine over already-listening sites (loopback TCP).
fn remote_engine(addrs: &[String], tcp: TcpConfig, cfg: EngineConfig) -> Skalla {
    Skalla::builder()
        .remote(addrs, tcp)
        .config(cfg)
        .build()
        .unwrap()
}

#[test]
fn loopback_tcp_matches_channel_transport_exactly() {
    let parts = fig2_partitions();
    let expr = fig2_query();

    let local = local_engine(&parts, EngineConfig::default());
    let plan = Planner::new(local.distribution()).optimize(&expr, OptFlags::all());
    let local_out = local.execute(&plan).unwrap();

    let addrs = spawn_sites(&parts);
    let remote = remote_engine(&addrs, TcpConfig::default(), EngineConfig::default());
    // The catalog handshake must reconstruct the coordinator's φ
    // knowledge exactly: the remote plan is the same plan.
    let remote_plan = Planner::new(remote.distribution()).optimize(&expr, OptFlags::all());
    assert_eq!(remote_plan.explain(), plan.explain());
    let remote_out = remote.execute(&remote_plan).unwrap();

    // Same answer (row order is arrival-dependent on both transports, so
    // compare in key order)…
    assert_eq!(
        canonical(&remote_out.relation),
        canonical(&local_out.relation)
    );
    // …and identical logical traffic: same rounds, same per-site payload
    // byte and message counts. RoundStats equality is exact — any wire
    // framing leaking into the accounting would fail here.
    assert_eq!(remote_out.stats.net, local_out.stats.net);
    assert_eq!(
        remote_out.stats.stages.len(),
        local_out.stats.stages.len(),
        "round structure must match"
    );
    // A one-shot remote run reports real site busy times: every site
    // that answered a stage round measured its own work.
    let stats = &remote_out.stats;
    for (stage, round) in stats.stages.iter().zip(&stats.net).skip(1) {
        for (site, link) in round.per_site.iter().enumerate() {
            if link.up_msgs > 0 {
                assert!(
                    stage.site_busy_s[site] > 0.0,
                    "site {site} ran {:?} but reported no busy time",
                    stage.label
                );
            }
        }
    }
    // Over real sockets too, the rounds' coordinator and wait seconds
    // partition the wall, and the plan round spent coordinator time.
    let timed: f64 = stats.stages.iter().map(|st| st.coord_s + st.wait_s).sum();
    assert!(
        (timed - stats.wall_s).abs() <= 1e-9,
        "Σ {timed} s of a {} s wall",
        stats.wall_s
    );
    assert!(stats
        .stages
        .iter()
        .all(|st| st.coord_s >= 0.0 && st.wait_s >= 0.0));
    assert!(stats.stages[0].label == "plan" && stats.stages[0].coord_s > 0.0);

    // The same sites over links shaped to the paper's LAN: the same
    // bits and the same traffic, and every round pays a latency each way.
    let lan = Link::lan();
    let shaped = Skalla::builder()
        .partitions("tpcr", parts.to_vec())
        .link(lan)
        .build()
        .unwrap();
    let shaped_out = shaped.execute(&plan).unwrap();
    assert_eq!(
        canonical(&shaped_out.relation),
        canonical(&local_out.relation)
    );
    assert_eq!(shaped_out.stats.net, local_out.stats.net);
    let floor = 2.0 * lan.latency.as_secs_f64() * shaped_out.stats.n_rounds() as f64;
    assert!(
        shaped_out.stats.wall_s >= floor,
        "wall {} s under {floor} s",
        shaped_out.stats.wall_s
    );
}

/// A plan with resident rounds: the Fig. 2 chain grouped on `part_key`
/// under every reduction, whose round 2 ships each site only its own
/// parts, keyless, in the order its folded round 1 answered them. Loopback
/// TCP equals the channel transport in answer and in exact `RoundStats`.
#[test]
fn loopback_tcp_matches_channel_transport_on_resident_rounds() {
    // 2,000 rows a site over 4,000 parts: each site lacks most of them.
    let tpcr = generate_tpcr(&TpcrConfig { parts: 4_000, ..TpcrConfig::new(8_000, 42) });
    let parts = partition_by_int_ranges(&tpcr, "nation_key", N_SITES);
    let expr = GmdjExprBuilder::distinct_base("tpcr", &["part_key"])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["part_key"]).build(),
            vec![AggSpec::count("cnt1"), AggSpec::avg("extended_price", "avg1")],
        ))
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["part_key"])
                .and(Expr::dcol("extended_price").ge(Expr::bcol("avg1")))
                .build(),
            vec![AggSpec::count("cnt2"), AggSpec::avg("quantity", "avg2")],
        ))
        .build();
    let by_part = |rel: &Relation| rel.sorted_by(&["part_key"]).unwrap();
    let local = local_engine(&parts, EngineConfig::default());
    let plan = Planner::new(local.distribution()).optimize(&expr, OptFlags::all());
    assert!(plan.explain().contains("site-resident rows: site(s) 0, 1, 2, 3"), "{}", plan.explain());
    let local_out = local.execute(&plan).unwrap();

    let addrs = spawn_sites(&parts);
    let remote = remote_engine(&addrs, TcpConfig::default(), EngineConfig::default());
    let remote_out = remote.execute(&plan).unwrap();
    assert_eq!(by_part(&remote_out.relation), by_part(&local_out.relation));
    assert_eq!(remote_out.stats.net, local_out.stats.net);
}

/// A site that completes the handshake, accepts the plan and the first
/// stage, then dies. The coordinator must abort the round with a clean
/// per-site disconnect diagnostic — not hang waiting for the dead site.
#[test]
fn site_death_mid_round_aborts_with_disconnect_error() {
    let parts = fig2_partitions();
    let expr = fig2_query();

    let mut addrs = spawn_sites(&parts[..N_SITES - 1]);

    // The rogue last site: real listener, real handshake, then silence.
    let rel = parts[N_SITES - 1].relation.clone();
    let dom = parts[N_SITES - 1].domains.clone();
    let listener = TcpSiteListener::bind("127.0.0.1:0").unwrap();
    addrs.push(listener.local_addr().unwrap().to_string());
    let rogue = std::thread::spawn(move || {
        let site = listener.accept(&TcpConfig::default()).unwrap();
        let req = site.recv().unwrap();
        assert_eq!(req.tag, protocol::TAG_CATALOG_REQ);
        site.send(protocol::catalog(&[protocol::SiteCatalogEntry {
            table: "tpcr".to_string(),
            schema: rel.schema().clone(),
            domains: dom,
        }]))
        .unwrap();
        let plan_msg = site.recv().unwrap();
        assert_eq!(plan_msg.tag, protocol::TAG_PLAN);
        let stage = site.recv().unwrap();
        assert_eq!(stage.tag, protocol::TAG_RUN_STAGE);
        // Drop the connection mid-round without replying.
        drop(site);
    });

    let cfg = TcpConfig {
        read_timeout: Some(Duration::from_secs(30)),
        ..TcpConfig::default()
    };
    let remote = remote_engine(&addrs, cfg, EngineConfig::default());
    let plan = Planner::new(remote.distribution()).optimize(&expr, OptFlags::all());
    let err = remote.execute(&plan).unwrap_err().to_string();
    assert!(
        err.contains("disconnected"),
        "expected a clean disconnect diagnostic, got: {err}"
    );
    assert!(
        err.contains(&format!("site {}", N_SITES - 1)),
        "diagnostic should name the dead site, got: {err}"
    );
    rogue.join().unwrap();
}

/// Regression: a client that connects and drops mid-handshake (or sends
/// a truncated frame) must not wedge `serve_forever` — the handshake
/// read is deadline-bounded and a failed session returns the server to
/// its accept loop, so the next genuine coordinator still gets served.
#[test]
fn mid_handshake_disconnect_does_not_wedge_serve_forever() {
    let parts = fig2_partitions();
    let part = &parts[0];
    let catalog = HashMap::from([("tpcr".to_string(), Arc::new(part.relation.clone()))]);
    let domains = HashMap::from([("tpcr".to_string(), part.domains.clone())]);
    let cfg = TcpConfig {
        read_timeout: Some(Duration::from_secs(5)),
        ..TcpConfig::default()
    };
    let server = SiteServer::bind("127.0.0.1:0", catalog, domains, cfg.clone()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let _ = server.serve_forever();
    });

    // Rude client 1: connect, say nothing, hang up.
    drop(std::net::TcpStream::connect(&addr).unwrap());
    // Rude client 2: connect, send a truncated frame header, hang up.
    {
        use std::io::Write as _;
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        s.write_all(&[protocol::TAG_CATALOG_REQ, 0x01]).unwrap();
        drop(s);
    }

    // A genuine coordinator session must still be served to completion.
    let remote = remote_engine(std::slice::from_ref(&addr), cfg, EngineConfig::default());
    let expr = fig2_query();
    let plan = Planner::new(remote.distribution()).optimize(&expr, OptFlags::all());
    let out = remote.execute(&plan).unwrap();

    let local = local_engine(std::slice::from_ref(part), EngineConfig::default());
    let local_plan = Planner::new(local.distribution()).optimize(&expr, OptFlags::all());
    let want = local.execute(&local_plan).unwrap();
    assert_eq!(canonical(&out.relation), canonical(&want.relation));
}

/// `DomainMap` must survive the catalog round-trip exactly — losing the
/// observed `cust_key`/`cust_group` ranges would silently disable group
/// reduction on the remote path.
#[test]
fn handshake_preserves_distribution_knowledge() {
    let parts = fig2_partitions();
    let local = local_engine(&parts, EngineConfig::default());
    let addrs = spawn_sites(&parts);
    let remote = remote_engine(&addrs, TcpConfig::default(), EngineConfig::default());
    for col in ["nation_key", "cust_key", "cust_group"] {
        assert_eq!(
            remote.distribution().is_partition_attribute("tpcr", col),
            local.distribution().is_partition_attribute("tpcr", col),
            "partition-attribute status of {col} must survive the handshake"
        );
    }
}

/// A site one protocol version back — v18, the last with one set of
/// accumulator columns per aggregate — is refused at the handshake,
/// before any plan is sent, with an error naming both versions.
#[test]
fn a_v18_site_is_refused_at_the_handshake() {
    let listener = TcpSiteListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let site = std::thread::spawn(move || {
        let s = listener.accept(&TcpConfig::default()).unwrap();
        assert_eq!(s.recv().unwrap().tag, protocol::TAG_CATALOG_REQ);
        let mut reply = protocol::catalog(&[]);
        reply.payload[..4].copy_from_slice(&18u32.to_le_bytes());
        s.send(reply).unwrap();
        // Nothing follows the refused handshake: no plan arrives.
        assert!(s.recv().map_or(true, |m| m.tag != protocol::TAG_PLAN));
    });
    let built = Skalla::builder().remote(&[addr], TcpConfig::default()).build();
    let err = built.err().map(|e| e.to_string()).unwrap_or_default();
    assert!(err.contains("site speaks v18, this coordinator v19"), "{err:?}");
    site.join().unwrap();
}

/// A v18 coordinator is refused by a v19 site at the handshake: the site
/// answers with a `TAG_ERROR` naming both versions and ends the session.
#[test]
fn a_v18_coordinator_is_refused_at_the_handshake() {
    let part = &fig2_partitions()[0];
    let catalog = HashMap::from([("tpcr".to_string(), Arc::new(part.relation.clone()))]);
    let domains = HashMap::from([("tpcr".to_string(), part.domains.clone())]);
    let server = SiteServer::bind("127.0.0.1:0", catalog, domains, TcpConfig::default()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let session = std::thread::spawn(move || server.serve_once().map_err(|e| e.to_string()));
    let coord = TcpCoordinator::connect(&[addr], &TcpConfig::default()).unwrap();
    coord.send(0, Message::new(protocol::TAG_CATALOG_REQ, 18u32.to_le_bytes().to_vec())).unwrap();
    let (_, reply) = coord.recv(Duration::from_secs(10)).unwrap();
    assert_eq!(reply.tag, protocol::TAG_ERROR);
    let want = "unsupported protocol version v18 (this site speaks v19)";
    assert!(protocol::decode_error(&reply.payload).contains(want));
    let ended = session.join().unwrap().unwrap_err();
    assert!(ended.contains(want), "{ended}");
}
