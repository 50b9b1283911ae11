//! Malformed-frame robustness: garbage, truncated, and out-of-order
//! remote frames must surface as clean `TAG_ERROR` replies (through the
//! channel transport's [`site_session_loop`]) or clean session errors
//! (at the TCP framing layer) — never a panic, never a hang. These are
//! the regression tests for the decode paths in `protocol.rs`,
//! `relation/codec.rs`, and `tcp.rs` that used to `unwrap`/`expect` on
//! remote input.

use skalla::core::distribution::DistributionInfo;
use skalla::core::plan::{OptFlags, Planner};
use skalla::core::plan_codec::encode_plan_with_options;
use skalla::core::protocol;
use skalla::core::site::site_session_loop;
use skalla::gmdj::prelude::*;
use skalla::gmdj::EvalOptions;
use skalla::net::{star, CoordinatorTransport, Message, TcpConfig, TcpSiteListener};
use skalla::obs::Obs;
use skalla::relation::{row, DataType, DomainMap, Relation, Schema};
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn catalog() -> HashMap<String, Arc<Relation>> {
    let rel = Relation::new(
        Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]),
        vec![row![1i64, 10i64], row![2i64, 20i64]],
    )
    .unwrap();
    HashMap::from([("t".to_string(), Arc::new(rel))])
}

fn plan_bytes() -> Vec<u8> {
    let mut dist = DistributionInfo::new(1);
    dist.set_table("t", vec![DomainMap::new()]);
    let expr = GmdjExprBuilder::distinct_base("t", &["g"])
        .gmdj(Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![AggSpec::count("c")],
        ))
        .build();
    let plan = Planner::new(dist).optimize(&expr, OptFlags::none());
    encode_plan_with_options(&plan, &EvalOptions::default(), None)
}

/// Feed the session demultiplexer every malformed-frame shape a remote
/// peer can produce and assert each one is answered with a clean
/// `TAG_ERROR` — and that the session loop itself survives all of them
/// and still shuts down normally (no panic, no poisoned worker).
#[test]
fn garbage_and_truncated_frames_get_clean_error_replies() {
    let (coord, mut sites) = star(1);
    let site = sites.pop().unwrap();
    let cat = catalog();
    let session = std::thread::spawn(move || {
        site_session_loop(&cat, Arc::new(site), false, &Obs::disabled())
    });

    let expect_error = |frag: &str| {
        let (_, reply) = coord
            .recv(Duration::from_secs(10))
            .expect("site must reply, not hang");
        assert_eq!(reply.tag, protocol::TAG_ERROR, "expected an error frame");
        let msg = protocol::decode_error(&reply.payload);
        assert!(msg.contains(frag), "error {msg:?} does not mention {frag:?}");
        msg
    };

    // A stage task before any plan arrived.
    coord
        .send(0, Message::for_query(protocol::TAG_RUN_STAGE, 1, vec![]))
        .unwrap();
    expect_error("stage task before plan");

    // A plan frame carrying pure garbage.
    coord
        .send(
            0,
            Message::for_query(protocol::TAG_PLAN, 1, vec![0xDE, 0xAD, 0xBE, 0xEF]),
        )
        .unwrap();
    expect_error("bad plan");

    // A genuine plan truncated mid-stream (a dropped TCP segment shape).
    let bytes = plan_bytes();
    let truncated = bytes[..bytes.len() / 2].to_vec();
    coord
        .send(0, Message::for_query(protocol::TAG_PLAN, 1, truncated))
        .unwrap();
    expect_error("bad plan");

    // Now install the intact plan, then corrupt everything after it.
    coord
        .send(0, Message::for_query(protocol::TAG_PLAN, 1, bytes))
        .unwrap();

    // A truncated RUN_STAGE payload: one byte where a u32 stage index
    // belongs (the old decoder `unwrap`ed here).
    coord
        .send(0, Message::for_query(protocol::TAG_RUN_STAGE, 1, vec![0x07]))
        .unwrap();
    expect_error("unexpected end of input");

    // A tag outside the protocol registry entirely, and each tag byte
    // the skew balancer used until protocol v7 (HH_REPORT, LOAN,
    // LOAN_TASK, LOAN_RESULT): a v6 peer's frames are refused, and the
    // query on this session still answers afterwards.
    for tag in [0xEE, 10, 11, 12, 13] {
        coord
            .send(0, Message::for_query(tag, 1, vec![0xFF, 0x00]))
            .unwrap();
        expect_error("unexpected message tag");
    }
    coord
        .send(0, protocol::run_stage(0, None).with_query_id(1))
        .unwrap();
    let answer = || {
        coord
            .recv(Duration::from_secs(10))
            .expect("site must answer the stage task")
            .1
    };
    let telemetry = answer();
    assert_eq!(
        telemetry.tag,
        protocol::TAG_TELEMETRY,
        "busy time leads the result"
    );
    assert_eq!(
        protocol::decode_telemetry(&telemetry.payload)
            .unwrap()
            .stage,
        0
    );
    assert_eq!(answer().tag, protocol::TAG_RESULT, "the query still runs");

    // The session survived every malformed frame: it still executes the
    // orderly shutdown and the thread joins without a panic.
    coord.broadcast(&protocol::shutdown()).unwrap();
    session.join().expect("session loop must not panic");
}

/// The TCP accept path: garbage hellos, truncated headers, and absurd
/// length fields are clean per-session errors, and the listener stays
/// usable for the next connection.
#[test]
fn tcp_accept_survives_garbage_truncated_and_oversized_frames() {
    let listener = TcpSiteListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let cfg = TcpConfig {
        connect_timeout: Duration::from_millis(500),
        ..TcpConfig::default()
    };

    let accepts = std::thread::spawn(move || {
        (0..3)
            .map(|_| listener.accept(&cfg).map(|_| ()))
            .collect::<Vec<_>>()
    });

    // Session 1: a well-formed v2 frame that is not a handshake hello.
    let mut s = TcpStream::connect(addr).unwrap();
    let mut frame = vec![7u8]; // tag 7, not the hello tag
    frame.extend_from_slice(&0u32.to_le_bytes()); // query id
    frame.extend_from_slice(&3u32.to_le_bytes()); // len
    frame.extend_from_slice(b"abc");
    s.write_all(&frame).unwrap();

    // Session 2: a header truncated mid-way, then a hard close.
    let mut s2 = TcpStream::connect(addr).unwrap();
    s2.write_all(&[0xFF, 0x01, 0x02, 0x03]).unwrap();
    s2.shutdown(Shutdown::Both).unwrap();

    // Session 3: a header whose length field claims 4 GiB.
    let mut s3 = TcpStream::connect(addr).unwrap();
    let mut frame = vec![0xFFu8];
    frame.extend_from_slice(&0u32.to_le_bytes());
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    s3.write_all(&frame).unwrap();

    let results = accepts.join().expect("accept loop must not panic");
    let errs: Vec<String> = results
        .into_iter()
        .map(|r| r.expect_err("malformed session must fail accept").to_string())
        .collect();
    assert!(errs[0].contains("bad handshake frame"), "{errs:?}");
    assert!(
        errs[1].contains("disconnected") || errs[1].contains("Disconnected"),
        "{errs:?}"
    );
    assert!(errs[2].contains("exceeds"), "{errs:?}");
}
