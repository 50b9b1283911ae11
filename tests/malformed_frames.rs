//! Malformed-frame robustness: garbage, truncated, and out-of-order
//! remote frames must surface as clean `TAG_ERROR` replies (through the
//! channel transport's [`site_session_loop`]) or clean session errors
//! (at the TCP framing layer) — never a panic, never a hang. These are
//! the regression tests for the decode paths in `protocol.rs`,
//! `relation/codec.rs`, and `tcp.rs` that used to `unwrap`/`expect` on
//! remote input, and for the coordinator's check of a merge unit's
//! `RESULT` against the unit's physical schema.

use skalla::core::distribution::DistributionInfo;
use skalla::core::plan::{OptFlags, Planner};
use skalla::core::plan_codec::encode_plan_with_options;
use skalla::core::protocol::{self, SiteCatalogEntry};
use skalla::core::site::site_session_loop;
use skalla::core::Skalla;
use skalla::gmdj::prelude::*;
use skalla::gmdj::EvalOptions;
use skalla::net::{star, CoordinatorTransport, Message, SiteTransport, TcpConfig, TcpSiteListener};
use skalla::obs::Obs;
use skalla::relation::codec::Encoder;
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

    // A stage task whose fragment's columnar body is malformed: stage 1,
    // a fragment, the schema `(g ty)`, a row count, then the column as
    // given. Encoding bytes: 1 is an `Int` run, 2 a `Double` run, 3 a
    // string dictionary, 4 plain strings; 5 was the tagged cells of the
    // mixed-type column, which protocol v11 retired.
    let fragment = |ty: DataType, rows: u32, column: &[u8]| {
        let mut e = Encoder::new();
        e.put_u32(1);
        e.put_u8(1);
        e.put_schema(&Schema::of(&[("g", ty)]));
        e.put_u32(rows);
        let mut payload = e.finish();
        payload.extend_from_slice(column);
        Message::for_query(protocol::TAG_RUN_STAGE, 1, payload)
    };
    let word = 1i64.to_le_bytes();
    let (int, dbl, txt) = (DataType::Int, DataType::Double, DataType::Str);
    for (payload, frag) in [
        (fragment(int, 1, &[0x42, 0, 0, 0, 0, 0, 0, 0, 0]), "unknown column encoding"),
        (fragment(int, 2, &[[1u8].as_slice(), &word, &[0, 0]].concat()), "unexpected end of input"),
        (fragment(txt, 1, &[3, 1, 0, 0, 0, 1, 0, 0, 0, b'a', 1]), "dictionary code 1"),
        (fragment(int, u32::MAX, &[1, 0, 0, 0]), "cannot fit"),
        (fragment(int, 1, &[[1u8].as_slice(), &word, &[0]].concat()), "trailing bytes"),
        (fragment(int, 1, &[5, 1, 1, 0, 0, 0, 0, 0, 0, 0]), "unknown column encoding 0x05"),
        (fragment(dbl, 1, &[[1u8].as_slice(), &word].concat()), "encoded INT under DOUBLE field g"),
        (fragment(int, 1, &[4, 1, 0, 0, 0, b'a']), "encoded STR under INT field g"),
    ] {
        coord.send(0, payload).unwrap();
        expect_error(frag);
    }

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

/// At the coordinator: a site whose merge-unit `RESULT` types an
/// accumulator `DOUBLE` where the unit's physical schema has `COUNT`'s
/// `INT`, or its key `STR` where B's is `INT`, gets the round refused
/// with a clean error — not merged, not a panic, not a hang.
#[test]
fn a_result_off_the_units_physical_schema_is_a_clean_round_error() {
    let mistyped = [
        Relation::new(
            Schema::of(&[("g", DataType::Int), ("c", DataType::Double)]),
            vec![row![1i64, 1.0]],
        ),
        Relation::new(
            Schema::of(&[("g", DataType::Str), ("c", DataType::Int)]),
            vec![row!["1", 1i64]],
        ),
    ];
    for answer in mistyped {
        let err = merge_unit_error(answer.unwrap(), AggSpec::count("c"));
        assert!(err.contains("key and physical schema"), "{err}");
    }
}

/// At the coordinator: an `AVG` sub-aggregate whose count column holds a
/// `NULL`, well typed but impossible, is refused with a clean error
/// rather than merged.
#[test]
fn an_avg_count_holding_null_is_a_clean_round_error() {
    let answer = Relation::new(
        Schema::of(&[
            ("g", DataType::Int),
            ("a__sum", DataType::Int),
            ("a__cnt", DataType::Int),
        ]),
        vec![row![1i64, 10i64, skalla::relation::Value::Null]],
    )
    .unwrap();
    let err = merge_unit_error(answer, AggSpec::avg("v", "a"));
    assert!(err.contains("malformed accumulator columns for AVG"), "{err}");
}

/// The error of a query grouping `t` on `g` with `agg` against one site
/// that answers its merge unit with `answer`. The site is a hand-written
/// TCP peer that answers the handshake and the base round honestly.
fn merge_unit_error(answer: Relation, agg: AggSpec) -> String {
    let listener = TcpSiteListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let table = catalog()["t"].clone();
    let site = std::thread::spawn(move || {
        let s = listener.accept(&TcpConfig::default()).unwrap();
        assert_eq!(s.recv().unwrap().tag, protocol::TAG_CATALOG_REQ);
        let entry = SiteCatalogEntry {
            table: "t".into(),
            schema: table.schema().clone(),
            domains: DomainMap::new(),
        };
        s.send(protocol::catalog(&[entry])).unwrap();
        // Answer every stage task until the coordinator hangs up.
        while let Ok(msg) = s.recv() {
            if msg.tag != protocol::TAG_RUN_STAGE {
                continue;
            }
            let (stage, _, ()) = protocol::decode_run_stage(&msg.payload).unwrap();
            let answer = match stage {
                0 => protocol::result(0, &table.project_distinct(&["g"]).unwrap()),
                _ => protocol::result(stage, &answer),
            };
            s.send(answer.with_query_id(msg.query_id)).unwrap();
        }
    });

    let engine = Skalla::builder()
        .remote(&[addr], TcpConfig::default())
        .timeout(Duration::from_secs(10))
        .build()
        .unwrap();
    let expr = GmdjExprBuilder::distinct_base("t", &["g"])
        .gmdj(Gmdj::new("t").block(ThetaBuilder::group_by(&["g"]).build(), vec![agg]))
        .build();
    let plan = Planner::new(engine.distribution()).optimize(&expr, OptFlags::none());
    let err = engine.execute(&plan).unwrap_err().to_string();
    drop(engine);
    site.join().expect("the site saw the session end");
    err
}
