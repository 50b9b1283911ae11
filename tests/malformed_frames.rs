//! Malformed-frame robustness: garbage, truncated, and out-of-order
//! remote frames must surface as clean `TAG_ERROR` replies (through the
//! channel transport's [`site_session_loop`]) or clean session errors
//! (at the TCP framing layer) — never a panic, never a hang. These are
//! the regression tests for the decode paths in `protocol.rs`,
//! `relation/codec.rs`, and `tcp.rs` that used to `unwrap`/`expect` on
//! remote input, and for the coordinator's checks of a merge unit's
//! `RESULT` against the unit's physical schema and, for an answer by
//! position, against the fragment it answers.

use skalla::core::distribution::DistributionInfo;
use skalla::core::plan::{DistributedPlan, OptFlags, Planner, SiteFilter, StageKind};
use skalla::core::plan_codec::{decode_plan_with_options, encode_plan_with_options};
use skalla::core::protocol::{self, SiteCatalogEntry, Survivors};
use skalla::core::site::site_session_loop;
use skalla::core::Skalla;
use skalla::gmdj::prelude::*;
use skalla::gmdj::EvalOptions;
use skalla::net::{star, CoordinatorTransport, Message, SiteTransport, TcpConfig, TcpSiteListener};
use skalla::obs::Obs;
use skalla::relation::codec::Encoder;
use skalla::relation::{row, DataType, Domain, DomainMap, Relation, Schema};
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
    encode_plan_with_options(&plan, &EvalOptions::default())
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
    // given. Encoding bytes: 1 is the numeric form of an `Int` or a
    // `Double` column (a width byte, the minimum below width 64, the
    // offsets; `0x41` delta-codes it), 3 a string dictionary, 4 plain
    // strings; 2, 6, 7 and 8 are forms protocol v18 retired, and 5 the
    // tagged cells of the mixed-type column, which protocol v11 retired.
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
        (fragment(int, 2, &[[1u8, 64].as_slice(), &word, &[0, 0]].concat()), "unexpected end of input"),
        (fragment(txt, 1, &[3, 1, 0, 0, 0, 1, 0, 0, 0, b'a', 1]), "out of first-occurrence order"),
        (fragment(int, u32::MAX, &[1, 0, 0, 0]), "cannot fit"),
        (fragment(int, 1, &[[1u8, 64].as_slice(), &word, &[0]].concat()), "trailing bytes"),
        (fragment(int, 1, &[5, 1, 1, 0, 0, 0, 0, 0, 0, 0]), "unknown column encoding 0x05"),
        (fragment(dbl, 1, &[[2u8].as_slice(), &word].concat()), "unknown column encoding 0x02"),
        (fragment(dbl, 3, &[[0x41u8].as_slice(), &word, &[1], &word, &[0]].concat()), "a delta-coded column under DOUBLE field g"),
        (fragment(int, 1, &[4, 1, 0, 0, 0, b'a']), "a string column under INT field g"),
        (fragment(txt, 1, &[[1u8, 64].as_slice(), &word].concat()), "a numeric column under STR field g"),
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

/// A stage task whose fragment holds a malformed numeric `Int` column
/// (encoding byte 1: a width byte, the minimum below width 64, the
/// offsets) gets a clean `TAG_ERROR`: a width of 0 or 65, a short run,
/// set padding bits, an offset carrying the minimum past `i64`, a width
/// or a form other than the data's, and `u32::MAX` rows claimed by a few
/// bytes, refused by the row-count guard before anything is allocated for
/// them. A well-formed packed fragment is then answered.
#[test]
fn malformed_packed_columns_get_clean_error_replies() {
    let (coord, mut sites) = star(1);
    let site = sites.pop().unwrap();
    let cat = catalog();
    let session = std::thread::spawn(move || {
        site_session_loop(&cat, Arc::new(site), false, &Obs::disabled())
    });
    let reply = || coord.recv(Duration::from_secs(10)).expect("site must reply, not hang").1;
    coord
        .send(0, Message::for_query(protocol::TAG_PLAN, 1, plan_bytes()))
        .unwrap();
    // Stage 1's fragment `(g INT)`: `rows`, then one numeric column.
    let fragment = |rows: u32, width: u8, min: i64, run: &[u8]| {
        let mut e = Encoder::new();
        e.put_u32(1);
        e.put_u8(1);
        e.put_schema(&Schema::of(&[("g", DataType::Int)]));
        e.put_u32(rows);
        e.put_u8(1);
        e.put_u8(width);
        if width < 64 {
            e.put_i64(min);
        }
        let mut payload = e.finish();
        payload.extend_from_slice(run);
        Message::for_query(protocol::TAG_RUN_STAGE, 1, payload)
    };
    let words = [1i64.to_le_bytes(), 2i64.to_le_bytes()].concat();
    for (payload, frag) in [
        (fragment(2, 65, 0, &[0; 17]), "packed width 65"),
        (fragment(2, 0, 0, &[0]), "packed width 0"),
        (fragment(9, 4, 0, &[0; 4]), "unexpected end of input"),
        (fragment(3, 2, 0, &[0b0100_0000]), "past its last value"),
        (fragment(2, 1, i64::MAX, &[0b10]), "past i64"),
        (fragment(2, 2, 1, &[0b01_00]), "packed width 2 where 1 bits"),
        (fragment(1, 1, 1, &[0]), "no smaller than as they are"),
        (fragment(2, 64, 0, &words), "where packing them is smaller"),
        (fragment(u32::MAX, 1, 0, &[0; 8]), "cannot fit"),
    ] {
        coord.send(0, payload).unwrap();
        let error = reply();
        assert_eq!(error.tag, protocol::TAG_ERROR, "expected an error frame for {frag:?}");
        let msg = protocol::decode_error(&error.payload);
        assert!(msg.contains(frag), "error {msg:?} does not mention {frag:?}");
    }
    // Groups 1 and 2, packed in one bit each: the stage runs.
    coord.send(0, fragment(2, 1, 1, &[0b10])).unwrap();
    assert_eq!(reply().tag, protocol::TAG_TELEMETRY, "busy time leads the result");
    assert_eq!(reply().tag, protocol::TAG_RESULT, "a packed fragment is answered");
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

/// At the coordinator: a site whose `RESULT` for a merge unit against B
/// (answered by position: accumulator columns only) types an accumulator
/// `DOUBLE` where the unit's physical schema has `COUNT`'s `INT` — or,
/// for a folded unit (keyed), its key `STR` where B's is `INT` — gets the
/// round refused with a clean error: not merged, not a panic, not a hang.
#[test]
fn a_result_off_the_units_physical_schema_is_a_clean_round_error() {
    let mistyped = relation(&[("c", DataType::Double)], vec![row![1.0], row![1.0]]);
    let err = merge_unit_error(mistyped, AggSpec::count("c"));
    assert!(err.contains("answers by position with accumulators [Int]"), "{err}");

    let mistyped_key = relation(&[("g", DataType::Str), ("c", DataType::Int)], vec![row!["1", 1i64]]);
    let frames = honest_base(move |stage| vec![protocol::result(stage, &mistyped_key)]);
    let err = round_error(count_expr(), folding(), DomainMap::new(), frames);
    assert!(err.contains("answers with its key and accumulators [Int, Int]"), "{err}");
}

/// At the coordinator: an `AVG`'s `COUNT(v)` slot holding a `NULL`, well
/// typed but impossible, is refused with a clean error rather than
/// merged.
#[test]
fn an_avg_count_holding_null_is_a_clean_round_error() {
    let answer = relation(
        &[("a__sum", DataType::Int), ("a__cnt", DataType::Int)],
        vec![row![10i64, skalla::relation::Value::Null], row![20i64, 1i64]],
    );
    let err = merge_unit_error(answer, AggSpec::avg("v", "a"));
    assert!(err.contains("malformed accumulator columns"), "{err}");
    assert!(err.contains("COUNT(r.v) -> a__cnt"), "{err}");
}

/// At the coordinator: a `SUM(v)` slot holding a value where its block's
/// `COUNT(v)` is 0 — the sum that `SUM`, `AVG` and `VAR` of `v` share —
/// is refused, not merged.
#[test]
fn a_sum_where_its_count_is_zero_is_a_clean_round_error() {
    let answer = relation(
        &[("s", DataType::Int), ("a__cnt", DataType::Int)],
        vec![row![10i64, 0i64], row![20i64, 1i64]],
    );
    let err = merge_unit_error_of(answer, vec![AggSpec::sum("v", "s"), AggSpec::avg("v", "a")]);
    assert!(err.contains("malformed accumulator columns: SUM(r.v) -> s"), "{err}");
}

/// At the coordinator: no `SUM(v)` where its block's `COUNT(v)` is
/// positive is refused, not merged.
#[test]
fn no_sum_where_its_count_is_positive_is_a_clean_round_error() {
    let answer = relation(
        &[("s", DataType::Int), ("a__cnt", DataType::Int)],
        vec![row![skalla::relation::Value::Null, 1i64], row![20i64, 1i64]],
    );
    let err = merge_unit_error_of(answer, vec![AggSpec::sum("v", "s"), AggSpec::avg("v", "a")]);
    assert!(err.contains("malformed accumulator columns: SUM(r.v) -> s"), "{err}");
}

/// At the coordinator: an answer shaped as protocol v18 shaped it — one
/// set of columns per aggregate, so `SUM(v)` twice beside `AVG(v)`'s
/// count — is one column too many for the unit's slots, and is refused.
#[test]
fn a_v18_shaped_answer_with_one_column_set_per_aggregate_is_a_clean_round_error() {
    let answer = relation(
        &[("s", DataType::Int), ("a__sum", DataType::Int), ("a__cnt", DataType::Int)],
        vec![row![10i64, 10i64, 1i64], row![20i64, 20i64, 1i64]],
    );
    let err = merge_unit_error_of(answer, vec![AggSpec::sum("v", "s"), AggSpec::avg("v", "a")]);
    assert!(err.contains("where the unit answers by position with accumulators [Int, Int]"), "{err}");
}

/// At the coordinator, an answer by position that does not fit its
/// fragment (B's two groups, shipped whole) is a clean round error: a
/// survivor set over another row count; more accumulator rows than
/// survivors; fewer, or an unreduced answer shorter than the fragment;
/// and an answer that still carries the key column.
#[test]
fn a_positional_answer_off_its_fragment_is_a_clean_round_error() {
    let counts = |n: i64| relation(&[("c", DataType::Int)], (0..n).map(|_| row![1i64]).collect());
    let survivors = |rows: usize, at: &[u32]| {
        Some(Survivors {
            fragment_rows: rows,
            at: at.to_vec(),
        })
    };
    let keyed = relation(&[("g", DataType::Int), ("c", DataType::Int)], vec![row![1i64, 1i64], row![2i64, 1i64]]);
    let cases: Vec<(Message, &str)> = vec![
        (answer(1, &counts(1), survivors(3, &[0])), "has survivors over 3 rows for a 2-row fragment"),
        (answer(1, &counts(2), survivors(2, &[1])), "has 2 accumulator rows for 1 answered fragment rows"),
        (answer(1, &counts(3), None), "has 3 accumulator rows for 2 answered fragment rows"),
        (answer(1, &counts(1), survivors(2, &[0, 1])), "has 1 accumulator rows for 2 answered fragment rows"),
        (answer(1, &counts(1), None), "has 1 accumulator rows for 2 answered fragment rows"),
        (protocol::result(1, &keyed), "answers by position with accumulators [Int]"),
    ];
    for (frame, want) in cases {
        let frames = honest_base(move |_| vec![frame.clone()]);
        let err = round_error(count_expr(), OptFlags::none(), DomainMap::new(), frames);
        assert!(err.contains(want), "{err} lacks {want:?}");
    }
    // The honest answers to the same round: every row, and Prop 1's one
    // survivor, group 2.
    for (frame, want) in [(answer(1, &counts(2), None), [1i64, 1]), (answer(1, &counts(1), survivors(2, &[1])), [0, 1])] {
        let frames = honest_base(move |_| vec![frame.clone()]);
        let (out, plan) = run_against_site(count_expr(), OptFlags::none(), DomainMap::new(), frames);
        assert_eq!(out.unwrap().rows(), [row![1i64, want[0]], row![2i64, want[1]]], "{plan}");
    }
}

/// A survivor set only ever rides on an answer by position: on a folded
/// unit's keyed answer, a chained unit's finalized one or the base round's
/// groups it is a clean round error.
#[test]
fn a_survivor_set_on_a_keyed_answer_is_a_clean_round_error() {
    let empty = Survivors {
        fragment_rows: 0,
        at: Vec::new(),
    };
    let keyed = |rel: Relation| {
        let empty = empty.clone();
        move |_: &StageKind, stage| vec![answer(stage, &rel, Some(empty.clone()))]
    };
    let folded = relation(&[("g", DataType::Int), ("c", DataType::Int)], vec![row![1i64, 1i64], row![2i64, 1i64]]);
    let chained = relation(
        &[("g", DataType::Int), ("c", DataType::Int), ("d", DataType::Int)],
        vec![row![1i64, 1i64, 1i64], row![2i64, 1i64, 1i64]],
    );
    let owned = DomainMap::new().with("g", Domain::IntRange(1, 2));
    for err in [
        round_error(count_expr(), OptFlags::none(), DomainMap::new(), keyed(groups())),
        round_error(count_expr(), folding(), DomainMap::new(), keyed(folded)),
        round_error(two_count_expr(), folding(), owned, keyed(chained)),
    ] {
        assert!(err.contains("a survivor set on a keyed answer"), "{err}");
    }
}

/// At the coordinator, a keyed answer out of key order — the base round's
/// groups, a folded unit's keyed accumulators, a folded chain's finalized
/// rows — fails the query with an error naming the site, never a wrong
/// answer. (Every such answer is one sorted run, which the coordinator
/// merges in one pass.)
#[test]
fn a_keyed_answer_out_of_key_order_is_a_clean_round_error() {
    let owned = DomainMap::new().with("g", Domain::IntRange(1, 2));
    let base = relation(&[("g", DataType::Int)], vec![row![2i64], row![1i64]]);
    let folded = relation(&[("g", DataType::Int), ("c", DataType::Int)], vec![row![2i64, 1i64], row![1i64, 1i64]]);
    let chained = relation(
        &[("g", DataType::Int), ("c", DataType::Int), ("d", DataType::Int)],
        vec![row![2i64, 1i64, 1i64], row![1i64, 1i64, 1i64]],
    );
    let cases = [
        ("base round", count_expr(), OptFlags::none(), DomainMap::new(), base, true),
        ("folded unit", count_expr(), folding(), DomainMap::new(), folded, false),
        ("folded chain", two_count_expr(), folding(), owned, chained, false),
    ];
    for (what, expr, flags, domains, answer, base_round) in cases {
        let reply = move |kind: &StageKind, stage: u32| match (kind, base_round) {
            (StageKind::Base, true) | (StageKind::Unit(_), false) => vec![protocol::result(stage, &answer)],
            (StageKind::Base, false) => vec![protocol::result(stage, &groups())],
            (StageKind::Unit(_), true) => panic!("the base round was accepted"),
        };
        let err = round_error(expr, flags, domains, reply);
        let want = "site 0 sent its keyed answer out of key order: [Int(1)] after [Int(2)]";
        assert!(err.contains(want), "{what}: {err}");
    }
}

/// At the site, a resident stage task (its fragment the rows the site
/// held for the previous unit, without their key) that does not fit what
/// the site holds is a clean `TAG_ERROR` for that query: a fragment of
/// another row count, one carrying a key column, and one for a query
/// that holds no rows. The session serves the queries on, and the honest
/// fragment — zero columns, as the second unit's θ reads only K, and two
/// rows — is answered by position, one row per held row.
#[test]
fn a_resident_fragment_off_the_held_rows_gets_a_clean_error_reply() {
    let (coord, mut sites) = star(1);
    let site = sites.pop().unwrap();
    let cat = catalog();
    let session = std::thread::spawn(move || {
        site_session_loop(&cat, Arc::new(site), false, &Obs::disabled())
    });
    let mut dist = DistributionInfo::new(1);
    dist.set_table("t", vec![DomainMap::new()]);
    let plan = Planner::new(dist).optimize(&two_count_expr(), OptFlags::none());
    let StageKind::Unit(unit) = &plan.stages[2].kind else {
        panic!("{}", plan.explain())
    };
    assert_eq!(unit.site_filters, [SiteFilter::Resident], "{}", plan.explain());
    let plan_bytes = encode_plan_with_options(&plan, &EvalOptions::default());
    let send = |query: u32, msg: Message| coord.send(0, msg.with_query_id(query)).unwrap();
    // The next reply to `query` past its telemetry.
    let reply = |query: u32| loop {
        let (_, msg) = coord.recv(Duration::from_secs(10)).expect("site must reply, not hang");
        assert_eq!(msg.query_id, query);
        if msg.tag != protocol::TAG_TELEMETRY {
            return msg;
        }
    };
    let groups = groups();
    let keyless = groups.project(&[]).unwrap();
    assert_eq!((keyless.schema().len(), keyless.len()), (0, 2));
    let (_, round_trip, ()) = protocol::decode_run_stage(&protocol::run_stage(2, Some(&keyless)).payload).unwrap();
    assert_eq!(round_trip.map(|f| f.len()), Some(2), "a zero-column fragment keeps its row count");

    // Query 1 holds `t`'s two groups after its first unit.
    send(1, Message::new(protocol::TAG_PLAN, plan_bytes.clone()));
    let hold = |query| {
        send(query, protocol::run_stage(1, Some(&groups)));
        assert_eq!(reply(query).tag, protocol::TAG_RESULT);
    };
    let three = relation(&[("x", DataType::Int)], vec![row![1i64], row![2i64], row![3i64]]).project(&[]).unwrap();
    for (fragment, want) in [
        (three, "a resident fragment of 3 rows for 2 held rows"),
        (groups.clone(), "a resident fragment carrying key column \"g\""),
    ] {
        hold(1);
        send(1, protocol::run_stage(2, Some(&fragment)));
        let msg = reply(1);
        assert_eq!(msg.tag, protocol::TAG_ERROR);
        let err = protocol::decode_error(&msg.payload);
        assert!(err.contains(want), "{err} lacks {want:?}");
    }
    // Query 2 never held rows.
    send(2, Message::new(protocol::TAG_PLAN, plan_bytes));
    send(2, protocol::run_stage(2, Some(&keyless)));
    let msg = reply(2);
    assert_eq!(msg.tag, protocol::TAG_ERROR);
    let err = protocol::decode_error(&msg.payload);
    assert!(err.contains("a resident fragment for a query that holds no rows"), "{err}");

    // Query 1 still runs: its resident stage is answered by position.
    hold(1);
    send(1, protocol::run_stage(2, Some(&keyless)));
    let msg = reply(1);
    assert_eq!(msg.tag, protocol::TAG_RESULT, "{}", protocol::decode_error(&msg.payload));
    let (stage, _, answer) = protocol::decode_result(&msg.payload).unwrap();
    assert_eq!(stage, 2);
    assert_eq!(answer.rows(), [row![1i64], row![1i64]]);

    coord.broadcast(&protocol::shutdown()).unwrap();
    session.join().expect("session loop must not panic");
}

/// The plan check every execution runs (`check_structure`) refuses a plan
/// that makes a site resident where it holds nothing the coordinator can
/// place: on the first unit, after the base round, and after that site's
/// skip.
#[test]
fn a_resident_site_without_held_rows_is_a_plan_error() {
    let mut dist = DistributionInfo::new(2);
    dist.set_table("t", vec![DomainMap::new(), DomainMap::new()]);
    let planner = Planner::new(dist);
    let unit = |plan: &mut DistributedPlan, stage: usize| match &mut plan.stages[stage].kind {
        StageKind::Unit(u) => u.site_filters = vec![SiteFilter::Resident, SiteFilter::All],
        StageKind::Base => panic!("stage {stage} is the base round"),
    };
    // The first unit (folded), and the first after the base round.
    let mut first = planner.optimize(&count_expr(), folding());
    unit(&mut first, 0);
    let mut after_base = planner.optimize(&count_expr(), OptFlags::none());
    unit(&mut after_base, 1);
    // Site 0 skipped the previous unit.
    let mut after_skip = planner.optimize(&two_count_expr(), OptFlags::none());
    if let StageKind::Unit(u) = &mut after_skip.stages[1].kind {
        u.site_filters[0] = SiteFilter::Skip;
    }
    unit(&mut after_skip, 2);
    for plan in [first, after_base, after_skip] {
        let err = plan.check_structure(2).unwrap_err().to_string();
        assert!(err.contains("site 0 is resident but holds no rows"), "{err}\n{}", plan.explain());
    }
}

fn relation(fields: &[(&str, DataType)], rows: Vec<skalla::relation::Row>) -> Relation {
    Relation::new(Schema::of(fields), rows).unwrap()
}

/// A `RESULT` for `stage` holding `rel`, carrying `survivors`.
fn answer(stage: u32, rel: &Relation, survivors: Option<Survivors>) -> Message {
    protocol::result_with(stage, rel, survivors.as_ref())
}

/// Only Prop 2's fold: one stage, a folded unit answered keyed.
fn folding() -> OptFlags {
    OptFlags {
        sync_reduction: true,
        ..OptFlags::none()
    }
}

/// `t` grouped on `g` with `aggs`, one operator per list.
fn grouped(aggs: Vec<Vec<AggSpec>>) -> GmdjExpr {
    let mut expr = GmdjExprBuilder::distinct_base("t", &["g"]);
    for a in aggs {
        expr = expr.gmdj(Gmdj::new("t").block(ThetaBuilder::group_by(&["g"]).build(), a));
    }
    expr.build()
}

fn count_expr() -> GmdjExpr {
    grouped(vec![vec![AggSpec::count("c")]])
}

/// Two operators, which a declared partition attribute chains (Thm 5).
fn two_count_expr() -> GmdjExpr {
    grouped(vec![vec![AggSpec::count("c")], vec![AggSpec::count("d")]])
}

/// The error of a query grouping `t` on `g` with `agg` against one site
/// that answers its merge unit against B with `answer`.
fn merge_unit_error(answer: Relation, agg: AggSpec) -> String {
    merge_unit_error_of(answer, vec![agg])
}

/// [`merge_unit_error`] of a block of `aggs`.
fn merge_unit_error_of(answer: Relation, aggs: Vec<AggSpec>) -> String {
    let frames = honest_base(move |stage| vec![protocol::result(stage, &answer)]);
    round_error(grouped(vec![aggs]), OptFlags::none(), DomainMap::new(), frames)
}

/// `t`'s groups: the base round's honest answer.
fn groups() -> Relation {
    catalog()["t"].project_distinct(&["g"]).unwrap()
}

/// `frames(stage)` for every stage task but a base round's, which gets
/// the honest answer.
fn honest_base(
    frames: impl Fn(u32) -> Vec<Message> + Send + 'static,
) -> impl Fn(&StageKind, u32) -> Vec<Message> + Send + 'static {
    move |kind, stage| match kind {
        StageKind::Base => vec![protocol::result(stage, &groups())],
        StageKind::Unit(_) => frames(stage),
    }
}

/// The error of `expr`, planned under `flags`, against one site.
fn round_error(
    expr: GmdjExpr,
    flags: OptFlags,
    domains: DomainMap,
    frames: impl Fn(&StageKind, u32) -> Vec<Message> + Send + 'static,
) -> String {
    let (out, plan) = run_against_site(expr, flags, domains, frames);
    match out {
        Ok(_) => panic!("the round was accepted:\n{plan}"),
        Err(e) => e,
    }
}

/// Run `expr`, planned under `flags`, against one site: a hand-written
/// TCP peer that advertises `domains` for `t`, answers the handshake, and
/// answers each stage task with `frames` of the stage. Returns the
/// answer, or its error, and the plan.
fn run_against_site(
    expr: GmdjExpr,
    flags: OptFlags,
    domains: DomainMap,
    frames: impl Fn(&StageKind, u32) -> Vec<Message> + Send + 'static,
) -> (Result<Relation, String>, String) {
    let listener = TcpSiteListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let table = catalog()["t"].clone();
    let site = std::thread::spawn(move || {
        let s = listener.accept(&TcpConfig::default()).unwrap();
        assert_eq!(s.recv().unwrap().tag, protocol::TAG_CATALOG_REQ);
        let entry = SiteCatalogEntry {
            table: "t".into(),
            schema: table.schema().clone(),
            domains,
        };
        s.send(protocol::catalog(&[entry])).unwrap();
        let mut plan = None;
        // Answer every stage task until the coordinator hangs up.
        while let Ok(msg) = s.recv() {
            if msg.tag == protocol::TAG_PLAN {
                plan = Some(decode_plan_with_options(&msg.payload).unwrap().0);
            }
            if msg.tag != protocol::TAG_RUN_STAGE {
                continue;
            }
            let (stage, _, ()) = protocol::decode_run_stage(&msg.payload).unwrap();
            let plan: &DistributedPlan = plan.as_ref().expect("the plan leads the stage tasks");
            for m in frames(&plan.stages[stage as usize].kind, stage) {
                if s.send(m.with_query_id(msg.query_id)).is_err() {
                    break;
                }
            }
        }
    });

    let engine = Skalla::builder()
        .remote(&[addr], TcpConfig::default())
        .timeout(Duration::from_secs(10))
        .build()
        .unwrap();
    let plan = Planner::new(engine.distribution()).optimize(&expr, flags);
    let out = engine.execute(&plan).map(|r| r.relation).map_err(|e| e.to_string());
    drop(engine);
    site.join().expect("the site saw the session end");
    (out, plan.explain())
}
