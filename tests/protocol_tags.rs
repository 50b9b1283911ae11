//! Exhaustive protocol-tag coverage: one encode/decode round trip per
//! frame tag, driven by `Tag::ALL` through a `match` with no wildcard —
//! a tag added to `skalla_core::protocol` does not compile here until it
//! has its round trip.

use skalla::core::distribution::DistributionInfo;
use skalla::core::plan::{OptFlags, Planner};
use skalla::core::plan_codec::{decode_plan_with_options, encode_plan_with_options};
use skalla::core::protocol::{self, SiteCatalogEntry, SiteTelemetry, Tag};
use skalla::gmdj::prelude::*;
use skalla::gmdj::EvalOptions;
use skalla::net::Message;
use skalla::relation::{row, DataType, Domain, DomainMap, Relation, Schema};

fn rel() -> Relation {
    Relation::new(
        Schema::of(&[("g", DataType::Int), ("v", DataType::Double)]),
        vec![row![1i64, 1.5f64], row![2i64, -2.5f64]],
    )
    .unwrap()
}

#[test]
fn tag_values_are_unique_and_dense() {
    // Uniqueness is rustc's (two variants with one discriminant do not
    // compile). Tags 1..=9 with no gaps; query id 0 marks the control
    // stream, so there is no tag 0, and the skew balancer's 10..=13 are
    // retired (protocol v7).
    let values: Vec<u8> = Tag::ALL.iter().map(|t| *t as u8).collect();
    assert_eq!(values, (1..=9).collect::<Vec<u8>>());
    // The registry is closed: exactly 1..=9 parse, each to itself.
    for byte in 0..=u8::MAX {
        let parsed = Tag::try_from(byte).ok().map(|t| t as u8);
        assert_eq!(parsed, (1..=9).contains(&byte).then_some(byte));
    }
}

#[test]
fn every_tag_round_trips() {
    for &tag in Tag::ALL {
        let frame: Message = match tag {
            // With a fragment.
            Tag::RunStage => {
                let m = protocol::run_stage(7, Some(&rel()));
                let (stage, frag, ()) = protocol::decode_run_stage(&m.payload).unwrap();
                assert_eq!((stage, frag.unwrap()), (7, rel()));
                m
            }
            // A site's whole answer.
            Tag::Result => {
                let m = protocol::result(3, &rel());
                let (stage, _, back) = protocol::decode_result(&m.payload).unwrap();
                assert_eq!((stage, back), (3, rel()));
                m
            }
            // A free-form message.
            Tag::Error => {
                let m = protocol::error("boom");
                assert_eq!(protocol::decode_error(&m.payload), "boom");
                m
            }
            // SHUTDOWN and QUERY_DONE are empty control frames.
            Tag::Shutdown => {
                let m = protocol::shutdown();
                assert!(m.payload.is_empty());
                m
            }
            Tag::QueryDone => {
                let m = protocol::query_done();
                assert!(m.payload.is_empty());
                m
            }
            // Options + the distributed plan itself.
            Tag::Plan => {
                let mut dist = DistributionInfo::new(2);
                dist.set_table(
                    "t",
                    (0..2)
                        .map(|i| DomainMap::new().with("g", Domain::IntRange(10 * i, 10 * i + 9)))
                        .collect(),
                );
                let expr = GmdjExprBuilder::distinct_base("t", &["g"]).gmdj(Gmdj::new("t").block(
                    ThetaBuilder::group_by(&["g"]).build(),
                    vec![AggSpec::count("c")],
                ));
                let plan = Planner::new(dist).optimize(&expr.build(), OptFlags::all());
                let opts = EvalOptions {
                    parallelism: 3,
                    ..EvalOptions::default()
                };
                let bytes = encode_plan_with_options(&plan, &opts);
                let (plan_back, opts_back) = decode_plan_with_options(&bytes).unwrap();
                assert_eq!(plan_back, plan);
                assert_eq!(opts_back.parallelism, 3);
                Message::new(protocol::TAG_PLAN, bytes)
            }
            // Carries the protocol version.
            Tag::CatalogReq => {
                let m = protocol::catalog_request();
                assert_eq!(
                    protocol::decode_catalog_request(&m.payload).unwrap(),
                    protocol::PROTOCOL_VERSION
                );
                m
            }
            // One table advertisement.
            Tag::Catalog => {
                let entry = SiteCatalogEntry {
                    table: "t".into(),
                    schema: rel().schema().clone(),
                    domains: DomainMap::new().with("g", Domain::IntRange(0, 9)),
                };
                let m = protocol::catalog(std::slice::from_ref(&entry));
                assert_eq!(protocol::decode_catalog(&m.payload).unwrap(), vec![entry]);
                m
            }
            // One stage's busy seconds round-trip through the JSON payload.
            Tag::Telemetry => {
                let t = SiteTelemetry {
                    stage: 1,
                    busy_s: 0.5,
                    obs: None,
                };
                let m = protocol::telemetry(&t);
                assert_eq!(protocol::decode_telemetry(&m.payload).unwrap(), t);
                m
            }
        };
        assert_eq!(frame.tag, tag as u8, "{} frame carries its own tag", tag.name());
    }
}
