//! Row blocking (paper Sect. 3.2): sites ship sub-results in chunks and
//! the coordinator synchronizes them incrementally. Results must be
//! identical; message counts grow; byte totals grow only by framing.

use skalla::core::{plan::Planner, Cluster, OptFlags, Stage, StageKind};
use skalla::datagen::flow::{generate_flows, FlowConfig};
use skalla::datagen::partition::partition_by_int_ranges;
use skalla::gmdj::prelude::*;

fn expr() -> GmdjExpr {
    GmdjExprBuilder::distinct_base("flow", &["source_as"])
        .gmdj(Gmdj::new("flow").block(
            ThetaBuilder::group_by(&["source_as"]).build(),
            vec![AggSpec::count("flows"), AggSpec::avg("num_bytes", "avg_nb")],
        ))
        .gmdj(Gmdj::new("flow").block(
            ThetaBuilder::group_by(&["source_as"])
                .and(Expr::dcol("num_bytes").ge(Expr::bcol("avg_nb")))
                .build(),
            vec![AggSpec::count("big")],
        ))
        .build()
}

fn make_cluster(chunk: Option<usize>) -> Cluster {
    let flows = generate_flows(&FlowConfig {
        flows: 4000,
        routers: 4,
        source_as: 64,
        dest_as: 16,
        skew: 0.6,
        seed: 3,
    });
    let mut c = Cluster::from_partitions("flow", partition_by_int_ranges(&flows, "source_as", 4));
    c.configure(&skalla::core::EngineConfig {
        chunk_rows: chunk,
        ..skalla::core::EngineConfig::default()
    });
    c
}

/// Site group reduction alone (Prop 1): the sites answer each unit
/// against B by position, with a survivor set, and nothing folds or
/// chains.
fn site_reduction() -> OptFlags {
    OptFlags {
        group_reduction_site: true,
        ..OptFlags::none()
    }
}

#[test]
fn chunked_execution_is_equivalent() {
    let e = expr();
    for flags in [OptFlags::none(), site_reduction(), OptFlags::group_reduction_only(), OptFlags::all()] {
        let whole = {
            let c = make_cluster(None);
            let plan = Planner::new(c.distribution()).optimize(&e, flags);
            c.execute(&plan).unwrap()
        };
        for chunk in [1usize, 3, 7, 100, 10_000] {
            let c = make_cluster(Some(chunk));
            let plan = Planner::new(c.distribution()).optimize(&e, flags);
            let out = c.execute(&plan).unwrap();
            assert!(
                out.relation.same_bag(&whole.relation),
                "chunk {chunk} {flags:?} changed the result"
            );
            assert_eq!(out.stats.total_rows(), whole.stats.total_rows(), "chunk {chunk} {flags:?}");
        }
    }
}

/// A reduced answer by position — accumulator rows for the survivors
/// only, the survivor set in the first chunk — cut into chunks of 1 row,
/// of 3 and left whole gives the same bits, round for round the same
/// rows, and grows only by frames.
#[test]
fn chunked_positional_answers_under_site_reduction_are_bit_identical() {
    let e = expr();
    let run = |chunk, flags| {
        let c = make_cluster(chunk);
        let plan = Planner::new(c.distribution()).optimize(&e, flags);
        let reduced = |s: &&Stage| matches!(&s.kind, StageKind::Unit(u) if u.positional() && u.site_reduce);
        let units = plan.stages.iter().filter(reduced);
        assert_eq!(units.count(), if flags == site_reduction() { 2 } else { 0 }, "{}", plan.explain());
        c.execute(&plan).unwrap()
    };
    let whole = run(None, site_reduction());
    // Prop 1 drops rows: fewer come up than without it.
    let (up, unreduced) = (whole.stats.total_rows().1, run(None, OptFlags::none()).stats.total_rows().1);
    assert!(up < unreduced, "{up} rows up, {unreduced} unreduced");
    for chunk in [1usize, 3] {
        let out = run(Some(chunk), site_reduction());
        assert_eq!(out.relation, whole.relation, "chunk {chunk}");
        assert_eq!(out.stats.total_rows(), whole.stats.total_rows(), "chunk {chunk}");
        assert!(out.stats.total_messages() > whole.stats.total_messages(), "chunk {chunk}");
    }
}

#[test]
fn chunking_increases_messages_not_rows() {
    let e = expr();
    let whole = {
        let c = make_cluster(None);
        let plan = Planner::new(c.distribution()).optimize(&e, OptFlags::none());
        c.execute(&plan).unwrap()
    };
    let chunked = {
        let c = make_cluster(Some(5));
        let plan = Planner::new(c.distribution()).optimize(&e, OptFlags::none());
        c.execute(&plan).unwrap()
    };
    assert!(chunked.stats.total_messages() > whole.stats.total_messages());
    assert_eq!(chunked.stats.total_rows(), whole.stats.total_rows());
    // Only framing + repeated schema headers may grow the byte count.
    assert!(chunked.stats.total_bytes() > whole.stats.total_bytes());
    assert!(
        (chunked.stats.total_bytes() as f64) < 3.0 * whole.stats.total_bytes() as f64,
        "framing overhead exploded: {} vs {}",
        chunked.stats.total_bytes(),
        whole.stats.total_bytes()
    );
}

#[test]
fn chunk_size_zero_means_off() {
    let c = make_cluster(Some(0));
    let plan = Planner::new(c.distribution()).optimize(&expr(), OptFlags::none());
    let out = c.execute(&plan).unwrap();
    // One result message per site per round.
    let (_, up_msgs): (u64, u64) = out
        .stats
        .net
        .iter()
        .map(|r| {
            let t = r.totals();
            (t.down_msgs, t.up_msgs)
        })
        .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1));
    assert_eq!(up_msgs, 3 * 4, "3 rounds × 4 sites, unchunked");
}
