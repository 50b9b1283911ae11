//! A site answers every stage it is sent in exactly one `RESULT` frame,
//! whatever the plan; and Prop 1's answers by position, holding only the
//! fragment rows a site matched, give the unreduced answer with fewer
//! rows up.

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

fn cluster() -> Cluster {
    let flows = generate_flows(&FlowConfig {
        flows: 4000,
        routers: 4,
        source_as: 64,
        dest_as: 16,
        skew: 0.6,
        seed: 3,
    });
    Cluster::from_partitions("flow", partition_by_int_ranges(&flows, "source_as", 4))
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

/// Under every flag set, each stage round carries one accounted up
/// frame from each site the stage was sent to, and none from a site it
/// skipped (telemetry is not accounted).
#[test]
fn every_site_answers_every_stage_in_one_result_frame() {
    let c = cluster();
    for flags in [OptFlags::none(), site_reduction(), OptFlags::group_reduction_only(), OptFlags::all()] {
        let plan = Planner::new(c.distribution()).optimize(&expr(), flags);
        let out = c.execute(&plan).unwrap();
        let net = &out.stats.net;
        assert_eq!(net.len(), 1 + plan.stages.len(), "{flags:?}: the plan round, then one per stage");
        assert_eq!(net[0].totals().up_msgs, 0, "{flags:?}: nothing answers the plan");
        for (stage, round) in plan.stages.iter().zip(&net[1..]) {
            for (site, link) in round.per_site.iter().enumerate() {
                let sent = match &stage.kind {
                    StageKind::Base => true,
                    StageKind::Unit(u) => u.site_filters[site] != skalla::core::SiteFilter::Skip,
                };
                assert_eq!(link.up_msgs, u64::from(sent), "{flags:?}, {}, site {site}", stage.label);
            }
        }
    }
}

/// Prop 1's answers by position — accumulator rows for a site's matched
/// fragment rows only, under a survivor set — give the same answer as
/// the unreduced plan, with fewer rows up.
#[test]
fn positional_answers_under_site_reduction_equal_the_unreduced_ones() {
    let c = cluster();
    let run = |flags| {
        let plan = Planner::new(c.distribution()).optimize(&expr(), flags);
        let reduced = |s: &&Stage| matches!(&s.kind, StageKind::Unit(u) if u.positional() && u.site_reduce);
        let units = plan.stages.iter().filter(reduced);
        assert_eq!(units.count(), if flags == site_reduction() { 2 } else { 0 }, "{}", plan.explain());
        c.execute(&plan).unwrap()
    };
    let (reduced, unreduced) = (run(site_reduction()), run(OptFlags::none()));
    assert_eq!(reduced.relation, unreduced.relation);
    let (up, all) = (reduced.stats.total_rows().1, unreduced.stats.total_rows().1);
    assert!(up < all, "{up} rows up, {all} unreduced");
}
