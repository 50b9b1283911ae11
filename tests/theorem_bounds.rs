//! Quantitative claims of the paper, asserted against measured traffic:
//!
//! * **Theorem 2** — total shipped rows ≤ Σᵢ 2·sᵢ·|Q| + s₀·|Q|,
//!   independent of the detail relation size.
//! * **Sect. 5.2 analysis** — with site-side group reduction, the traffic
//!   ratio is (2c + 2n + 1)/(4n + 1); the paper reports measurements
//!   within 5% of this formula.
//! * Group reduction and synchronization reduction never *increase*
//!   traffic.

use skalla::core::site::execute_stage;
use skalla::core::{plan::Planner, Cluster, DistributedPlan, OptFlags, SiteFilter, StageKind};
use skalla::gmdj::EvalOptions;
use skalla::net::MESSAGE_OVERHEAD_BYTES;
use skalla::relation::codec::body_size;
use std::collections::HashMap;
use skalla::datagen::partition::{observe_int_ranges, partition_by_int_ranges};
use skalla::datagen::tpcr::{generate_tpcr, TpcrConfig};
use skalla::gmdj::prelude::*;

/// The Fig. 2 "group reduction query": two correlated GMDJs grouped on a
/// partition attribute (`cust_key` stands in for the 1:1 `Customer.Name`).
fn group_reduction_query() -> GmdjExpr {
    GmdjExprBuilder::distinct_base("tpcr", &["cust_key"])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["cust_key"]).build(),
            vec![AggSpec::count("cnt"), AggSpec::avg("extended_price", "avgp")],
        ))
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["cust_key"])
                .and(Expr::dcol("extended_price").ge(Expr::bcol("avgp")))
                .build(),
            vec![AggSpec::count("cnt2"), AggSpec::avg("quantity", "avgq")],
        ))
        .build()
}

fn nation_cluster(rows: usize, customers: usize, sites: usize) -> Cluster {
    let tpcr = generate_tpcr(&TpcrConfig {
        rows,
        customers,
        nations: 8,
        suppliers: 20,
        parts: 64,
        skew: 0.0,
        seed: 77,
    });
    let mut parts = partition_by_int_ranges(&tpcr, "nation_key", sites);
    observe_int_ranges(&mut parts, &["cust_key", "cust_group"]);
    Cluster::from_partitions("tpcr", parts)
}

#[test]
fn theorem2_row_bound_holds() {
    let cluster = nation_cluster(4000, 512, 4);
    let expr = group_reduction_query();
    let planner = Planner::new(cluster.distribution());
    for flags in [
        OptFlags::none(),
        OptFlags::group_reduction_only(),
        OptFlags::all(),
    ] {
        let plan = planner.optimize(&expr, flags);
        let out = cluster.execute(&plan).unwrap();
        let q = out.relation.len() as u64;

        // sᵢ per GMDJ stage and s₀ from the plan.
        let n = cluster.n_sites() as u64;
        let mut bound = 0u64;
        for stage in &plan.stages {
            match &stage.kind {
                StageKind::Base => bound += n * q,
                StageKind::Unit(u) => {
                    let s_i = u
                        .site_filters
                        .iter()
                        .filter(|f| !matches!(f, skalla::core::SiteFilter::Skip))
                        .count() as u64;
                    bound += 2 * s_i * q;
                }
            }
        }
        let (down, up) = out.stats.total_rows();
        assert!(
            down + up <= bound,
            "{flags:?}: rows {} > bound {bound}",
            down + up
        );
    }
}

#[test]
fn traffic_independent_of_detail_size() {
    // Theorem 2's point: growing the fact relation (with the same groups)
    // leaves the traffic unchanged.
    // A customer can fail to be drawn at all at the smaller row count, so
    // compare traffic *per base group*: down traffic is exactly |B| per
    // site per round and (without reductions) up traffic is |B| per site
    // per round too, so rows/|B| is invariant in |R|.
    let expr = group_reduction_query();
    let small = nation_cluster(2000, 256, 4);
    let large = nation_cluster(8000, 256, 4);
    let plan_s = Planner::new(small.distribution()).optimize(&expr, OptFlags::none());
    let plan_l = Planner::new(large.distribution()).optimize(&expr, OptFlags::none());
    let out_s = small.execute(&plan_s).unwrap();
    let out_l = large.execute(&plan_l).unwrap();
    let (b_s, b_l) = (out_s.relation.len() as u64, out_l.relation.len() as u64);
    let (down_s, up_s) = out_s.stats.total_rows();
    let (down_l, up_l) = out_l.stats.total_rows();
    assert_eq!(down_s % b_s, 0, "down rows are a whole multiple of |B|");
    assert_eq!(down_l % b_l, 0, "down rows are a whole multiple of |B|");
    assert_eq!(up_s % b_s, 0, "up rows are a whole multiple of |B|");
    assert_eq!(up_l % b_l, 0, "up rows are a whole multiple of |B|");
    assert_eq!(
        down_s / b_s,
        down_l / b_l,
        "down rows per group must not depend on |R|"
    );
    assert_eq!(
        up_s / b_s,
        up_l / b_l,
        "up rows per group must not depend on |R|"
    );
}

#[test]
fn fig2_formula_within_five_percent() {
    // Paper Sect. 5.2: groups-transferred ratio with site-side group
    // reduction = (2c + 2n + 1)/(4n + 1), matching measurements within 5%.
    for n in [2usize, 4, 8] {
        let cluster = nation_cluster(6000, 512, n);
        let expr = group_reduction_query();
        let planner = Planner::new(cluster.distribution());

        let base = cluster
            .execute(&planner.optimize(&expr, OptFlags::none()))
            .unwrap();
        let site_gr = cluster
            .execute(&planner.optimize(
                &expr,
                OptFlags {
                    group_reduction_site: true,
                    ..OptFlags::none()
                },
            ))
            .unwrap();

        // c scales the per-round groups returned under reduction: c·n·g
        // groups per round against the base's n·g. Grouping on a partition
        // attribute means every group is live at exactly one site, so the
        // sites collectively return the whole base once per round: c = 1.
        let c = 1.0;
        let predicted = (2.0 * c + 2.0 * n as f64 + 1.0) / (4.0 * n as f64 + 1.0);

        let (d0, u0) = base.stats.total_rows();
        let (d1, u1) = site_gr.stats.total_rows();
        let measured = (d1 + u1) as f64 / (d0 + u0) as f64;
        let err = (measured - predicted).abs() / predicted;
        assert!(
            err < 0.05,
            "n={n}: measured {measured:.4} vs predicted {predicted:.4} ({:.1}% off)",
            err * 100.0
        );
    }
}

#[test]
fn reductions_never_increase_traffic() {
    let cluster = nation_cluster(4000, 512, 4);
    let expr = group_reduction_query();
    let planner = Planner::new(cluster.distribution());
    let bytes = |flags: OptFlags| {
        cluster
            .execute(&planner.optimize(&expr, flags))
            .unwrap()
            .stats
            .total_bytes()
    };
    let none = bytes(OptFlags::none());
    let site = bytes(OptFlags {
        group_reduction_site: true,
        ..OptFlags::none()
    });
    let both_gr = bytes(OptFlags::group_reduction_only());
    let sync = bytes(OptFlags::sync_reduction_only());
    let all = bytes(OptFlags::all());
    assert!(site <= none, "site GR increased traffic: {site} > {none}");
    assert!(both_gr <= site, "coord GR increased traffic: {both_gr} > {site}");
    assert!(sync <= none, "sync reduction increased traffic: {sync} > {none}");
    assert!(all <= both_gr.min(sync), "combined worse than parts");
    // And the reductions are substantial, not marginal.
    assert!(
        (all as f64) < 0.7 * none as f64,
        "combined reductions should cut traffic well below the baseline: {all} vs {none}"
    );
}

#[test]
fn skalla_ships_no_detail_data() {
    // The defining property: distributed traffic is bounded by groups, the
    // baseline ships the whole fact relation.
    let cluster = nation_cluster(8000, 128, 4);
    let expr = group_reduction_query();
    let plan = Planner::new(cluster.distribution()).optimize(&expr, OptFlags::none());
    let dist = cluster.execute(&plan).unwrap();
    let central = cluster.execute_centralized(&expr).unwrap();
    assert!(central.relation.same_bag(&dist.relation));
    let (_, up_central) = central.stats.total_rows();
    assert_eq!(up_central, 8000, "baseline ships every detail row");
    let (down, up) = dist.stats.total_rows();
    // 128 groups, 3 rounds, 4 sites: orders of magnitude below 8000 rows.
    assert!(down + up <= (3 * 2 * 4) * 128);
    assert!(dist.stats.total_bytes() < central.stats.total_bytes());
}

/// Thms 1–3 ship only aggregate structures: a merge unit against B is
/// answered by position, so its round's up-bytes are, exactly, each
/// answering site's frame header, accumulator columns and (under Prop 1)
/// survivor set — no key column. Measured on the Fig. 2 chain at 4 sites
/// with every reduction of Fig. 2 on (Prop 1 and Thm 4) and with none,
/// and on the chain grouped on `part_key` with every reduction (its
/// round 2 resident after the fold), against each site's answer
/// recomputed from the B its round was shipped.
#[test]
fn a_merge_unit_against_b_ships_no_key_column() {
    let (cluster, catalogs) = tpcr_cluster(TpcrConfig::new(8_000, 42).parts);
    for flags in [OptFlags::group_reduction_only(), OptFlags::none()] {
        let plan = Planner::new(cluster.distribution()).optimize(&group_reduction_query(), flags);
        assert_eq!(ships_no_key(&cluster, &catalogs, &plan), 2, "{}", plan.explain());
    }
    let plan = Planner::new(cluster.distribution()).optimize(&grouped_on("part_key"), OptFlags::all());
    assert_eq!(ships_no_key(&cluster, &catalogs, &plan), 1, "{}", plan.explain());
}

/// Thm 4's ¬ψᵢ, learned from the folded round 1: the Fig. 2 chain grouped
/// on `part_key`, which no site's φ restricts, under every reduction.
/// Round 2 ships each site one row per part it holds and none for a part
/// it lacks, and only `avg1`: its down-bytes are, exactly, the frame
/// header and the `avg1` column at the site's own groups.
#[test]
fn a_site_lacking_a_group_receives_no_row_for_it() {
    // 2,000 rows a site over 4,000 parts: each site lacks most of them.
    let (cluster, catalogs) = tpcr_cluster(4_000);
    let expr = grouped_on("part_key");
    let plan = Planner::new(cluster.distribution()).optimize(&expr, OptFlags::all());
    let StageKind::Unit(unit) = &plan.stages[1].kind else {
        panic!("{}", plan.explain())
    };
    assert_eq!(unit.site_filters, vec![SiteFilter::Resident; 4], "{}", plan.explain());
    let out = cluster.execute(&plan).unwrap();
    // No bit moves: the same plan shipping round 2 keyed to every site.
    let mut keyed = plan.clone();
    if let StageKind::Unit(u) = &mut keyed.stages[1].kind {
        u.site_filters = vec![SiteFilter::All; 4];
    }
    assert!(out.relation.same_bag(&cluster.execute(&keyed).unwrap().relation));

    // B as round 2 was shipped it: the folded round 1's answer.
    let mut before = plan.clone();
    before.stages.truncate(1);
    before.expr.ops.truncate(1);
    let b = cluster.execute(&before).unwrap().relation;
    let round = out.stats.net.iter().find(|r| r.label == plan.stages[1].label).unwrap();
    let mut total = 0;
    for (site, catalog) in catalogs.iter().enumerate() {
        let own = own_groups(&plan, catalog, &b);
        assert!(own.len() < b.len(), "site {site} holds every part");
        let avg1 = b.gather(&own).project(&["avg1"]).unwrap();
        let frame = 4 + 1 + avg1.schema().encoded_size() + body_size(avg1.len(), [avg1.column(0)]);
        // The round is the query's last: its `QUERY_DONE` rides it too.
        let want = (2 * MESSAGE_OVERHEAD_BYTES as usize + frame) as u64;
        assert_eq!(round.per_site[site].down_bytes, want, "site {site}");
        total += own.len() as u64;
    }
    assert_eq!(out.stats.stages[2].rows_down, total);
}

/// The Fig. 2 chain grouped on `column`.
fn grouped_on(column: &str) -> GmdjExpr {
    GmdjExprBuilder::distinct_base("tpcr", &[column])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&[column]).build(),
            vec![AggSpec::count("cnt1"), AggSpec::avg("extended_price", "avg1")],
        ))
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&[column])
                .and(Expr::dcol("extended_price").ge(Expr::bcol("avg1")))
                .build(),
            vec![AggSpec::count("cnt2"), AggSpec::avg("quantity", "avg2")],
        ))
        .build()
}

/// 4 nation-partitioned sites over 8,000 TPC-R rows of `parts` parts,
/// and each site's catalog.
fn tpcr_cluster(parts: usize) -> (Cluster, Vec<HashMap<String, Relation>>) {
    let tpcr = generate_tpcr(&TpcrConfig { parts, ..TpcrConfig::new(8_000, 42) });
    let mut parts = partition_by_int_ranges(&tpcr, "nation_key", 4);
    observe_int_ranges(&mut parts, &["cust_key", "cust_group"]);
    let catalogs = parts
        .iter()
        .map(|p| HashMap::from([("tpcr".to_string(), p.relation.clone())]))
        .collect();
    (Cluster::from_partitions("tpcr", parts), catalogs)
}

/// The rows of `b` that a site over `catalog` holds after a folded round:
/// its own groups, in the order it derives them.
fn own_groups(plan: &DistributedPlan, catalog: &HashMap<String, Relation>, b: &Relation) -> Vec<u32> {
    let key: Vec<&str> = plan.key.iter().map(String::as_str).collect();
    let b_keys = b.project(&key).unwrap();
    let row_of: HashMap<_, u32> = (0..b.len()).map(|r| (b_keys.rows()[r].clone(), r as u32)).collect();
    let local = plan.base_fragment(catalog).unwrap().project(&key).unwrap();
    local.rows().iter().map(|k| row_of[k]).collect()
}

/// Check each unit against B of `plan` on `cluster`, whose sites hold
/// `catalogs`: its round's up-bytes are the sites' accumulator frames. A
/// site's fragment is what its filter selects of B, or, resident, the
/// rows it held for the previous unit: that unit's fragment, or after a
/// fold its own groups. Returns how many such units there were.
fn ships_no_key(
    cluster: &Cluster,
    catalogs: &[HashMap<String, Relation>],
    plan: &DistributedPlan,
) -> usize {
    let out = cluster.execute(plan).unwrap();
    let mut positional = 0;
    // Per site, the B rows it holds from the previous unit; `None` after
    // a fold, whose own groups are found in the B that follows it.
    let mut held: Vec<Option<Vec<u32>>> = vec![None; catalogs.len()];
    for (k, stage) in plan.stages.iter().enumerate() {
        let StageKind::Unit(unit) = &stage.kind else { continue };
        if unit.fold_base {
            held.fill(None);
            continue;
        }
        // The B this round was shipped: the plan run up to it.
        let mut before = plan.clone();
        before.stages.truncate(k);
        before.expr.ops.truncate(unit.ops.start);
        let b = cluster.execute(&before).unwrap().relation;
        let rows: Vec<Option<Vec<u32>>> = unit
            .site_filters
            .iter()
            .enumerate()
            .map(|(site, filter)| match filter {
                SiteFilter::Skip => None,
                SiteFilter::All => Some((0..b.len() as u32).collect()),
                SiteFilter::Predicate(p) => Some(b.selection(&p.bind(b.schema(), None).unwrap()).unwrap()),
                SiteFilter::Resident => {
                    Some(held[site].clone().unwrap_or_else(|| own_groups(plan, &catalogs[site], &b)))
                }
            })
            .collect();
        held = rows.clone();
        if !unit.positional() {
            continue;
        }
        positional += 1;
        let ship: Vec<&str> = unit.ship_columns.iter().map(String::as_str).collect();
        let mut want = 0u64;
        for (site, at) in rows.iter().enumerate() {
            let Some(at) = at else { continue };
            let fragment = b.gather(at).project(&ship).unwrap();
            let rows = fragment.len();
            // The site's answer, keyed; what ships is its accumulators.
            let keyed = execute_stage(&catalogs[site], plan, k, Some(fragment), EvalOptions::default()).unwrap();
            let kl = plan.key.len();
            let acc: Vec<usize> = (kl..keyed.schema().len()).collect();
            let acc_schema = keyed.schema().project(&acc).unwrap();
            let acc_cols = acc.iter().map(|&c| keyed.column(c));
            // Under Prop 1, a survivor set: its row count, then a bitmap.
            let survivors = if unit.site_reduce { 4 + rows.div_ceil(8) } else { 0 };
            // The frame's accounting overhead, stage index and flag byte.
            let header = MESSAGE_OVERHEAD_BYTES as usize + 4 + 1;
            want += (header + survivors + acc_schema.encoded_size() + body_size(keyed.len(), acc_cols)) as u64;
        }
        let round = out.stats.net.iter().find(|r| r.label == stage.label).unwrap();
        let got = round.totals().up_bytes;
        assert_eq!(got, want, "round {k} ({}):\n{}", stage.label, plan.explain());
    }
    positional
}
