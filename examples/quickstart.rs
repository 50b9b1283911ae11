//! Quickstart: distributed evaluation of the paper's Example 1.
//!
//! Generates IP flow data, partitions it across four warehouse sites by
//! source autonomous system, and asks: *per (source AS, destination AS),
//! how many flows are there, and how many carry at least the group-average
//! number of bytes?* — a two-round correlated aggregate that conventional
//! GROUP BY cannot express in one pass.
//!
//! Run with: `cargo run --release --example quickstart`

use skalla::core::{plan::Planner, Cluster, OptFlags, Skalla};
use skalla::datagen::flow::{generate_flows, FlowConfig};
use skalla::datagen::partition::partition_by_int_ranges;
use skalla::gmdj::prelude::*;

fn main() {
    // 1. Data: 20,000 flows across 4 router sites, partitioned on source_as.
    let flows = generate_flows(&FlowConfig {
        flows: 20_000,
        routers: 4,
        source_as: 48,
        dest_as: 24,
        skew: 1.0,
        seed: 42,
    });
    let parts = partition_by_int_ranges(&flows, "source_as", 4);
    println!(
        "generated {} flows across {} sites ({} rows each)",
        flows.len(),
        parts.len(),
        parts
            .iter()
            .map(|p| p.relation.len().to_string())
            .collect::<Vec<_>>()
            .join("/")
    );
    let engine = Skalla::builder()
        .partitions("flow", parts.clone())
        .build()
        .expect("engine builds");

    // 2. Query (paper Example 1).
    let expr = GmdjExprBuilder::distinct_base("flow", &["source_as", "dest_as"])
        .gmdj(Gmdj::new("flow").block(
            ThetaBuilder::group_by(&["source_as", "dest_as"]).build(),
            vec![AggSpec::count("cnt1"), AggSpec::sum("num_bytes", "sum1")],
        ))
        .gmdj(Gmdj::new("flow").block(
            ThetaBuilder::group_by(&["source_as", "dest_as"])
                .and_detail_ge_base_expr("num_bytes", "sum1 / cnt1")
                .expect("condition parses")
                .build(),
            vec![AggSpec::count("cnt2")],
        ))
        .build();

    // 3. Plan with all optimizations and execute.
    let planner = Planner::new(engine.distribution());
    let plan = planner.optimize(&expr, OptFlags::all());
    println!("\n=== plan ===\n{}", plan.explain());

    let result = engine.execute(&plan).expect("query executes");
    let top = result
        .relation
        .sorted_by(&["source_as", "dest_as"])
        .expect("sortable");

    println!("=== first 10 of {} groups ===", top.len());
    println!("{:>9} {:>8} {:>6} {:>12} {:>6}", "source_as", "dest_as", "cnt1", "sum1", "cnt2");
    for row in top.rows().iter().take(10) {
        println!(
            "{:>9} {:>8} {:>6} {:>12} {:>6}",
            row.get(0),
            row.get(1),
            row.get(2),
            row.get(3),
            row.get(4)
        );
    }

    // 4. What moved over the network?
    let stats = &result.stats;
    let (rows_down, rows_up) = stats.total_rows();
    println!("\n=== execution ===");
    println!("rounds:        {}", stats.n_rounds());
    println!("bytes moved:   {} down / {} up", stats.bytes_down(), stats.bytes_up());
    println!("rows moved:    {rows_down} down / {rows_up} up (detail rows shipped: 0)");

    // 5. Contrast with the ship-everything baseline the paper argues
    //    against. The centralized evaluator is a measurement harness, not
    //    part of the engine API, so it stays on the bare `Cluster`.
    let baseline_cluster = Cluster::from_partitions("flow", parts);
    let baseline = baseline_cluster
        .execute_centralized(&expr)
        .expect("baseline runs");
    assert!(baseline.relation.same_bag(&result.relation));
    println!(
        "\nship-everything baseline moves {} bytes ({}x more)",
        baseline.stats.total_bytes(),
        baseline.stats.total_bytes() / stats.total_bytes().max(1)
    );
}
