//! EXPLAIN: how distribution knowledge changes the plan.
//!
//! Runs the Egil planner on the same correlated-aggregate query under
//! three physical designs —
//!
//! 1. partitioned on the grouping attribute, with declared ranges
//!    (→ full synchronization reduction: one round, Example 5);
//! 2. hash-partitioned with no declared knowledge
//!    (→ Prop 2 fold + distribution-independent group reduction only);
//! 3. scattered round-robin, grouped on a non-partition attribute
//!    (→ the general multi-round plan)
//!
//! — and prints each resulting plan.
//!
//! Run with: `cargo run --release --example explain_plans`

use skalla::core::{plan::Planner, OptFlags, Skalla};
use skalla::datagen::flow::{generate_flows, FlowConfig};
use skalla::datagen::partition::{
    partition_by_hash, partition_by_int_ranges, partition_round_robin,
};
use skalla::gmdj::prelude::*;

fn query() -> GmdjExpr {
    GmdjExprBuilder::distinct_base("flow", &["source_as"])
        .gmdj(Gmdj::new("flow").block(
            ThetaBuilder::group_by(&["source_as"]).build(),
            vec![AggSpec::count("flows"), AggSpec::avg("num_bytes", "avg_nb")],
        ))
        .gmdj(Gmdj::new("flow").block(
            ThetaBuilder::group_by(&["source_as"])
                .and_detail_ge_base_expr("num_bytes", "avg_nb")
                .expect("condition parses")
                .build(),
            vec![AggSpec::count("big")],
        ))
        .build()
}

fn main() {
    let flows = generate_flows(&FlowConfig::small(3));
    let engine = |parts| {
        Skalla::builder()
            .partitions("flow", parts)
            .build()
            .expect("engine builds")
    };
    let scenarios: Vec<(&str, Skalla)> = vec![
        (
            "range-partitioned on source_as (declared φ ranges)",
            engine(partition_by_int_ranges(&flows, "source_as", 4)),
        ),
        (
            "hash-partitioned on source_as (no declared knowledge)",
            engine(partition_by_hash(&flows, "source_as", 4)),
        ),
        (
            "round-robin scattered (no partition attribute exists)",
            engine(partition_round_robin(&flows, 4)),
        ),
    ];

    let expr = query();
    for (name, engine) in &scenarios {
        println!("==================================================================");
        println!("physical design: {name}");
        println!("==================================================================");
        let planner = Planner::new(engine.distribution());
        for (label, flags) in [
            ("OptFlags::none()", OptFlags::none()),
            ("OptFlags::all()", OptFlags::all()),
        ] {
            let plan = planner.optimize(&expr, flags);
            println!("--- {label} ---\n{}", plan.explain());
            let out = engine.execute(&plan).expect("plan executes");
            println!(
                "executed: {} rounds, {} bytes, {} result groups\n",
                out.stats.n_rounds(),
                out.stats.total_bytes(),
                out.relation.len()
            );
        }
    }

    // All plans computed the same answer regardless of physical design.
    let answers: Vec<_> = scenarios
        .iter()
        .map(|(_, c)| {
            let plan = Planner::new(c.distribution()).optimize(&expr, OptFlags::all());
            c.execute(&plan).expect("runs").relation
        })
        .collect();
    assert!(answers.windows(2).all(|w| w[0].same_bag(&w[1])));
    println!("all three physical designs returned identical answers ✓");
}
