//! TPC-R-style analytics over an 8-site warehouse — the paper's
//! experimental setting (Sect. 5.1): a denormalized TPCR relation
//! partitioned on `nation_key` across eight sites, queried with COUNT and
//! AVG aggregates at high cardinality (`cust_name`) and low cardinality
//! (`supp_key`) groupings.
//!
//! Run with: `cargo run --release --example tpcr_analytics`

use skalla::core::{plan::Planner, OptFlags, Skalla};
use skalla::datagen::partition::partition_by_int_ranges;
use skalla::datagen::tpcr::{generate_tpcr, TpcrConfig};
use skalla::gmdj::prelude::*;
use skalla::net::Link;

/// Per-customer revenue and above-average order lines (high cardinality:
/// one group per customer name).
fn high_cardinality_query() -> GmdjExpr {
    GmdjExprBuilder::distinct_base("tpcr", &["cust_name", "nation_key"])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["cust_name"]).build(),
            vec![
                AggSpec::count("lines"),
                AggSpec::avg("extended_price", "avg_price"),
            ],
        ))
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["cust_name"])
                .and(Expr::dcol("extended_price").ge(Expr::bcol("avg_price")))
                .build(),
            vec![AggSpec::count("pricey_lines")],
        ))
        .build()
}

/// Per-supplier volumes (low cardinality: a few thousand groups).
fn low_cardinality_query() -> GmdjExpr {
    GmdjExprBuilder::distinct_base("tpcr", &["supp_key"])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&["supp_key"]).build(),
            vec![
                AggSpec::count("lines"),
                AggSpec::avg("quantity", "avg_qty"),
                AggSpec::max("extended_price", "max_price"),
            ],
        ))
        .build()
}

fn main() {
    let cfg = TpcrConfig {
        rows: 120_000,
        customers: 4_000,
        nations: 25,
        suppliers: 400,
        parts: 2_000,
        skew: 0.3,
        seed: 2002,
    };
    println!(
        "generating TPCR: {} rows, {} customers, {} nations, {} suppliers…",
        cfg.rows, cfg.customers, cfg.nations, cfg.suppliers
    );
    let tpcr = generate_tpcr(&cfg);
    // The paper's setup: partition on NationKey across eight sites, on
    // a 100 Mbit/s LAN (emulated, so wall times are that network's).
    let engine = Skalla::builder()
        .partitions("tpcr", partition_by_int_ranges(&tpcr, "nation_key", 8))
        .link(Link::lan())
        .build()
        .expect("engine builds");
    let planner = Planner::new(engine.distribution());

    for (name, expr) in [
        ("high-cardinality (per customer)", high_cardinality_query()),
        ("low-cardinality (per supplier)", low_cardinality_query()),
    ] {
        println!("\n=== {name} ===");
        let mut last_len = 0;
        for (label, flags) in [
            ("no optimizations", OptFlags::none()),
            ("all optimizations", OptFlags::all()),
        ] {
            let plan = planner.optimize(&expr, flags);
            let out = engine.execute(&plan).expect("query runs");
            let (down, up) = out.stats.total_rows();
            println!(
                "{label:>18}: {} rounds, {:>9} bytes, rows {down}↓/{up}↑, wall {:.3}s",
                out.stats.n_rounds(),
                out.stats.total_bytes(),
                out.stats.wall_s
            );
            last_len = out.relation.len();
        }
        println!("{last_len} groups in the result");
    }

    // Show a slice of the high-cardinality answer.
    let plan = planner.optimize(&high_cardinality_query(), OptFlags::all());
    let out = engine.execute(&plan).expect("query runs");
    let rel = out.relation.sorted_by(&["cust_name"]).unwrap();
    println!("\n=== sample rows (per-customer) ===");
    println!(
        "{:<22} {:>6} {:>6} {:>12} {:>12}",
        "customer", "nation", "lines", "avg_price", "pricey_lines"
    );
    for row in rel.rows().iter().take(8) {
        println!(
            "{:<22} {:>6} {:>6} {:>12.2} {:>12}",
            row.get(0),
            row.get(1),
            row.get(2),
            row.get(3).as_f64().unwrap_or(f64::NAN),
            row.get(4)
        );
    }
}
