//! Distributed data cube — Gray et al.'s CUBE BY (the paper cites data
//! cubes as one of the OLAP query classes GMDJ expressions capture),
//! evaluated over the distributed warehouse without moving detail data.
//!
//! Cubes TPCR over (nation_key, return_flag, order_priority) with COUNT
//! and SUM(extended_price), prints a roll-up slice, and shows the
//! per-level provenance: only the finest grouping set runs distributed;
//! every coarser level is rolled up locally from its sub-aggregates.
//!
//! Run with: `cargo run --release --example data_cube`

use skalla::core::{OptFlags, Skalla};
use skalla::datagen::partition::partition_by_int_ranges;
use skalla::datagen::tpcr::{generate_tpcr, TpcrConfig};
use skalla::gmdj::AggSpec;
use skalla::query::{cube, render_cube_levels};
use skalla::relation::Value;

fn main() {
    let tpcr = generate_tpcr(&TpcrConfig {
        rows: 60_000,
        customers: 2_000,
        nations: 8,
        suppliers: 100,
        parts: 500,
        skew: 0.2,
        seed: 99,
    });
    let engine = Skalla::builder()
        .partitions("tpcr", partition_by_int_ranges(&tpcr, "nation_key", 8))
        .build()
        .expect("engine builds");

    let dims = ["nation_key", "return_flag", "order_priority"];
    let aggs = [
        AggSpec::count("lines"),
        AggSpec::sum("extended_price", "revenue"),
    ];
    println!("computing CUBE BY ({}) over {} rows on 8 sites…", dims.join(", "), tpcr.len());
    let result = cube(&engine, "tpcr", &dims, &aggs, OptFlags::all()).expect("cube runs");

    println!(
        "cube has {} rows across {} grouping sets ({} total rounds, {} bytes moved)\n",
        result.relation.len(),
        result.levels.len(),
        result.total_rounds(),
        result.total_bytes()
    );

    println!("=== per grouping set ===");
    print!("{}", render_cube_levels(&result));

    // A roll-up slice: revenue by nation with ALL (grand-total) rows.
    println!("\n=== revenue by nation (ALL = rolled up) ===");
    let cube = &result.relation;
    let rolled_up = |c: usize, i: usize| !cube.column(c).is_valid(i);
    let rel = cube
        .filter(|i| rolled_up(1, i) && rolled_up(2, i))
        .sorted_by(&["nation_key"])
        .expect("sortable");
    println!("{:>8} {:>9} {:>16}", "nation", "lines", "revenue");
    for row in rel.rows() {
        let nation = match row.get(0) {
            Value::Null => "ALL".to_string(),
            v => v.to_string(),
        };
        println!(
            "{:>8} {:>9} {:>16.2}",
            nation,
            row.get(3),
            row.get(4).as_f64().unwrap_or(f64::NAN)
        );
    }

    // Cross-check: the grand total equals the sum of the nation level.
    let nation_level: f64 = rel
        .rows()
        .iter()
        .filter(|r| !r.get(0).is_null())
        .map(|r| r.get(4).as_f64().unwrap_or(0.0))
        .sum();
    let grand = rel
        .rows()
        .iter()
        .find(|r| r.get(0).is_null())
        .expect("grand total present")
        .get(4)
        .as_f64()
        .expect("numeric");
    assert!((nation_level - grand).abs() < 1e-6 * grand.abs());
    println!("\nroll-up consistency verified ✓");
}
