//! **Topology ablation** (paper Sect. 6 future work): star coordinator
//! versus a two-level coordinator tree.
//!
//! Runs the group reduction query over 8 sites and reports the traffic
//! crossing the *root* coordinator's links for the star topology and for
//! trees of 2 and 4 regions. The tree multiplies the root's fan-out down
//! by the region count and lets regions pre-merge sub-aggregates on the
//! way up — the root's links carry `O(regions · |B|)` instead of
//! `O(sites · |B|)` per round.

use skalla_bench::harness::*;
use skalla_bench::topology::{execute_tree, TreeTopology};
use skalla_bench::workloads::*;
use skalla_core::{OptFlags, Planner};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if has_flag(&args, "--quick") {
        BenchScale::quick()
    } else {
        BenchScale::default_scale()
    };
    println!("# Topology ablation: star vs two-level coordinator tree (8 sites)");
    println!(
        "# rows/site = {}, customers = {}",
        scale.rows_per_site, scale.customers
    );
    let parts = tpcr_partitions(scale);
    let cluster = cluster_of(&parts, N_SITES);
    let expr = group_reduction_query(Cardinality::High);
    let planner = Planner::new(cluster.distribution());

    println!("\n| plan | topology | root-link bytes | site-link bytes |");
    println!("|------|----------|----------------:|----------------:|");
    let mut star_root = 0u64;
    let mut tree2_root = 0u64;
    for (label, flags) in [
        ("unoptimized", OptFlags::none()),
        ("all reductions", OptFlags::all()),
    ] {
        let plan = planner.optimize(&expr, flags);
        let star = cluster.execute(&plan).expect("star runs");
        println!(
            "| {label} | star (8 direct) | {:>15} | {:>15} |",
            fmt_bytes(star.stats.total_bytes()),
            fmt_bytes(star.stats.total_bytes()),
        );
        if label == "unoptimized" {
            star_root = star.stats.total_bytes();
        }
        for regions in [2usize, 4] {
            let topo = TreeTopology::balanced(N_SITES, regions);
            let tree = execute_tree(&cluster, &plan, &topo).expect("tree runs");
            assert!(
                tree.relation.same_bag(&star.relation),
                "tree answer differs from star"
            );
            println!(
                "| {label} | tree ({regions} regions) | {:>15} | {:>15} |",
                fmt_bytes(tree.root_bytes()),
                fmt_bytes(tree.site_bytes()),
            );
            if label == "unoptimized" && regions == 2 {
                tree2_root = tree.root_bytes();
            }
        }
    }

    if has_flag(&args, "--check") {
        assert!(
            tree2_root < star_root / 2,
            "2-region tree root traffic {tree2_root} should be well below star {star_root}"
        );
        println!("\nshape checks passed ✓");
    }
}
