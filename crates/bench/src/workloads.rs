//! The paper's experimental workloads (Sect. 5.1) at configurable scale.
//!
//! Setup mirrors the paper: a denormalized TPCR relation partitioned on
//! `nation_key` across eight sites — which also partitions `cust_key` /
//! `cust_name` (high-cardinality grouping, 100,000 values in the paper)
//! and `cust_group` (the 2,000–4,000-value low-cardinality attribute).
//! Every test query computes a COUNT and an AVG per GMDJ operator, as in
//! the paper.

use skalla_core::{Cluster, Skalla};
use skalla_datagen::partition::{observe_int_ranges, Partition};
use skalla_datagen::tpcr::{generate_tpcr, TpcrConfig};
use skalla_gmdj::prelude::*;
use skalla_net::Link;

/// Number of warehouse sites in the speed-up experiments.
pub const N_SITES: usize = 8;

/// Grouping cardinality of a workload query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cardinality {
    /// Group per customer (`cust_key`, stands in 1:1 for `Customer.Name`).
    High,
    /// Group per customer block (`cust_group`).
    Low,
}

impl Cardinality {
    /// The grouping column.
    pub fn column(self) -> &'static str {
        match self {
            Cardinality::High => "cust_key",
            Cardinality::Low => "cust_group",
        }
    }
}

/// Scale knobs for the benchmark datasets.
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Fact rows per site.
    pub rows_per_site: usize,
    /// Distinct customers overall (must stay divisible by 8 × 32 so both
    /// grouping attributes stay partition-aligned).
    pub customers: usize,
    /// RNG seed.
    pub seed: u64,
}

impl BenchScale {
    /// The default laptop-scale setup: 20k rows/site, 6,400 customers
    /// (→ 200 `cust_group` values).
    pub fn default_scale() -> BenchScale {
        BenchScale {
            rows_per_site: 20_000,
            customers: 6_400,
            seed: 2002,
        }
    }

    /// A fast setup for CI runs. Its traffic is small; its rows are
    /// enough that site compute grows with them, which Fig. 5 checks,
    /// rather than with per-query fixed costs.
    pub fn quick() -> BenchScale {
        BenchScale {
            rows_per_site: 16_000,
            customers: 1_280,
            seed: 2002,
        }
    }

    /// Multiply rows (and optionally customers) by `factor` — the Fig. 5
    /// scale-up axis.
    pub fn scaled(self, factor: usize, grow_groups: bool) -> BenchScale {
        BenchScale {
            rows_per_site: self.rows_per_site * factor,
            customers: if grow_groups {
                self.customers * factor
            } else {
                self.customers
            },
            seed: self.seed,
        }
    }
}

/// Generate the 8-way nation-partitioned TPCR fragments with observed
/// `cust_key`/`cust_group` ranges declared (the coordinator's φ knowledge).
pub fn tpcr_partitions(scale: BenchScale) -> Vec<Partition> {
    assert_eq!(
        scale.customers % (N_SITES * 32),
        0,
        "customers must keep cust_group partition-aligned"
    );
    let cfg = TpcrConfig {
        rows: scale.rows_per_site * N_SITES,
        customers: scale.customers,
        nations: N_SITES,
        suppliers: 400,
        parts: 2_000,
        skew: 0.0,
        seed: scale.seed,
    };
    let tpcr = generate_tpcr(&cfg);
    let mut parts =
        skalla_datagen::partition::partition_by_int_ranges(&tpcr, "nation_key", N_SITES);
    observe_int_ranges(&mut parts, &["cust_key", "cust_group"]);
    parts
}

/// A cluster over the first `k` of the 8 fragments (the paper's "vary the
/// number of sites participating" axis — data per site is constant, total
/// data and groups grow with `k`).
pub fn cluster_of(parts: &[Partition], k: usize) -> Cluster {
    Cluster::from_partitions("tpcr", parts[..k].to_vec())
}

/// An engine over the first `k` of the 8 fragments on the paper's LAN
/// ([`Link::lan`], emulated) with its cache off, so that every run pays
/// the network: what `figs` measures.
pub fn lan_engine(parts: &[Partition], k: usize) -> Skalla {
    Skalla::builder()
        .partitions("tpcr", parts[..k].to_vec())
        .link(Link::lan())
        .cache_bytes(0)
        .build()
        .expect("an in-process engine over generated fragments builds")
}

/// The **group reduction query** (Fig. 2): two correlated GMDJs grouped on
/// the partition attribute; COUNT + AVG on each operator. The correlation
/// (θ₂ references `avg1`) prevents coalescing, isolating group reduction.
/// It is also Fig. 4's synchronization reduction query (the groupings
/// entail equality on the partition attribute, so sync reduction evaluates
/// the whole chain locally in one round: Prop 2 + Cor 1) and Fig. 5's
/// combined reductions query.
pub fn group_reduction_query(card: Cardinality) -> GmdjExpr {
    let g = card.column();
    GmdjExprBuilder::distinct_base("tpcr", &[g])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&[g]).build(),
            vec![
                AggSpec::count("cnt1"),
                AggSpec::avg("extended_price", "avg1"),
            ],
        ))
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&[g])
                .and(Expr::dcol("extended_price").ge(Expr::bcol("avg1")))
                .build(),
            vec![AggSpec::count("cnt2"), AggSpec::avg("quantity", "avg2")],
        ))
        .build()
}

/// The **coalescing query** (Fig. 3): two *independent* GMDJs over the
/// same grouping (θ₂ uses only a constant filter), so coalescing merges
/// them into one operator.
pub fn coalescing_query(card: Cardinality) -> GmdjExpr {
    let g = card.column();
    GmdjExprBuilder::distinct_base("tpcr", &[g])
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&[g]).build(),
            vec![
                AggSpec::count("cnt1"),
                AggSpec::avg("extended_price", "avg1"),
            ],
        ))
        .gmdj(Gmdj::new("tpcr").block(
            ThetaBuilder::group_by(&[g])
                .and(Expr::dcol("quantity").ge(Expr::lit(25i64)))
                .build(),
            vec![AggSpec::count("cnt2"), AggSpec::avg("quantity", "avg2")],
        ))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_core::{OptFlags, Planner};
    use skalla_gmdj::eval::EvalOptions;

    fn tiny() -> Vec<Partition> {
        tpcr_partitions(BenchScale {
            rows_per_site: 300,
            customers: 256,
            seed: 5,
        })
    }

    #[test]
    fn partitions_declare_partition_attributes() {
        let parts = tiny();
        let c = cluster_of(&parts, N_SITES);
        let d = c.distribution();
        assert!(d.is_partition_attribute("tpcr", "cust_key"));
        assert!(d.is_partition_attribute("tpcr", "cust_group"));
        assert!(d.is_partition_attribute("tpcr", "nation_key"));
    }

    #[test]
    fn all_workload_queries_run_and_match_oracle() {
        let parts = tiny();
        let c = cluster_of(&parts, 4);
        for expr in [
            group_reduction_query(Cardinality::High),
            group_reduction_query(Cardinality::Low),
            coalescing_query(Cardinality::High),
            coalescing_query(Cardinality::Low),
        ] {
            let oracle = expr
                .eval_centralized(&c.global_catalog(), EvalOptions::default())
                .unwrap();
            for flags in [OptFlags::none(), OptFlags::all()] {
                let plan = Planner::new(c.distribution()).optimize(&expr, flags);
                let out = c.execute(&plan).unwrap();
                assert!(out.relation.same_bag(&oracle), "{flags:?}");
            }
        }
    }

    #[test]
    fn sync_reduction_single_rounds_the_workload() {
        let parts = tiny();
        let c = cluster_of(&parts, 4);
        let plan = Planner::new(c.distribution()).optimize(
            &group_reduction_query(Cardinality::High),
            OptFlags::sync_reduction_only(),
        );
        assert_eq!(plan.n_rounds(), 1, "{}", plan.explain());
    }

    #[test]
    fn coalescing_query_is_coalescible_and_correlated_is_not() {
        let parts = tiny();
        let c = cluster_of(&parts, 2);
        let planner = Planner::new(c.distribution());
        let p1 = planner.optimize(&coalescing_query(Cardinality::Low), OptFlags::coalesce_only());
        assert_eq!(p1.expr.ops.len(), 1);
        let p2 = planner.optimize(
            &group_reduction_query(Cardinality::Low),
            OptFlags::coalesce_only(),
        );
        assert_eq!(p2.expr.ops.len(), 2);
    }
}
