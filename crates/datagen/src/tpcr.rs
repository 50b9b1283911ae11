//! TPC-R-style synthetic data.
//!
//! The paper derived its test database from the TPC(R) `dbgen` program: a
//! denormalized relation of 6 million tuples (900 MB) partitioned on
//! `NationKey` — and therefore also on `CustKey`, since a customer belongs
//! to one nation. The experiments group either on `Customer.Name`
//! (100,000 distinct values — "high cardinality") or on attributes with
//! 2,000–4,000 distinct values ("low cardinality").
//!
//! This generator reproduces those cardinality knobs at configurable row
//! counts: `cust_name` is functionally determined by `cust_key`,
//! `nation_key` is functionally determined by `cust_key` (so partitioning
//! on `nation_key` also partitions `cust_key` and `cust_name`), and
//! `supp_key` provides the low-cardinality grouping attribute.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skalla_relation::{ColumnBuilder, Columns, DataType, Relation, Schema, Value};
use std::sync::Arc;

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct TpcrConfig {
    /// Number of fact tuples.
    pub rows: usize,
    /// Number of customers (distinct `cust_key` / `cust_name` values; the
    /// paper's high-cardinality grouping uses 100,000).
    pub customers: usize,
    /// Number of nations (TPC uses 25). `nation_key = cust_key % nations`.
    pub nations: usize,
    /// Number of suppliers (the paper's low-cardinality attribute has
    /// 2,000–4,000 distinct values).
    pub suppliers: usize,
    /// Number of parts.
    pub parts: usize,
    /// Zipf skew of customer activity (0 = uniform).
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TpcrConfig {
    /// A laptop-scale default preserving the paper's cardinality ratios.
    pub fn new(rows: usize, seed: u64) -> TpcrConfig {
        TpcrConfig {
            rows,
            customers: (rows / 60).max(100),
            nations: 25,
            suppliers: (rows / 2400).clamp(20, 4000),
            parts: (rows / 30).max(200),
            skew: 0.0,
            seed,
        }
    }

    /// A tiny deterministic dataset for unit tests.
    pub fn small(seed: u64) -> TpcrConfig {
        TpcrConfig {
            rows: 500,
            customers: 60,
            nations: 8,
            suppliers: 12,
            parts: 40,
            skew: 0.0,
            seed,
        }
    }
}

/// The denormalized TPCR schema.
pub fn tpcr_schema() -> Schema {
    Schema::of(&[
        ("order_key", DataType::Int),
        ("line_number", DataType::Int),
        ("cust_key", DataType::Int),
        ("cust_name", DataType::Str),
        ("cust_group", DataType::Int),
        ("nation_key", DataType::Int),
        ("region_key", DataType::Int),
        ("supp_key", DataType::Int),
        ("part_key", DataType::Int),
        ("quantity", DataType::Int),
        ("extended_price", DataType::Double),
        ("discount", DataType::Double),
        ("ship_date", DataType::Int),
        ("return_flag", DataType::Str),
        ("order_priority", DataType::Str),
    ])
}

/// The nation a customer belongs to: contiguous blocks of customer keys
/// per nation, so partitioning on `nation_key` also partitions `cust_key`,
/// `cust_name` and `cust_group` — the paper's "partitioned on the
/// NationKey attribute (and therefore also on the CustKey attribute)".
pub fn nation_of(cust_key: i64, customers: usize, nations: usize) -> i64 {
    let per = customers.div_ceil(nations) as i64;
    (cust_key / per).min(nations as i64 - 1)
}

/// The low-cardinality grouping attribute: blocks of [`CUST_GROUP_SIZE`]
/// consecutive customers (the paper's 2,000–4,000-value attributes). Being
/// a function of `cust_key`, it is partition-aligned.
pub fn cust_group_of(cust_key: i64) -> i64 {
    cust_key / CUST_GROUP_SIZE
}

/// Customers per `cust_group` value.
pub const CUST_GROUP_SIZE: i64 = 32;

/// The canonical customer name for a key (`Customer#000000042`).
pub fn customer_name(cust_key: i64) -> String {
    format!("Customer#{cust_key:09}")
}

const RETURN_FLAGS: [&str; 3] = ["R", "A", "N"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// Generate the denormalized TPCR relation, as columns.
#[expect(clippy::expect_used, reason = "one builder per field, of the field's type")]
pub fn generate_tpcr(cfg: &TpcrConfig) -> Relation {
    assert!(cfg.customers > 0 && cfg.nations > 0 && cfg.suppliers > 0 && cfg.parts > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cust_dist = Zipf::new(cfg.customers, cfg.skew);
    let schema = tpcr_schema();

    // Intern repeated strings so generation stays cheap.
    let names: Vec<Arc<str>> = (0..cfg.customers)
        .map(|c| Arc::from(customer_name(c as i64)))
        .collect();
    let flags: Vec<Arc<str>> = RETURN_FLAGS.iter().map(|s| Arc::from(*s)).collect();
    let prios: Vec<Arc<str>> = PRIORITIES.iter().map(|s| Arc::from(*s)).collect();

    // One builder per column, filled row by row: the columns are built
    // straight from the values, under `ColumnBuilder`'s rule.
    let mut cols: Vec<ColumnBuilder> =
        (schema.fields().iter()).map(|f| ColumnBuilder::new(f.data_type(), cfg.rows)).collect();
    let mut order_key = 0i64;
    let mut line_number = 0i64;
    for _ in 0..cfg.rows {
        // ~4 lines per order on average.
        line_number += 1;
        if line_number > 4 || rng.gen_bool(0.25) {
            order_key += 1;
            line_number = 1;
        }
        let cust_key = cust_dist.sample(&mut rng) as i64;
        let nation_key = nation_of(cust_key, cfg.customers, cfg.nations);
        let region_key = nation_key % 5;
        let supp_key = rng.gen_range(0..cfg.suppliers) as i64;
        let part_key = rng.gen_range(0..cfg.parts) as i64;
        let quantity = rng.gen_range(1..=50i64);
        let price = (quantity as f64) * rng.gen_range(900.0..=110_000.0) / 100.0;
        let discount = f64::from(rng.gen_range(0..=10u32)) / 100.0;
        let ship_date = rng.gen_range(0..2557i64); // ~7 years of days
        let row = [
            Value::Int(order_key),
            Value::Int(line_number),
            Value::Int(cust_key),
            Value::Str(Arc::clone(&names[cust_key as usize])),
            Value::Int(cust_group_of(cust_key)),
            Value::Int(nation_key),
            Value::Int(region_key),
            Value::Int(supp_key),
            Value::Int(part_key),
            Value::Int(quantity),
            Value::Double((price * 100.0).round() / 100.0),
            Value::Double(discount),
            Value::Int(ship_date),
            Value::Str(Arc::clone(&flags[rng.gen_range(0..flags.len())])),
            Value::Str(Arc::clone(&prios[rng.gen_range(0..prios.len())])),
        ];
        cols.iter_mut().zip(&row).for_each(|(c, v)| c.push(v));
    }
    let cols = Columns::new(cfg.rows, cols.into_iter().map(ColumnBuilder::finish).collect());
    Relation::from_columns(tpcr_schema(), cols).expect("the builders are the schema's")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_and_row_count() {
        let r = generate_tpcr(&TpcrConfig::small(1));
        assert_eq!(r.len(), 500);
        assert_eq!(r.schema(), &tpcr_schema());
        // The columns, built straight from the values, are what the one
        // path from rows builds over the relation's own rows: the same
        // layout, cell for cell, and the same dictionary order.
        assert_eq!(r.columns(), &Columns::from_rows(r.schema(), r.rows()));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate_tpcr(&TpcrConfig::small(7));
        let b = generate_tpcr(&TpcrConfig::small(7));
        assert_eq!(a, b);
        let c = generate_tpcr(&TpcrConfig::small(8));
        assert_ne!(a, c);
    }

    #[test]
    fn functional_dependencies_hold() {
        let cfg = TpcrConfig::small(3);
        let r = generate_tpcr(&cfg);
        let (ck, cn, cg, nk) = (
            r.schema().index_of("cust_key").unwrap(),
            r.schema().index_of("cust_name").unwrap(),
            r.schema().index_of("cust_group").unwrap(),
            r.schema().index_of("nation_key").unwrap(),
        );
        for row in &r {
            let cust = row.get(ck).as_i64().unwrap();
            assert_eq!(row.get(cn).as_str().unwrap(), customer_name(cust));
            assert_eq!(row.get(cg).as_i64().unwrap(), cust_group_of(cust));
            assert_eq!(
                row.get(nk).as_i64().unwrap(),
                nation_of(cust, cfg.customers, cfg.nations)
            );
        }
        // Contiguity: customers of nation k all precede those of nation k+1.
        let mut seen: Vec<(i64, i64)> = r
            .iter()
            .map(|row| (row.get(ck).as_i64().unwrap(), row.get(nk).as_i64().unwrap()))
            .collect();
        seen.sort_unstable();
        for w in seen.windows(2) {
            assert!(w[0].1 <= w[1].1, "nation not monotone in cust_key");
        }
    }

    #[test]
    fn cardinalities_bounded_by_config() {
        let cfg = TpcrConfig::small(5);
        let r = generate_tpcr(&cfg);
        assert!(r.column_values("cust_key").unwrap().len() <= cfg.customers);
        assert!(r.column_values("nation_key").unwrap().len() <= cfg.nations);
        assert!(r.column_values("supp_key").unwrap().len() <= cfg.suppliers);
        assert_eq!(r.column_values("return_flag").unwrap().len(), 3);
    }

    #[test]
    fn values_in_domain() {
        let r = generate_tpcr(&TpcrConfig::small(9));
        let (q, d) = (
            r.schema().index_of("quantity").unwrap(),
            r.schema().index_of("discount").unwrap(),
        );
        for row in &r {
            let quantity = row.get(q).as_i64().unwrap();
            assert!((1..=50).contains(&quantity));
            let discount = row.get(d).as_f64().unwrap();
            assert!((0.0..=0.10).contains(&discount));
        }
    }

    #[test]
    fn skew_concentrates_customers() {
        let mut cfg = TpcrConfig::small(11);
        cfg.rows = 2000;
        cfg.skew = 1.2;
        let r = generate_tpcr(&cfg);
        let ck = r.schema().index_of("cust_key").unwrap();
        let head = r
            .iter()
            .filter(|row| row.get(ck).as_i64().unwrap() < 6)
            .count();
        assert!(
            head > r.len() / 3,
            "top 10% of customers should dominate: {head}/{}",
            r.len()
        );
    }
}
