//! The four workloads: their data (made from the seed, nothing else), their
//! queries (as query text, the way a user submits them) and how many
//! clients drive them. Sizes are chosen so that one op takes a few tens of
//! milliseconds on the 2-core reference box and a 10-second timed phase
//! holds at least 200 of them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skalla_datagen::partition::{
    observe_int_ranges, partition_by_int_ranges, partition_round_robin, Partition,
};
use skalla_datagen::tpcr::{generate_tpcr, TpcrConfig};
use skalla_datagen::Zipf;
use skalla_gmdj::AggSpec;
use skalla_relation::{DataType, Relation, Row, Schema};

/// Sites in every workload. Four, not the paper's eight: on two cores,
/// eight site threads spread the p50 of identical runs by 9.7%, four by 3.4%.
pub const N_SITES: usize = 4;

pub const NAMES: [&str; 4] = ["scan_heavy", "group_heavy", "dashboard_mix", "skewed_star"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Site threads over in-process channels.
    Channel,
    /// `SiteServer` threads over loopback TCP.
    Tcp,
}

impl Transport {
    pub fn label(self) -> &'static str {
        match self {
            Transport::Channel => "channel",
            Transport::Tcp => "tcp-loopback",
        }
    }
}

/// One partitioned relation, one fragment per site. The master copy:
/// engines get clones, and nothing may call `columns()` on it before the
/// last cold engine is built, or the clones would inherit the cached
/// columnar layout and no longer be cold.
pub struct Table {
    pub name: &'static str,
    pub parts: Vec<Partition>,
}

pub struct Query {
    pub label: &'static str,
    pub text: String,
}

pub struct Cube {
    pub table: &'static str,
    pub dims: &'static [&'static str],
    pub aggs: Vec<AggSpec>,
}

pub struct Workload {
    pub name: &'static str,
    pub transport: Transport,
    /// Closed-loop clients; also the engine's `max_concurrent`.
    pub clients: usize,
    /// The partition epoch is bumped before every `bump_every`-th round,
    /// so 1 makes every op a cold execution and 4 leaves three of four
    /// rounds to the cache.
    pub bump_every: usize,
    pub tables: Vec<Table>,
    /// One op submits every query (and the cube) once.
    pub queries: Vec<Query>,
    pub cube: Option<Cube>,
}

impl Workload {
    pub fn rows(&self) -> usize {
        self.tables
            .iter()
            .flat_map(|t| &t.parts)
            .map(|p| p.relation.len())
            .sum()
    }

    /// Queries plus the cube: the items one op walks through.
    pub fn items(&self) -> usize {
        self.queries.len() + usize::from(self.cube.is_some())
    }
}

/// The Fig. 2 group-reduction chain: two correlated GMDJs (θ₂ reads
/// `avg1`, so they cannot coalesce), COUNT + AVG each, grouped on `g`.
fn fig2_chain(g: &str) -> String {
    format!(
        "BASE SELECT DISTINCT {g} FROM tpcr;
         MD cnt1 = COUNT(*), avg1 = AVG(extended_price)
            OVER tpcr WHERE {g} = b.{g};
         MD cnt2 = COUNT(*), avg2 = AVG(quantity)
            OVER tpcr WHERE {g} = b.{g} AND extended_price >= b.avg1;"
    )
}

/// Add a sub-cent amount to every `extended_price`. The generator rounds
/// prices to cents, so a group's average can equal a member's price
/// exactly; `extended_price >= b.avg1` then hangs on the last bit of a
/// floating-point sum, which the distributed plan and the centralized
/// reference add up in different orders — both right, and one line apart.
/// Continuous prices make such ties (measure-zero) disappear, so the
/// correctness gate can demand exact counts.
fn untie_prices(tpcr: &mut Relation, seed: u64) {
    let price = tpcr
        .schema()
        .index_of("extended_price")
        .expect("TPCR has extended_price");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0fe2);
    for row in tpcr.rows_mut() {
        let cents = row.get(price).as_f64().expect("prices are doubles");
        row.set(price, (cents + rng.gen_range(0.0..0.005)).into());
    }
}

/// TPCR over `N_SITES` nation ranges with the observed `cust_key` /
/// `cust_group` ranges declared, as in the paper's set-up.
fn tpcr_table(cfg: &TpcrConfig) -> Table {
    let mut tpcr = generate_tpcr(cfg);
    untie_prices(&mut tpcr, cfg.seed);
    let mut parts = partition_by_int_ranges(&tpcr, "nation_key", N_SITES);
    observe_int_ranges(&mut parts, &["cust_key", "cust_group"]);
    Table {
        name: "tpcr",
        parts,
    }
}

fn scan_heavy(seed: u64, smoke: bool) -> Workload {
    let cfg = TpcrConfig {
        rows: if smoke { 4_000 } else { 300_000 },
        // Divisible by N_SITES × 32 keeps `cust_group` partition-aligned.
        customers: if smoke { 1_280 } else { 6_400 },
        nations: N_SITES,
        suppliers: 400,
        parts: 2_000,
        skew: 0.0,
        seed,
    };
    Workload {
        name: "scan_heavy",
        transport: Transport::Channel,
        clients: 1,
        bump_every: 1,
        tables: vec![tpcr_table(&cfg)],
        queries: vec![Query {
            label: "fig2_by_cust_group",
            text: fig2_chain("cust_group"),
        }],
        cube: None,
    }
}

fn group_heavy(seed: u64, smoke: bool) -> Workload {
    let cfg = TpcrConfig {
        rows: if smoke { 3_000 } else { 60_000 },
        customers: 6_400,
        nations: N_SITES,
        suppliers: 400,
        parts: if smoke { 300 } else { 5_000 },
        skew: 0.0,
        seed,
    };
    Workload {
        name: "group_heavy",
        transport: Transport::Tcp,
        clients: 1,
        bump_every: 1,
        tables: vec![tpcr_table(&cfg)],
        queries: vec![Query {
            label: "fig2_by_part_key",
            text: fig2_chain("part_key"),
        }],
        cube: None,
    }
}

/// Same text as `queries/customer_profile.skl` (a unit test compares them).
pub const CUSTOMER_PROFILE: &str = "\
-- TPCR: per customer, order-line statistics plus a correlated count of
-- above-average-priced lines (run with --dataset tpcr).
BASE SELECT DISTINCT cust_key FROM tpcr;
MD lines = COUNT(*), avg_price = AVG(extended_price), spread = STDDEV(extended_price)
   OVER tpcr
   WHERE cust_key = b.cust_key;
MD pricey = COUNT(*)
   OVER tpcr
   WHERE cust_key = b.cust_key AND extended_price >= b.avg_price;
";

/// The five `fig_cache` dashboard panels as query text, then the customer
/// profile. All carry order-sensitive aggregates, so bit-identity of a
/// cache-served repeat is a real constraint.
fn dashboard_panels() -> Vec<Query> {
    let panel = |label, text: &str| Query {
        label,
        text: text.to_string(),
    };
    vec![
        panel(
            "revenue_by_nation",
            "BASE SELECT DISTINCT nation_key FROM tpcr;
             MD lines = COUNT(*), revenue = SUM(extended_price), avg_price = AVG(extended_price)
                OVER tpcr WHERE nation_key = b.nation_key;",
        ),
        panel(
            "above_avg_by_nation",
            "BASE SELECT DISTINCT nation_key FROM tpcr;
             MD av = AVG(extended_price) OVER tpcr WHERE nation_key = b.nation_key;
             MD above = COUNT(*), mx = MAX(extended_price)
                OVER tpcr WHERE nation_key = b.nation_key AND extended_price >= b.av;",
        ),
        panel(
            "spread_by_group",
            "BASE SELECT DISTINCT cust_group FROM tpcr;
             MD units = SUM(quantity), price_var = VAR(extended_price), mn = MIN(extended_price)
                OVER tpcr WHERE cust_group = b.cust_group;",
        ),
        panel(
            "returns_by_flag",
            "BASE SELECT DISTINCT return_flag FROM tpcr;
             MD lines = COUNT(*), revenue = SUM(extended_price)
                OVER tpcr WHERE return_flag = b.return_flag;",
        ),
        panel(
            "priority_profile",
            "BASE SELECT DISTINCT order_priority FROM tpcr;
             MD lines = COUNT(*), price_sd = STDDEV(extended_price)
                OVER tpcr WHERE order_priority = b.order_priority;",
        ),
        panel("customer_profile", CUSTOMER_PROFILE),
    ]
}

fn dashboard_mix(seed: u64, smoke: bool) -> Workload {
    let cfg = TpcrConfig::new(if smoke { 4_000 } else { 120_000 }, seed);
    Workload {
        name: "dashboard_mix",
        transport: Transport::Tcp,
        clients: 2,
        bump_every: 4,
        tables: vec![tpcr_table(&cfg)],
        queries: dashboard_panels(),
        cube: Some(Cube {
            table: "tpcr",
            dims: &["region_key", "return_flag", "order_priority"],
            aggs: vec![
                AggSpec::count("lines"),
                AggSpec::sum("quantity", "units"),
                AggSpec::avg("extended_price", "avg_price"),
            ],
        }),
    }
}

const SKEW_KEYS: usize = 256;
const ZIPF_S: f64 = 1.2;

/// `t(r, g, v)`: `r` ~ Zipf(1.2) is the partitioning column, so site 0
/// holds the hot head (≈ 87% of the rows); `g` ~ Zipf(1.2) over 256 keys is
/// the grouping column, independent of `r`, so no site owns a group.
fn skewed_fact(rows: usize, seed: u64) -> Relation {
    let zipf = Zipf::new(SKEW_KEYS, ZIPF_S);
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..rows)
        .map(|_| {
            let r = zipf.sample(&mut rng) as i64;
            let g = zipf.sample(&mut rng) as i64;
            // Continuous, so that `v >= b.av` never sits on a tie (see
            // `untie_prices`).
            let v = rng.gen_range(0.0..1000.0);
            Row::new(vec![r.into(), g.into(), v.into()])
        })
        .collect();
    Relation::new(
        Schema::of(&[
            ("r", DataType::Int),
            ("g", DataType::Int),
            ("v", DataType::Double),
        ]),
        rows,
    )
    .expect("rows match the three-column schema")
}

/// The `fig_skew` chain over a **dimension-table** base. With the base
/// over the fact table, Prop 2 folds the base round away and the balancer
/// (which rides on that round) can never fire under `OptFlags::all()`.
const SKEW_CHAIN: &str = "
BASE SELECT DISTINCT g FROM keys;
MD cnt = COUNT(*), sm = SUM(v), av = AVG(v), vr = VAR(v),
   mn0 = MIN(v), mx0 = MAX(v), sd0 = STDDEV(v)
   OVER t WHERE g = b.g;
MD big = COUNT(*), mx = MAX(v), sm1 = SUM(v), av1 = AVG(v), vr1 = VAR(v)
   OVER t WHERE g = b.g AND v >= b.av;
MD mn = MIN(v), sd = STDDEV(v), sm2 = SUM(v), av2 = AVG(v), small = COUNT(*)
   OVER t WHERE g = b.g AND v < b.av;
";

fn skewed_star(seed: u64, smoke: bool) -> Workload {
    let fact = skewed_fact(if smoke { 6_000 } else { 64_000 }, seed);
    let keys = Relation::new(
        Schema::of(&[("g", DataType::Int)]),
        (0..SKEW_KEYS as i64)
            .map(|g| Row::new(vec![g.into()]))
            .collect(),
    )
    .expect("rows match the one-column schema");
    Workload {
        name: "skewed_star",
        transport: Transport::Channel,
        clients: 1,
        bump_every: 1,
        tables: vec![
            Table {
                name: "t",
                parts: partition_by_int_ranges(&fact, "r", N_SITES),
            },
            Table {
                name: "keys",
                parts: partition_round_robin(&keys, N_SITES),
            },
        ],
        queries: vec![Query {
            label: "fig_skew_chain",
            text: SKEW_CHAIN.to_string(),
        }],
        cube: None,
    }
}

/// Build a workload's data and queries from the seed. `None` for an
/// unknown name.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    Some(match name {
        "scan_heavy" => scan_heavy(seed, smoke),
        "group_heavy" => group_heavy(seed, smoke),
        "dashboard_mix" => dashboard_mix(seed, smoke),
        "skewed_star" => skewed_star(seed, smoke),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn customer_profile_is_the_checked_in_query_file() {
        let file = include_str!("../../../../../queries/customer_profile.skl");
        assert_eq!(CUSTOMER_PROFILE, file);
    }

    #[test]
    fn same_seed_same_data_other_seed_other_data() {
        for name in NAMES {
            let a = build(name, 7, true).unwrap();
            let b = build(name, 7, true).unwrap();
            let c = build(name, 8, true).unwrap();
            let fact = |w: &Workload| w.tables[0].parts[0].relation.clone();
            assert_eq!(fact(&a), fact(&b), "{name}");
            assert_ne!(fact(&a), fact(&c), "{name}");
            assert_eq!(a.tables[0].parts.len(), N_SITES);
        }
    }

    #[test]
    fn skewed_fact_piles_onto_site_zero() {
        let w = build("skewed_star", 2002, true).unwrap();
        let share = w.tables[0].parts[0].relation.len() as f64 / 6_000.0;
        assert!(share > 0.7, "site 0 holds {share:.2} of the rows");
    }
}
