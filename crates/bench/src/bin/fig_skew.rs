//! **Skew resilience — heavy-hitter balancing vs Zipf exponent.**
//!
//! Not a paper figure: the paper's experiments partition TPC-R roughly
//! evenly, but the motivating workload (network flows) is Zipf-skewed,
//! and range partitioning then concentrates the hot group keys on one
//! site. This benchmark measures what the heavy-hitter balancer buys:
//! a detail relation whose group key follows Zipf(s) over 256 ranks is
//! range-partitioned across 4–64 sites (rank 0, the hottest, lands on
//! site 0), and a three-round GMDJ chain runs with skew balancing on
//! and off.
//!
//! Reported per (sites, s): median wall-clock and minimum **max-site-busy**
//! (the slowest site's total compute over all rounds — the quantity that
//! bounds a barriered distributed round) plus the busy skew ratio
//! max/mean. Busy is thread CPU time, so external load only ever inflates
//! it; the minimum over repeats is the least-perturbed estimate. The run also verifies the correctness contract: balanced
//! and unbalanced executions produce **bit-identical** results (f64
//! compared by bit pattern).
//!
//! Results are written to `BENCH_skew.json` (override with `--out`).
//! `--check` additionally asserts that on skewed workloads (s ≥ 1.2 at
//! 8+ sites) the balanced max-site-busy is strictly below the unbalanced
//! one.

use skalla_bench::harness::{arg_value, has_flag};
use skalla_core::{Cluster, ExecStats, OptFlags, Planner};
use skalla_datagen::partition::partition_by_int_ranges;
use skalla_datagen::Zipf;
use skalla_gmdj::prelude::*;
use skalla_gmdj::EvalOptions;
use skalla_obs::json::Json;
use skalla_relation::{DataType, Row, Value};
use std::time::Instant;

const KEYS: usize = 256;

/// Zipf-keyed detail relation: `rows` tuples whose group key is a Zipf(s)
/// rank (rank 0 hottest) and whose measure is a deterministic Double.
fn zipf_detail(rows: usize, s: f64, seed: u64) -> Relation {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let zipf = Zipf::new(KEYS, s);
    let mut rng = StdRng::seed_from_u64(seed);
    Relation::new(
        Schema::of(&[("g", DataType::Int), ("v", DataType::Double)]),
        (0..rows)
            .map(|i| {
                let g = zipf.sample(&mut rng) as i64;
                let v = ((i.wrapping_mul(1_103_515_245).wrapping_add(12_345)) % 1000) as f64 / 3.0;
                Row::new(vec![g.into(), v.into()])
            })
            .collect(),
    )
    .unwrap()
}

/// Three aggregate-heavy unit rounds over the same skewed table (the
/// regime the balancer targets: per-row compute well above per-row
/// shipping cost, as in the paper's multi-round network analyses).
/// The 17 aggregates include the order-sensitive AVG, VAR and STDDEV so
/// bit-identity is a real constraint, and the multiple rounds exercise
/// the donor's split cache: the hot/cold scan runs once per query and
/// is reused by every round.
fn expr() -> GmdjExpr {
    GmdjExprBuilder::distinct_base("t", &["g"])
        .gmdj(Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![
                AggSpec::count("cnt"),
                AggSpec::sum("v", "sm"),
                AggSpec::avg("v", "av"),
                AggSpec::var("v", "vr"),
                AggSpec::min("v", "mn0"),
                AggSpec::max("v", "mx0"),
                AggSpec::stddev("v", "sd0"),
            ],
        ))
        .gmdj(Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"])
                .and(Expr::dcol("v").ge(Expr::bcol("av")))
                .build(),
            vec![
                AggSpec::count("big"),
                AggSpec::max("v", "mx"),
                AggSpec::sum("v", "sm1"),
                AggSpec::avg("v", "av1"),
                AggSpec::var("v", "vr1"),
            ],
        ))
        .gmdj(Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"])
                .and(Expr::dcol("v").lt(Expr::bcol("av")))
                .build(),
            vec![
                AggSpec::min("v", "mn"),
                AggSpec::stddev("v", "sd"),
                AggSpec::sum("v", "sm2"),
                AggSpec::avg("v", "av2"),
                AggSpec::count("small"),
            ],
        ))
        .build()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Total busy seconds per site, summed over every round.
fn per_site_busy(stats: &ExecStats, n: usize) -> Vec<f64> {
    let mut busy = vec![0.0; n];
    for st in &stats.stages {
        for (site, s) in st.site_busy_s.iter().enumerate() {
            busy[site] += s;
        }
    }
    busy
}

/// Compare two physical relations with exact f64 bit equality.
fn bit_identical(a: &Relation, b: &Relation) -> bool {
    a.len() == b.len()
        && a.rows().iter().zip(b.rows()).all(|(ra, rb)| {
            ra.values().iter().zip(rb.values()).all(|(va, vb)| match (va, vb) {
                (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
                _ => va == vb,
            })
        })
}

/// Minimum max-site-busy plus median wall and skew ratio over `repeats`
/// runs of one configuration, plus the first run's result relation.
/// Busy is measured in thread CPU time, which concurrent system load can
/// only inflate (cache pollution, migrations) — the minimum repeat is
/// therefore the cleanest estimate of the configuration's true cost.
struct ConfigRun {
    max_busy_s: f64,
    skew_ratio: f64,
    wall_s: f64,
    relation: Relation,
}

fn run_config(
    cluster: &mut Cluster,
    plan: &skalla_core::DistributedPlan,
    eval: EvalOptions,
    repeats: usize,
) -> ConfigRun {
    cluster.configure(&skalla_core::EngineConfig {
        eval,
        ..skalla_core::EngineConfig::default()
    });
    let n = cluster.n_sites();
    let mut maxes = Vec::with_capacity(repeats);
    let mut skews = Vec::with_capacity(repeats);
    let mut walls = Vec::with_capacity(repeats);
    let mut relation = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let out = cluster.execute(plan).unwrap();
        walls.push(t.elapsed().as_secs_f64());
        let busy = per_site_busy(&out.stats, n);
        let max = busy.iter().copied().fold(0.0, f64::max);
        let mean = busy.iter().sum::<f64>() / n as f64;
        maxes.push(max);
        skews.push(if mean > 0.0 { max / mean } else { 1.0 });
        relation.get_or_insert(out.relation);
    }
    ConfigRun {
        max_busy_s: maxes.iter().copied().fold(f64::INFINITY, f64::min),
        skew_ratio: median(skews),
        wall_s: median(walls),
        relation: relation.unwrap(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = has_flag(&args, "--quick");
    let rows: usize = if quick { 80_000 } else { 400_000 };
    let site_counts: Vec<usize> = if quick { vec![8] } else { vec![4, 16, 64] };
    let exponents: Vec<f64> = if quick { vec![1.2] } else { vec![0.8, 1.2, 1.5] };
    let repeats: usize = arg_value(&args, "--repeats")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_skew.json".into());

    println!("# Skew resilience: heavy-hitter balancing vs Zipf exponent");
    println!("# rows = {rows}, keys = {KEYS}, repeats = {repeats}");
    println!(
        "# {:>5} {:>5} | {:>12} {:>12} {:>7} | {:>10} {:>10} {:>7}",
        "sites", "zipf", "max-busy off", "max-busy on", "gain", "skew off", "skew on", "ident"
    );

    let e = expr();
    let opts = |skew_balance: bool| EvalOptions {
        morsel_rows: 16_384,
        skew_balance,
        ..EvalOptions::default()
    };

    let mut entries = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for &sites in &site_counts {
        for &s in &exponents {
            let detail = zipf_detail(rows, s, 42 + (s * 10.0) as u64);
            let mut cluster =
                Cluster::from_partitions("t", partition_by_int_ranges(&detail, "g", sites));
            let plan = Planner::new(cluster.distribution()).optimize(&e, OptFlags::none());
            let off = run_config(&mut cluster, &plan, opts(false), repeats);
            let on = run_config(&mut cluster, &plan, opts(true), repeats);
            let identical = bit_identical(&on.relation, &off.relation);
            let gain = off.max_busy_s / on.max_busy_s.max(1e-12);
            println!(
                "# {sites:>5} {s:>5.1} | {:>12.4} {:>12.4} {gain:>6.2}x | {:>10.2} {:>10.2} {:>7}",
                off.max_busy_s, on.max_busy_s, off.skew_ratio, on.skew_ratio, identical
            );
            entries.push(Json::obj(vec![
                ("sites", Json::UInt(sites as u64)),
                ("zipf_s", Json::Float(s)),
                ("max_busy_unbalanced_s", Json::Float(off.max_busy_s)),
                ("max_busy_balanced_s", Json::Float(on.max_busy_s)),
                ("skew_ratio_unbalanced", Json::Float(off.skew_ratio)),
                ("skew_ratio_balanced", Json::Float(on.skew_ratio)),
                ("wall_unbalanced_s", Json::Float(off.wall_s)),
                ("wall_balanced_s", Json::Float(on.wall_s)),
                ("bit_identical", Json::Bool(identical)),
            ]));
            // Correctness is unconditional: the balancer must never
            // change a single output bit, skewed or not.
            if !identical {
                failures.push(format!(
                    "sites {sites}, zipf {s}: balanced result differs from unbalanced"
                ));
            }
            // The performance claim only holds where there is skew to
            // remove and enough sites to spread it over.
            if has_flag(&args, "--check")
                && s >= 1.2
                && sites >= 8
                && on.max_busy_s >= off.max_busy_s
            {
                failures.push(format!(
                    "sites {sites}, zipf {s}: balanced max-busy {:.4}s \
                     not below unbalanced {:.4}s",
                    on.max_busy_s, off.max_busy_s
                ));
            }
        }
    }

    let report = Json::obj(vec![
        ("bench", Json::Str("fig_skew".into())),
        ("rows", Json::UInt(rows as u64)),
        ("keys", Json::UInt(KEYS as u64)),
        ("repeats", Json::UInt(repeats as u64)),
        ("entries", Json::Arr(entries)),
    ]);
    std::fs::write(&out_path, report.to_json())
        .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        panic!("{} skew check(s) failed", failures.len());
    }
    if has_flag(&args, "--check") {
        println!("skew balancing check passed ✓");
    }
}
