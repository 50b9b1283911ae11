//! Measurement harness shared by the `fig2`…`fig5` binaries: run a
//! (query, flags) pair on a cluster, collect the
//! paper's metrics, print series tables, and check curve shapes.

use skalla_core::{Cluster, DistributedPlan, EngineConfig, OptFlags, Planner, QueryResult};
use skalla_gmdj::GmdjExpr;
use skalla_net::CostModel;
use skalla_obs::chrome::metrics_snapshot;
use skalla_obs::json::Json;
use skalla_obs::Obs;
use std::collections::BTreeMap;

/// One measured execution.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Simulated evaluation time (compute + modeled wire time), seconds.
    pub sim_total_s: f64,
    /// Simulated per-round max site compute, summed (seconds).
    pub sim_site_s: f64,
    /// Coordinator compute (seconds).
    pub sim_coord_s: f64,
    /// Modeled communication time (seconds).
    pub sim_comm_s: f64,
    /// Bytes moved, both directions.
    pub bytes: u64,
    /// Rows shipped down / up.
    pub rows: (u64, u64),
    /// Synchronization rounds.
    pub rounds: usize,
    /// Result group count.
    pub groups: usize,
    /// Real wall-clock seconds.
    pub wall_s: f64,
}

impl Measurement {
    /// Extract metrics from a query result under a cost model.
    pub fn from(result: &QueryResult, cost: &CostModel) -> Measurement {
        let sim = result.stats.simulated(cost);
        Measurement {
            sim_total_s: sim.total_s(),
            sim_site_s: sim.site_s,
            sim_coord_s: sim.coord_s,
            sim_comm_s: sim.comm_s,
            bytes: result.stats.total_bytes(),
            rows: result.stats.total_rows(),
            rounds: result.stats.n_rounds(),
            groups: result.relation.len(),
            wall_s: result.stats.wall_s,
        }
    }
}

/// Plan and execute, returning the plan and the measurement.
pub fn run_once(
    cluster: &Cluster,
    expr: &GmdjExpr,
    flags: OptFlags,
    cost: &CostModel,
) -> (DistributedPlan, Measurement) {
    let plan = Planner::new(cluster.distribution()).optimize(expr, flags);
    let result = cluster
        .execute(&plan)
        .unwrap_or_else(|e| panic!("benchmark query failed: {e}\n{}", plan.explain()));
    let m = Measurement::from(&result, cost);
    (plan, m)
}

/// Plan and execute with a span recorder attached, returning the
/// measurement plus a trace-derived JSON report: headline numbers,
/// per-span-name duration roll-ups, and the flat metrics snapshot.
/// Serialize with [`Json::to_json`].
pub fn run_traced(
    cluster: &Cluster,
    expr: &GmdjExpr,
    flags: OptFlags,
    cost: &CostModel,
) -> (Measurement, Json) {
    let obs = Obs::recording();
    let mut cluster = cluster.clone();
    cluster.configure(&EngineConfig {
        obs: obs.clone(),
        ..EngineConfig::default()
    });
    let planner = Planner::new(cluster.distribution()).with_obs(obs.clone());
    let (plan, decisions) = planner.optimize_with_decisions(expr, flags);
    let result = cluster
        .execute(&plan)
        .unwrap_or_else(|e| panic!("benchmark query failed: {e}\n{}", plan.explain()));
    let m = Measurement::from(&result, cost);
    let rec = obs.recorder().expect("recording handle");

    // Roll up closed spans by name.
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in rec.spans() {
        if let Some(d) = s.dur_us {
            let e = totals.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += d;
        }
    }
    let span_totals = Json::Obj(
        totals
            .into_iter()
            .map(|(name, (count, total_us))| {
                (
                    name,
                    Json::obj(vec![
                        ("count", count.into()),
                        ("total_us", total_us.into()),
                    ]),
                )
            })
            .collect(),
    );
    let report = Json::obj(vec![
        ("rounds", m.rounds.into()),
        ("bytes", m.bytes.into()),
        ("rows_down", m.rows.0.into()),
        ("rows_up", m.rows.1.into()),
        ("groups", m.groups.into()),
        ("optimizer_decisions", Json::Arr(
            decisions.iter().map(|d| d.to_string().into()).collect(),
        )),
        ("span_totals", span_totals),
        ("metrics", metrics_snapshot(rec)),
    ]);
    (m, report)
}

/// Run `repeats` times and keep the measurement with the median simulated
/// time (compute measurements are noisy; traffic is deterministic).
pub fn run_median(
    cluster: &Cluster,
    expr: &GmdjExpr,
    flags: OptFlags,
    cost: &CostModel,
    repeats: usize,
) -> Measurement {
    let mut ms: Vec<Measurement> = (0..repeats.max(1))
        .map(|_| run_once(cluster, expr, flags, cost).1)
        .collect();
    ms.sort_by(|a, b| a.sim_total_s.total_cmp(&b.sim_total_s));
    ms.swap_remove(ms.len() / 2)
}

/// A labelled series of measurements over an x axis (sites or scale).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, measurement)` points.
    pub points: Vec<(usize, Measurement)>,
}

impl Series {
    /// The y values under a metric accessor.
    pub fn ys(&self, f: impl Fn(&Measurement) -> f64) -> Vec<f64> {
        self.points.iter().map(|(_, m)| f(m)).collect()
    }
}

/// Print aligned series tables for one metric.
pub fn print_metric_table(
    title: &str,
    x_name: &str,
    series: &[Series],
    metric: impl Fn(&Measurement) -> String,
) {
    println!("\n### {title}");
    print!("| {x_name:>5} |");
    for s in series {
        print!(" {:>24} |", s.label);
    }
    println!();
    print!("|------:|");
    for _ in series {
        print!("{}|", "-".repeat(26));
    }
    println!();
    let xs: Vec<usize> = series[0].points.iter().map(|(x, _)| *x).collect();
    for (i, x) in xs.iter().enumerate() {
        print!("| {x:>5} |");
        for s in series {
            print!(" {:>24} |", metric(&s.points[i].1));
        }
        println!();
    }
}

/// How a curve grows over its x axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Growth {
    /// Roughly ∝ x.
    Linear,
    /// Clearly super-linear, approaching ∝ x².
    Quadratic,
}

/// Classify growth by the ratio y(last)/y(first) against x(last)/x(first):
/// linear if the exponent ≲ 1.35, quadratic if ≳ 1.6.
pub fn classify_growth(xs: &[usize], ys: &[f64]) -> Option<Growth> {
    let (x0, x1) = (*xs.first()? as f64, *xs.last()? as f64);
    let (y0, y1) = (*ys.first()?, *ys.last()?);
    if x1 <= x0 || y0 <= 0.0 || y1 <= 0.0 {
        return None;
    }
    let exponent = (y1 / y0).ln() / (x1 / x0).ln();
    if exponent <= 1.35 {
        Some(Growth::Linear)
    } else if exponent >= 1.6 {
        Some(Growth::Quadratic)
    } else {
        None
    }
}

/// Assert a series' growth class, with a helpful message.
pub fn assert_growth(
    name: &str,
    xs: &[usize],
    ys: &[f64],
    expected: Growth,
) -> std::result::Result<(), String> {
    match classify_growth(xs, ys) {
        Some(g) if g == expected => Ok(()),
        other => Err(format!(
            "{name}: expected {expected:?}, classified {other:?} (ys = {ys:?})"
        )),
    }
}

/// Pretty-print a byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 10_000_000 {
        format!("{:.1} MB", b as f64 / 1e6)
    } else if b >= 10_000 {
        format!("{:.1} kB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

/// Pretty-print seconds.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.1} ms", s * 1e3)
    }
}

/// Parse `--flag value`-style arguments: returns the value after `name`.
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether a bare flag is present.
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_classification() {
        let xs = [1usize, 2, 4, 8];
        let linear: Vec<f64> = xs.iter().map(|&x| 3.0 * x as f64 + 1.0).collect();
        let quad: Vec<f64> = xs.iter().map(|&x| (x * x) as f64).collect();
        assert_eq!(classify_growth(&xs, &linear), Some(Growth::Linear));
        assert_eq!(classify_growth(&xs, &quad), Some(Growth::Quadratic));
        assert!(assert_growth("q", &xs, &quad, Growth::Quadratic).is_ok());
        assert!(assert_growth("q", &xs, &quad, Growth::Linear).is_err());
        // Degenerate inputs.
        assert_eq!(classify_growth(&[3], &[1.0]), None);
        assert_eq!(classify_growth(&xs, &[0.0, 0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(500), "500 B");
        assert_eq!(fmt_bytes(25_000), "25.0 kB");
        assert_eq!(fmt_bytes(12_000_000), "12.0 MB");
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(0.0123), "12.3 ms");
    }

    #[test]
    fn traced_report_round_trips_through_parser() {
        use skalla_gmdj::prelude::*;
        use skalla_relation::{row, DataType, Domain, DomainMap, Relation, Schema};
        let schema = Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]);
        let p0 = Relation::new(
            schema.clone(),
            vec![row![1i64, 10i64], row![2i64, 5i64]],
        )
        .unwrap();
        let p1 = Relation::new(schema, vec![row![3i64, 7i64]]).unwrap();
        let cluster = Cluster::from_partitions(
            "t",
            vec![
                (p0, DomainMap::new().with("g", Domain::IntRange(1, 2))),
                (p1, DomainMap::new().with("g", Domain::IntRange(3, 3))),
            ],
        );
        let expr = GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("cnt")],
            ))
            .build();
        let (m, report) =
            run_traced(&cluster, &expr, OptFlags::all(), &CostModel::lan());
        let parsed = skalla_obs::json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(
            parsed.get("rounds").and_then(|v| v.as_u64()),
            Some(m.rounds as u64)
        );
        assert_eq!(
            parsed.get("bytes").and_then(|v| v.as_u64()),
            Some(m.bytes)
        );
        let spans = parsed.get("span_totals").expect("span_totals");
        assert!(spans.get("query").is_some());
        assert!(parsed
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .is_some());
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--scale", "3", "--check"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--scale").as_deref(), Some("3"));
        assert_eq!(arg_value(&args, "--other"), None);
        assert!(has_flag(&args, "--check"));
        assert!(!has_flag(&args, "--nope"));
    }
}
