//! Measurement harness of the `figs` binary: run a (query, flags) pair
//! on an engine, collect the paper's metrics, print series tables, and
//! check curve shapes.

use skalla_core::{ExecStats, OptFlags, Planner, Skalla};
use skalla_gmdj::GmdjExpr;

/// One point's measurements.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Wall time of the query, seconds.
    pub wall_s: f64,
    /// Per round, the slowest site's busy time, summed (seconds).
    pub site_s: f64,
    /// Coordinator compute (seconds).
    pub coord_s: f64,
    /// Bytes moved, both directions.
    pub bytes: u64,
    /// Rows shipped down / up.
    pub rows: (u64, u64),
    /// Synchronization rounds.
    pub rounds: usize,
}

/// Plan, then execute `repeats` times. Each timing is its own median
/// over the runs, so one noisy run moves none of them; traffic is
/// deterministic, the same in every run.
pub fn run_median(engine: &Skalla, expr: &GmdjExpr, flags: OptFlags, repeats: usize) -> Measurement {
    let plan = Planner::new(engine.distribution()).optimize(expr, flags);
    let runs: Vec<ExecStats> = (0..repeats.max(1))
        .map(|_| match engine.execute(&plan) {
            Ok(out) => out.stats,
            Err(e) => panic!("benchmark query failed: {e}\n{}", plan.explain()),
        })
        .collect();
    let median = |time: fn(&ExecStats) -> f64| {
        let mut ts: Vec<f64> = runs.iter().map(time).collect();
        ts.sort_by(f64::total_cmp);
        ts[ts.len() / 2]
    };
    let first = &runs[0];
    Measurement {
        wall_s: median(|s| s.wall_s),
        site_s: median(|s| s.round_summaries().iter().map(|r| r.slowest_site_s).sum()),
        coord_s: median(|s| s.stages.iter().map(|st| st.coord_s).sum()),
        bytes: first.total_bytes(),
        rows: first.total_rows(),
        rounds: first.n_rounds(),
    }
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

    /// [`assert_growth`] of a metric over this series' own x values.
    pub fn growth(
        &self,
        name: &str,
        f: impl Fn(&Measurement) -> f64,
        expected: Growth,
    ) -> std::result::Result<(), String> {
        let xs: Vec<usize> = self.points.iter().map(|(x, _)| *x).collect();
        assert_growth(name, &xs, &self.ys(f), expected)
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
}
