//! Measurement harness of the `figs` binary: run a (query, flags) pair
//! on an engine, collect the paper's metrics, print series tables, and
//! check curve shapes.

use skalla_core::{ExecStats, OptFlags, Planner, Skalla, StageTimes};
use skalla_gmdj::GmdjExpr;

/// One point's measurements.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Wall time of the query, seconds.
    pub wall_s: f64,
    /// The least and the greatest wall time of the runs, seconds.
    pub wall_range_s: (f64, f64),
    /// Per round, the slowest site's busy time, summed (seconds).
    pub site_s: f64,
    /// Coordinator seconds outside waits, over all rounds.
    pub coord_s: f64,
    /// Bytes moved, both directions.
    pub bytes: u64,
    /// Rows shipped down / up.
    pub rows: (u64, u64),
    /// Synchronization rounds.
    pub rounds: usize,
}

/// Plan, then execute `repeats` times. Each timing is its own median
/// over the runs, so one noisy run moves none of them, and the wall
/// time's least and greatest run are kept beside it to show its spread;
/// traffic is deterministic, the same in every run.
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
    let walls = runs.iter().map(|s| s.wall_s);
    Measurement {
        wall_s: median(|s| s.wall_s),
        wall_range_s: (walls.clone().fold(f64::INFINITY, f64::min), walls.fold(0.0, f64::max)),
        site_s: median(|s| s.stages.iter().map(StageTimes::busy_max_s).sum()),
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

/// Classify growth by the share of the curve's rise, y(last) − y(first),
/// that the x² term of a least-squares fit y ≈ a + b·x + c·x² carries:
/// c·(x_last² − x_first²) / (y_last − y_first). Linear if the share is at
/// most 0.2, quadratic if at least 0.6. A pure x² curve's share is 1 and
/// any a + b·x's is 0, whatever its intercept; x^1.5 over 1..8 is 0.54,
/// neither. So a fixed or linear part growing beside the quadratic one
/// (a smaller broadcast, a cheaper encoding) moves the share only as far
/// as it moves the rise, where the end-to-end exponent
/// ln(y_last / y_first) / ln(x_last / x_first) falls with every byte
/// y_first gains. `None` below three points, or for a curve that does not
/// rise.
pub fn classify_growth(xs: &[usize], ys: &[f64]) -> Option<Growth> {
    let share = quadratic_share(xs, ys)?;
    if share <= 0.2 {
        Some(Growth::Linear)
    } else if share >= 0.6 {
        Some(Growth::Quadratic)
    } else {
        None
    }
}

/// The x² term's share of the rise ([`classify_growth`]), from the normal
/// equations of the fit, solved by Gaussian elimination.
pub fn quadratic_share(xs: &[usize], ys: &[f64]) -> Option<f64> {
    let (x0, x1) = (*xs.first()? as f64, *xs.last()? as f64);
    let rise = ys.last()? - ys.first()?;
    if xs.len() != ys.len() || xs.len() < 3 || x1 <= x0 || rise <= 0.0 {
        return None;
    }
    // Row i: Σ x^(i+j) for j = 0, 1, 2, then Σ y·x^i.
    let mut m = [[0.0f64; 4]; 3];
    for (&x, &y) in xs.iter().zip(ys) {
        let x = x as f64;
        for (i, row) in m.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().take(3).enumerate() {
                *cell += x.powi((i + j) as i32);
            }
            row[3] += y * x.powi(i as i32);
        }
    }
    for i in 0..3 {
        let pivot = (i..3).max_by(|&a, &b| m[a][i].abs().total_cmp(&m[b][i].abs()))?;
        m.swap(i, pivot);
        if m[i][i].abs() < 1e-12 {
            return None;
        }
        for r in (0..3).filter(|&r| r != i) {
            let f = m[r][i] / m[i][i];
            let row = m[i];
            m[r].iter_mut().zip(row).for_each(|(c, p)| *c -= f * p);
        }
    }
    let c = m[2][3] / m[2][2];
    Some(c * (x1 * x1 - x0 * x0) / rise)
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

/// Pretty-print a median time with the least and the greatest of its
/// runs, all in the median's unit: `27.9 (14.8–29.0) ms`.
pub fn fmt_spread(median: f64, (least, greatest): (f64, f64)) -> String {
    let (scale, digits, unit) = if median >= 1.0 { (1.0, 2, "s") } else { (1e3, 1, "ms") };
    let [m, lo, hi] = [median, least, greatest].map(|s| s * scale);
    format!("{m:.digits$} ({lo:.digits$}–{hi:.digits$}) {unit}")
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
        assert_eq!(classify_growth(&xs[..2], &quad[..2]), None);
        assert_eq!(classify_growth(&xs, &[0.0, 0.0, 0.0, 0.0]), None);
        assert_eq!(classify_growth(&xs, &[4.0, 3.0, 2.0, 1.0]), None);
    }

    /// Synthetic curves over 1..=8 sites: a line with a large intercept is
    /// linear (its exponent would be near 0, but so is a quadratic's
    /// beside a large enough intercept); a pure k² is quadratic, and stays
    /// so under a fixed part 5× its k = 1 value, which took the exponent
    /// below 1.6; k^1.5 is neither; and the v14 curves of Figs. 2–4 (kB)
    /// classify as their claims say, with the shares their fits give.
    #[test]
    fn the_quadratic_share_tells_k_squared_from_k() {
        let k: Vec<usize> = (1..=8).collect();
        let curve = |f: fn(f64) -> f64| k.iter().map(|&x| f(x as f64)).collect::<Vec<_>>();
        let share = |ys: &[f64]| quadratic_share(&k, ys).unwrap();
        assert!(share(&curve(|x| 1e6 + 3.0 * x)).abs() < 1e-6);
        assert_eq!(classify_growth(&k, &curve(|x| 1e6 + 3.0 * x)), Some(Growth::Linear));
        assert!((share(&curve(|x| x * x)) - 1.0).abs() < 1e-9);
        assert_eq!(classify_growth(&k, &curve(|x| x * x)), Some(Growth::Quadratic));
        assert_eq!(classify_growth(&k, &curve(|x| 5.0 + x * x)), Some(Growth::Quadratic));
        assert_eq!(classify_growth(&k, &curve(|x| x.powf(1.5))), None);
        let v14 = [
            (vec![12.134, 32.372, 59.914, 94.26, 135.81, 188.164, 245.422, 310.084], 0.80, Growth::Quadratic),
            (vec![10.9, 22.1, 33.0, 44.0, 54.9, 65.8, 76.9, 87.8], -0.005, Growth::Linear),
            (vec![18.3, 57.8, 117.4, 196.6, 295.7, 418.5, 559.0, 719.7], 0.92, Growth::Quadratic),
            (vec![18.5, 37.6, 56.7, 75.8, 95.1, 114.3, 133.7, 153.3], 0.02, Growth::Linear),
            (vec![15.2, 30.6, 45.9, 61.2, 76.5, 91.7, 107.0, 122.4], -0.002, Growth::Linear),
        ];
        for (ys, want, growth) in v14 {
            assert!((share(&ys) - want).abs() < 0.005, "{ys:?}: share {}", share(&ys));
            assert_eq!(classify_growth(&k, &ys), Some(growth), "{ys:?}");
        }
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(500), "500 B");
        assert_eq!(fmt_bytes(25_000), "25.0 kB");
        assert_eq!(fmt_bytes(12_000_000), "12.0 MB");
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(0.0123), "12.3 ms");
        assert_eq!(fmt_spread(0.0279, (0.0148, 0.029)), "27.9 (14.8–29.0) ms");
        assert_eq!(fmt_spread(1.5, (1.25, 2.0)), "1.50 (1.25–2.00) s");
    }
}
