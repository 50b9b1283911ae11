//! **The paper's evaluation** (Sect. 5, Figs. 2–5), one table entry per
//! figure: each runs its query under its optimization variants along its
//! x axis, prints the series the figure plots and, with `--check`,
//! asserts the curve shapes the paper reports.
//!
//! ```text
//! figs [--quick] [--check] [--repeats N] [fig2|fig3|fig4|fig5 …]
//! ```
//!
//! With no figure named, all four run. `--quick` uses smaller data.
//! Every point runs on in-process sites whose links are shaped to the
//! paper's LAN ([`skalla_net::Link::lan`]); each of its times is the
//! median of `--repeats` runs (default 3) of measured time — traffic is
//! deterministic, time is not.

use skalla_bench::harness::*;
use skalla_bench::workloads::*;
use skalla_core::{OptFlags, Skalla};
use skalla_gmdj::GmdjExpr;

/// Sites of the scale-up experiment (Fig. 5).
const SCALE_SITES: usize = 4;

/// What a figure's x axis varies.
#[derive(Clone, Copy)]
enum Axis {
    /// Participating sites 1..=8 of the 8-way partitioned data set: data
    /// per site stays constant, total data and groups grow (speed-up).
    Sites,
    /// Data per site ×1..×4 at [`SCALE_SITES`] sites (scale-up), the
    /// group count growing with it or held constant.
    Scale { grow_groups: bool },
}

impl Axis {
    fn name(self) -> &'static str {
        match self {
            Axis::Sites => "sites",
            Axis::Scale { .. } => "scale",
        }
    }

    /// Each x with the engine measured at it, built as it is reached.
    fn points(self, scale: BenchScale) -> Box<dyn Iterator<Item = (usize, Skalla)>> {
        match self {
            Axis::Sites => {
                let parts = tpcr_partitions(scale);
                Box::new((1..=N_SITES).map(move |k| (k, lan_engine(&parts, k))))
            }
            Axis::Scale { grow_groups } => Box::new((1..=4).map(move |f| {
                let parts = tpcr_partitions(scale.scaled(f, grow_groups));
                (f, lan_engine(&parts, SCALE_SITES))
            })),
        }
    }
}

/// One plot of a figure: a grouping cardinality along an axis.
#[derive(Clone, Copy)]
struct Panel {
    /// Prefix of the panel's table titles.
    title: &'static str,
    card: Cardinality,
    axis: Axis,
}

/// A table a figure prints per panel: one metric across its series, or
/// the last series' wall time split into site compute, coordinator and
/// communication (Fig. 5 right).
#[derive(Clone, Copy)]
enum Table {
    Metric(&'static str, fn(&Measurement) -> String),
    Breakdown,
}

const TIME: Table = Table::Metric(
    "query evaluation time (measured wall, emulated LAN)",
    |m| fmt_secs(m.wall_s),
);
const BYTES: Table = Table::Metric("data transferred", |m| fmt_bytes(m.bytes));
const BYTES_ROUNDS: Table = Table::Metric("data transferred / rounds", |m| {
    format!("{} ({} rounds)", fmt_bytes(m.bytes), m.rounds)
});
const ROWS: Table = Table::Metric("rows down/up", |m| format!("{}/{}", m.rows.0, m.rows.1));

impl Table {
    fn print(self, panel: &Panel, series: &[Series]) {
        let (title, x) = (panel.title, panel.axis.name());
        match self {
            Table::Metric(name, cell) => {
                print_metric_table(&format!("{title}{name}"), x, series, cell)
            }
            Table::Breakdown => {
                println!("\n### {title}optimized-query breakdown (Fig. 5 right)");
                println!("| {x} | site compute | coordinator | communication | total |");
                println!("|------:|-------------:|------------:|--------------:|------:|");
                for (f, m) in &series[series.len() - 1].points {
                    println!(
                        "| {f:>5} | {:>12} | {:>11} | {:>13} | {:>5} |",
                        fmt_secs(m.site_s),
                        fmt_secs(m.coord_s),
                        fmt_secs(m.wall_s - m.site_s - m.coord_s),
                        fmt_secs(m.wall_s)
                    );
                }
            }
        }
    }
}

/// A series' legend label and the planner flags it runs under.
type Variant = (&'static str, fn() -> OptFlags);

/// One paper figure.
struct Figure {
    name: &'static str,
    header: &'static str,
    panels: &'static [Panel],
    query: fn(Cardinality) -> GmdjExpr,
    /// One series each, unoptimized first.
    variants: &'static [Variant],
    tables: &'static [Table],
    /// The paper's shape claims for one panel's series.
    check: fn(&Panel, &[Series]) -> Claims,
    /// Printed after the shape checks, from every panel's series.
    footer: Option<fn(&[Vec<Series>])>,
}

impl Figure {
    /// The shape claims every panel's series break.
    fn failures(&self, measured: &[Vec<Series>]) -> Vec<String> {
        (self.panels.iter().zip(measured))
            .flat_map(|(panel, series)| (self.check)(panel, series))
            .filter_map(Result::err)
            .collect()
    }
}

const HIGH: Panel = Panel {
    title: "High cardinality: ",
    card: Cardinality::High,
    axis: Axis::Sites,
};

const LOW: Panel = Panel {
    title: "Low cardinality: ",
    card: Cardinality::Low,
    ..HIGH
};

const FIGURES: &[Figure] = &[
    Figure {
        name: "fig2",
        header:
            "# Figure 2: group reduction query (high cardinality, partition-attribute grouping)",
        panels: &[Panel { title: "", ..HIGH }],
        query: group_reduction_query,
        variants: &[
            ("no reduction", OptFlags::none),
            ("site GR (dist-indep)", site_group_reduction),
            ("site+coord GR", OptFlags::group_reduction_only),
        ],
        tables: &[TIME, BYTES, ROWS],
        check: check_fig2,
        footer: Some(print_formula),
    },
    Figure {
        name: "fig3",
        header: "# Figure 3: coalescing query",
        panels: &[HIGH, LOW],
        query: coalescing_query,
        variants: &[
            ("non-coalesced", OptFlags::none),
            ("coalesced", coalesce_and_fold),
        ],
        tables: &[TIME, BYTES_ROUNDS],
        check: check_fig3,
        footer: None,
    },
    Figure {
        name: "fig4",
        header: "# Figure 4: synchronization reduction query",
        panels: &[HIGH, LOW],
        query: group_reduction_query,
        variants: &[
            ("no sync reduction", OptFlags::none),
            ("sync reduction", OptFlags::sync_reduction_only),
        ],
        tables: &[TIME, BYTES_ROUNDS],
        check: check_fig4,
        footer: None,
    },
    Figure {
        name: "fig5",
        header: "# Figure 5: combined reductions query (scale-up, 4 sites)",
        panels: &[
            Panel {
                title: "groups grow with data: ",
                axis: Axis::Scale { grow_groups: true },
                ..HIGH
            },
            Panel {
                title: "constant groups: ",
                axis: Axis::Scale { grow_groups: false },
                ..HIGH
            },
        ],
        query: group_reduction_query,
        variants: &[
            ("no optimizations", OptFlags::none),
            ("all optimizations", OptFlags::all),
        ],
        tables: &[TIME, BYTES, Table::Breakdown],
        check: check_fig5,
        footer: None,
    },
];

/// Distribution-independent group reduction alone (Prop 1).
fn site_group_reduction() -> OptFlags {
    OptFlags {
        group_reduction_site: true,
        ..OptFlags::none()
    }
}

/// Coalescing plus the Prop 2 base fold: the single round the paper
/// describes for the coalesced query.
fn coalesce_and_fold() -> OptFlags {
    OptFlags {
        sync_reduction: true,
        ..OptFlags::coalesce_only()
    }
}

/// One entry per shape claim: `Err` with a message when the
/// measurements break it.
type Claims = Vec<Result<(), String>>;

fn claim(holds: bool, msg: impl Into<String>) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(msg.into())
    }
}

fn bytes(m: &Measurement) -> f64 {
    m.bytes as f64
}

fn single_round(s: &Series) -> bool {
    s.points.iter().all(|(_, m)| m.rounds == 1)
}

/// `a` ships fewer bytes than `b` at every x.
fn cheaper(a: &Series, b: &Series) -> bool {
    a.points
        .iter()
        .zip(&b.points)
        .all(|((_, a), (_, b))| a.bytes < b.bytes)
}

/// Fig. 2: unreduced traffic quadratic, site+coordinator GR linear.
/// Site-side GR "solves half of the inefficiency": its uplink becomes
/// linear while its downlink stays quadratic, and it lands strictly
/// between the other two at 8 sites. Sect. 5.2's formula holds within 5%.
fn check_fig2(_: &Panel, s: &[Series]) -> Claims {
    let (none, site, both) = (&s[0], &s[1], &s[2]);
    let at_8 = |s: &Series| s.points[s.points.len() - 1].1.bytes;
    let (b0, b1, b2) = (at_8(none), at_8(site), at_8(both));
    let mut claims = vec![
        none.growth(&none.label, bytes, Growth::Quadratic),
        both.growth(&both.label, bytes, Growth::Linear),
        site.growth(
            "site GR downlink rows",
            |m| m.rows.0 as f64,
            Growth::Quadratic,
        ),
        site.growth("site GR uplink rows", |m| m.rows.1 as f64, Growth::Linear),
        claim(
            b2 < b1 && b1 < b0,
            format!("expected ordering coord<site<none: {b2} {b1} {b0}"),
        ),
    ];
    for (n, _, _, err) in formula(s) {
        claims.push(claim(
            err < 0.05,
            format!("formula off by more than 5% at n={n}"),
        ));
    }
    claims
}

/// Sect. 5.2's traffic analysis at n = 2, 4, 8 sites: the rows shipped
/// with site-side group reduction over the rows shipped without,
/// predicted as (2c+2n+1)/(4n+1) with c = 1. Yields `(n, predicted,
/// measured, relative error)`.
fn formula(s: &[Series]) -> Vec<(usize, f64, f64, f64)> {
    let rows = |s: &Series, n: usize| {
        let (_, m) = &s.points[n - 1];
        (m.rows.0 + m.rows.1) as f64
    };
    [2usize, 4, 8]
        .into_iter()
        .map(|n| {
            let predicted = (2.0 + 2.0 * n as f64 + 1.0) / (4.0 * n as f64 + 1.0);
            let measured = rows(&s[1], n) / rows(&s[0], n);
            (
                n,
                predicted,
                measured,
                (measured - predicted).abs() / predicted,
            )
        })
        .collect()
}

fn print_formula(panels: &[Vec<Series>]) {
    println!("\n### Sect. 5.2 formula check: (2c+2n+1)/(4n+1), c = 1");
    println!("| n | predicted | measured | error |");
    println!("|---|-----------|----------|-------|");
    let rows = formula(&panels[0]);
    for (n, predicted, measured, err) in &rows {
        let pct = err * 100.0;
        println!("| {n} | {predicted:.4} | {measured:.4} | {pct:.2}% |");
    }
    if rows.iter().all(|(_, _, _, err)| *err < 0.05) {
        println!("formula matches within 5% ✓");
    }
}

/// Fig. 3: at high cardinality non-coalesced traffic is quadratic and
/// coalesced linear; at low cardinality (where the paper reports a ~30%
/// time win) coalesced is simply cheaper everywhere. Coalesced is one
/// round. The non-coalesced quadratic claim is made twice: on rows
/// shipped, as Sect. 5.2 counts, and on bytes.
fn check_fig3(panel: &Panel, s: &[Series]) -> Claims {
    let (plain, coalesced) = (&s[0], &s[1]);
    let mut claims = vec![claim(
        single_round(coalesced),
        "coalesced plan should be a single round",
    )];
    match panel.card {
        Cardinality::High => claims.extend([
            plain.growth("non-coalesced (high)", bytes, Growth::Quadratic),
            plain.growth(
                "non-coalesced (high) rows",
                |m| (m.rows.0 + m.rows.1) as f64,
                Growth::Quadratic,
            ),
            coalesced.growth("coalesced (high)", bytes, Growth::Linear),
        ]),
        Cardinality::Low => claims.push(claim(
            cheaper(coalesced, plain),
            "coalesced not cheaper at low cardinality",
        )),
    }
    claims
}

/// Fig. 4: at high cardinality traffic without sync reduction is
/// quadratic and with it linear; the reduced plan is one round and
/// cheaper at both cardinalities.
fn check_fig4(panel: &Panel, s: &[Series]) -> Claims {
    let (plain, reduced) = (&s[0], &s[1]);
    let card = panel.card;
    let mut claims = vec![
        claim(
            single_round(reduced),
            format!("{card:?}: reduced plan should be single-round"),
        ),
        claim(
            cheaper(reduced, plain),
            format!("{card:?}: reduction did not cut traffic"),
        ),
    ];
    if card == Cardinality::High {
        claims.push(plain.growth("no sync reduction (high)", bytes, Growth::Quadratic));
        claims.push(reduced.growth("sync reduction (high)", bytes, Growth::Linear));
    }
    claims
}

/// Fig. 5: the optimizations cut evaluation time well below the
/// unoptimized plan's at every scale (paper: "nearly half"); optimized
/// site compute grows with the data; optimized traffic grows linearly
/// with the groups, or stays flat when they are constant (Thm 2).
fn check_fig5(panel: &Panel, s: &[Series]) -> Claims {
    let (none, all) = (&s[0], &s[1]);
    let regime = panel.title;
    let mut claims: Claims = (none.ys(|m| m.wall_s).into_iter())
        .zip(all.ys(|m| m.wall_s))
        .map(|(n, a)| {
            claim(
                a < 0.8 * n,
                format!("{regime}optimized {a:.3}s not well below {n:.3}s"),
            )
        })
        .collect();
    // Wall-clock compute is noisy at small scales: bound the 1→4 ratio
    // loosely instead of fitting an exponent.
    let site = all.ys(|m| m.site_s);
    let ratio = site[site.len() - 1] / site[0].max(1e-9);
    claims.push(claim(
        (1.5..=16.0).contains(&ratio),
        format!("{regime}site compute 1→4 ratio {ratio:.2} outside [1.5, 16]"),
    ));
    claims.push(match panel.axis {
        Axis::Scale { grow_groups: true } => {
            all.growth(&format!("{regime}bytes"), bytes, Growth::Linear)
        }
        _ => {
            let b = all.ys(bytes);
            let (b1, b4) = (b[0], b[b.len() - 1]);
            claim(
                b4 <= 1.25 * b1,
                format!("{regime}traffic should stay ~constant ({b1} → {b4})"),
            )
        }
    });
    claims
}

/// Every panel's series of one figure: per x, the median run of each
/// variant on that x's cluster.
fn measure(fig: &Figure, scale: BenchScale, repeats: usize) -> Vec<Vec<Series>> {
    let measure_panel = |panel: &Panel| {
        let expr = (fig.query)(panel.card);
        let mut series: Vec<Series> = (fig.variants.iter())
            .map(|(label, _)| Series {
                label: label.to_string(),
                points: Vec::new(),
            })
            .collect();
        for (x, engine) in panel.axis.points(scale) {
            for ((_, flags), s) in fig.variants.iter().zip(&mut series) {
                let m = run_median(&engine, &expr, flags(), repeats);
                s.points.push((x, m));
            }
        }
        series
    };
    fig.panels.iter().map(measure_panel).collect()
}

/// Print one figure and return the shape claims it breaks (none
/// checked without `check`).
fn run(fig: &Figure, scale: BenchScale, repeats: usize, check: bool) -> Vec<String> {
    let base = match fig.panels[0].axis {
        Axis::Sites => "",
        Axis::Scale { .. } => "base ",
    };
    println!("{}", fig.header);
    println!(
        "# {base}rows/site = {}, {base}customers = {}, repeats = {repeats}",
        scale.rows_per_site, scale.customers
    );
    let measured = measure(fig, scale, repeats);
    for (panel, series) in fig.panels.iter().zip(&measured) {
        for table in fig.tables {
            table.print(panel, series);
        }
    }
    let failures = if check {
        fig.failures(&measured)
    } else {
        Vec::new()
    };
    if check && failures.is_empty() {
        println!("\nshape checks passed ✓");
    }
    if let Some(footer) = fig.footer {
        footer(&measured);
    }
    failures
}

fn usage(err: &str) -> ! {
    eprintln!("{err}\nusage: figs [--quick] [--check] [--repeats N] [fig2|fig3|fig4|fig5 ...]");
    std::process::exit(2)
}

fn main() {
    let (mut scale, mut check, mut repeats) = (BenchScale::default_scale(), false, 3);
    let mut chosen: Vec<&Figure> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = BenchScale::quick(),
            "--check" => check = true,
            "--repeats" => {
                repeats = (args.next().and_then(|v| v.parse().ok()))
                    .unwrap_or_else(|| usage("--repeats takes a count"))
            }
            name => match FIGURES.iter().find(|f| f.name == name) {
                Some(fig) => chosen.push(fig),
                None => usage(&format!("unknown argument {name:?}")),
            },
        }
    }
    if chosen.is_empty() {
        chosen = FIGURES.iter().collect();
    }
    for (i, fig) in chosen.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        let failures = run(fig, scale, repeats, check);
        if !failures.is_empty() {
            eprintln!(
                "{}: shape checks failed:\n{}",
                fig.name,
                failures.join("\n")
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The negative control of every figure's checks: with its variants
    /// swapped, the unoptimized series sits where the reduced one should,
    /// and the check must say so.
    #[test]
    fn every_check_rejects_swapped_variants() {
        let tiny = BenchScale {
            rows_per_site: 300,
            customers: 256,
            seed: 5,
        };
        for fig in FIGURES {
            let mut measured = measure(fig, tiny, 1);
            for series in &mut measured {
                series.reverse();
            }
            let failures = fig.failures(&measured);
            assert!(
                !failures.is_empty(),
                "{} accepted swapped variants",
                fig.name
            );
        }
    }
}
