//! `e2e compare A… -- B…`: two sets of result files, one row per
//! (end-to-end metric, workload), a verdict per row.

use crate::metrics::{self, MetricDef};
use crate::stats::{median, quartiles};
use crate::workloads;
use skalla_obs::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// B's median is worse than A's by more than the metric's bound.
    Regressed,
    /// The runs spread wider than the bound and the two sides overlap, so
    /// "no regression" cannot be told from "regression".
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median, and the interquartile range as a share of the median (0 below
/// two runs).
fn centre_and_spread(xs: &[f64]) -> (f64, f64, Option<(f64, f64)>) {
    let med = median(xs).unwrap_or(f64::NAN);
    let q = quartiles(xs);
    let spread = q.map_or(0.0, |(q1, q3)| {
        if med == 0.0 {
            0.0
        } else {
            ((q3 - q1) / med).abs()
        }
    });
    (med, spread, q)
}

/// Judge B against A for one metric on one workload.
pub fn judge(def: &MetricDef, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (med_a, spread_a, _) = centre_and_spread(a);
    let (med_b, spread_b, _) = centre_and_spread(b);
    // Positive = B is worse, as a share of A's median.
    let sign = if def.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if med_a == 0.0 {
        sign * (med_b - med_a)
    } else {
        sign * (med_b - med_a) / med_a.abs()
    };
    let better = |x: f64, y: f64| if def.lower_is_better { x < y } else { x > y };
    let b_always_better = b.iter().all(|x| a.iter().all(|y| better(*x, *y)));
    if worse_by > bound {
        Verdict::Regressed
    } else if b_always_better {
        Verdict::Improved
    } else if spread_a.max(spread_b) > bound && bound > 0.0 {
        Verdict::Unresolved
    } else if -worse_by > bound && bound > 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One side of a comparison: per workload, one value per run of every
/// end-to-end metric, and the settings the runs were made with.
#[derive(Debug, Default)]
struct Side {
    /// workload → metric → one value per run.
    runs: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload → the seed of each run, sorted.
    seeds: BTreeMap<String, Vec<u64>>,
    /// `smoke` and `requested_seconds` of each file, as text.
    settings: BTreeSet<String>,
}

/// A directory stands for the `*.result.json` files in it.
fn expand(arg: &str) -> Result<Vec<PathBuf>, String> {
    let path = Path::new(arg);
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{arg}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with(".result.json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{arg}: no *.result.json files"));
    }
    Ok(files)
}

/// Add one result file to a side.
fn add_run(side: &mut Side, name: &str, doc: &Json) -> Result<(), String> {
    if doc.get("bench").and_then(|b| b.as_str()) != Some("e2e") {
        return Err(format!("{name}: not an e2e result file"));
    }
    let workload = doc
        .get("workload")
        .and_then(|w| w.as_str())
        .filter(|w| workloads::NAMES.contains(w))
        .ok_or_else(|| format!("{name}: no known workload"))?;
    if doc.get("failed").and_then(|f| f.as_u64()) != Some(0) {
        return Err(format!(
            "{name}: the run had failed ops; its numbers mean nothing"
        ));
    }
    let provenance = |key: &str| {
        doc.get("provenance")
            .and_then(|p| p.get(key))
            .ok_or_else(|| format!("{name}: no {key} in its provenance"))
    };
    let seed = provenance("seed")?
        .as_u64()
        .ok_or_else(|| format!("{name}: seed is not a whole number"))?;
    side.settings.insert(format!(
        "smoke={} seconds={}",
        provenance("smoke")?.to_json(),
        provenance("requested_seconds")?.to_json()
    ));
    let seeds = side.seeds.entry(workload.to_string()).or_default();
    seeds.push(seed);
    seeds.sort_unstable();
    let per_metric = side.runs.entry(workload.to_string()).or_default();
    for def in metrics::END_TO_END {
        let value = doc
            .get("end_to_end")
            .and_then(|m| m.get(def.name))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{name}: no value for {}", def.name))?;
        per_metric
            .entry(def.name.to_string())
            .or_default()
            .push(value);
    }
    Ok(())
}

fn load(args: &[String]) -> Result<Side, String> {
    let mut side = Side::default();
    for arg in args {
        for file in expand(arg)? {
            let name = file.display().to_string();
            let text = std::fs::read_to_string(&file).map_err(|e| format!("{name}: {e}"))?;
            let doc = json::parse(&text).map_err(|e| format!("{name}: {e:?}"))?;
            add_run(&mut side, &name, &doc)?;
        }
    }
    Ok(side)
}

/// Two sides can be compared when they were measured the same way: one
/// scale and run length throughout, the same workloads on both sides, and
/// per workload the same seeds (counts such as `bytes_per_op` move with
/// the seed, and so does the data every timing is taken on).
fn comparable(a: &Side, b: &Side) -> Result<(), String> {
    let settings: BTreeSet<&String> = a.settings.union(&b.settings).collect();
    if settings.len() > 1 {
        return Err(format!("the result files were not run alike: {settings:?}"));
    }
    if a.runs.is_empty() {
        return Err("nothing to compare".into());
    }
    for (x, y, side) in [(a, b, "B"), (b, a, "A")] {
        if let Some(missing) = x.runs.keys().find(|w| !y.runs.contains_key(*w)) {
            return Err(format!("{missing} has no run on side {side}"));
        }
    }
    for (workload, seeds) in &a.seeds {
        if seeds != &b.seeds[workload] {
            return Err(format!(
                "{workload}: A ran seeds {seeds:?}, B ran {:?}",
                b.seeds[workload]
            ));
        }
    }
    Ok(())
}

fn quartile_text(xs: &[f64]) -> String {
    let (med, _, q) = centre_and_spread(xs);
    match q {
        Some((q1, q3)) => format!("{med:.4} [{q1:.4}, {q3:.4}]"),
        None => format!("{med:.4}"),
    }
}

/// Print the comparison; `Ok(true)` when nothing regressed. An error when
/// the two sides cannot be compared at all (see [`comparable`]).
pub fn compare(a_args: &[String], b_args: &[String]) -> Result<bool, String> {
    let (a, b) = (load(a_args)?, load(b_args)?);
    comparable(&a, &b)?;
    println!(
        "{:<14} {:<18} {:>5} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "runs", "A median [q1, q3]", "B median [q1, q3]", "B vs A"
    );
    let mut clean = true;
    for workload in workloads::NAMES {
        // On both sides or on neither (`comparable`).
        let (Some(ma), Some(mb)) = (a.runs.get(workload), b.runs.get(workload)) else {
            continue;
        };
        for def in metrics::END_TO_END {
            let (xa, xb) = (&ma[def.name], &mb[def.name]);
            let verdict = judge(def, metrics::bound_for(def, workload), xa, xb);
            clean &= verdict != Verdict::Regressed;
            let (med_a, med_b) = (
                median(xa).unwrap_or(f64::NAN),
                median(xb).unwrap_or(f64::NAN),
            );
            println!(
                "{:<14} {:<18} {:>2}/{:<2} {:>34} {:>34} {:>+7.2}%  {}",
                workload,
                def.name,
                xa.len(),
                xb.len(),
                quartile_text(xa),
                quartile_text(xb),
                (med_b - med_a) / med_a * 100.0,
                verdict.label()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        metrics::find(name).unwrap()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lat = def("latency_p50_ms");
        let tight_a = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(lat, 0.10, &tight_a, &[100.5, 99.5, 101.5]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(lat, 0.10, &tight_a, &[115.0, 114.0, 116.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(lat, 0.10, &tight_a, &[80.0, 81.0, 79.0]),
            Verdict::Improved
        );
        // Wide and overlapping: cannot tell.
        let wide = [100.0, 140.0, 70.0, 120.0];
        assert_eq!(
            judge(lat, 0.10, &wide, &[105.0, 135.0, 75.0, 118.0]),
            Verdict::Unresolved
        );
        // Wide, but every B run beats every A run.
        assert_eq!(
            judge(lat, 0.10, &wide, &[50.0, 60.0, 40.0]),
            Verdict::Improved
        );
        // Higher is better flips the direction.
        let thr = def("throughput_ops_s");
        assert_eq!(
            judge(thr, 0.10, &tight_a, &[80.0, 81.0, 79.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_counts_have_no_slack() {
        let bytes = def("bytes_per_op");
        assert_eq!(metrics::bound_for(bytes, "scan_heavy"), 0.0);
        assert_eq!(metrics::bound_for(bytes, "dashboard_mix"), 0.03);
        assert_eq!(
            judge(bytes, 0.0, &[11000.0; 3], &[11000.0; 3]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(bytes, 0.0, &[11000.0; 3], &[11001.0; 3]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(bytes, 0.0, &[11000.0; 3], &[10999.0; 3]),
            Verdict::Improved
        );
    }

    /// A result file as `run` writes it, cut down to what `compare` reads.
    fn result(workload: &str, seed: u64, smoke: bool, seconds: f64) -> Json {
        let values = metrics::END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    Json::obj(vec![("value", Json::Float(1.0))]),
                )
            })
            .collect();
        Json::obj(vec![
            ("bench", "e2e".into()),
            ("workload", workload.into()),
            ("failed", Json::UInt(0)),
            (
                "provenance",
                Json::obj(vec![
                    ("seed", Json::UInt(seed)),
                    ("smoke", Json::Bool(smoke)),
                    ("requested_seconds", Json::Float(seconds)),
                ]),
            ),
            ("end_to_end", Json::Obj(values)),
        ])
    }

    fn side(runs: &[Json]) -> Side {
        let mut side = Side::default();
        for doc in runs {
            add_run(&mut side, "test", doc).unwrap();
        }
        side
    }

    #[test]
    fn sides_measured_differently_are_refused() {
        let full = |w, seed| result(w, seed, false, 10.0);
        let a = side(&[full("scan_heavy", 1), full("scan_heavy", 2)]);
        // Same workloads, same seeds in another order: fine.
        let b = side(&[full("scan_heavy", 2), full("scan_heavy", 1)]);
        assert_eq!(comparable(&a, &b), Ok(()));
        let refused = |b: &Side| comparable(&a, b).unwrap_err();
        assert!(refused(&Side::default()).contains("scan_heavy has no run on side B"));
        let extra = side(&[
            full("scan_heavy", 1),
            full("scan_heavy", 2),
            full("group_heavy", 1),
        ]);
        assert!(refused(&extra).contains("group_heavy has no run on side A"));
        assert!(refused(&side(&[full("scan_heavy", 1), full("scan_heavy", 3)])).contains("seeds"));
        let smoke = side(&[
            result("scan_heavy", 1, true, 10.0),
            result("scan_heavy", 2, true, 10.0),
        ]);
        assert!(refused(&smoke).contains("not run alike"));
        let short = side(&[full("scan_heavy", 1), result("scan_heavy", 2, false, 5.0)]);
        assert!(refused(&short).contains("not run alike"));
        assert!(comparable(&Side::default(), &Side::default()).is_err());
    }

    #[test]
    fn failed_and_foreign_files_are_refused() {
        let mut failed = result("scan_heavy", 1, false, 10.0);
        if let Json::Obj(fields) = &mut failed {
            fields[2].1 = Json::UInt(3);
        }
        assert!(add_run(&mut Side::default(), "f", &failed).is_err());
        let unknown = result("no_such_workload", 1, false, 10.0);
        assert!(add_run(&mut Side::default(), "u", &unknown).is_err());
    }
}
