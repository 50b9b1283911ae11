//! **e2e — the end-to-end + per-layer performance ledger.**
//!
//! ```text
//! e2e run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! e2e compare A… -- B…
//! ```
//!
//! `run` builds a workload's data from the seed, stands the engine up in
//! this process, drives it through the public API in a closed loop, checks
//! every answer, walks the layers, and prints every metric by name with its
//! unit; the last line of its standard output is one JSON object for the
//! benchmark driver. `--trace 0` (the driver's end-to-end runs) skips the
//! layer pass and puts the end-to-end metrics on that line.
//! Without `--workload` it runs all four, each in a fresh process (so that
//! peak memory is per workload). See `README.md` in this directory.

mod compare;
mod engine;
mod layers;
mod metrics;
mod netprobe;
mod report;
mod run;
mod stats;
mod sys;
mod verify;
mod workloads;

use run::RunOpts;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 2002;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Where result files go when `--out` is not given: inside the checkout,
/// ignored by git.
const DEFAULT_OUT: &str = ".bench_out";

const USAGE: &str = "usage:
  e2e run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
  e2e compare A... -- B...
workloads: scan_heavy group_heavy dashboard_mix skewed_star (default: all, one process each)
--trace 1 (the default) runs the layer pass after the timed phase, writes
          <out>/<workload>.spans.json and ends with the per-layer metrics;
--trace 0 skips the pass and ends with the end-to-end metrics
--smoke   tiny data and counts: checks the flow and the answers, not the speed";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: true,
        smoke: false,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--smoke" => parsed.smoke = true,
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--out" => parsed.out = PathBuf::from(value()?),
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(bad(v));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                parsed.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn write(path: &std::path::Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Run one workload in this process. `Ok(false)`: it ran, and failed ops.
fn run_one(args: &RunArgs, workload: &str) -> Result<bool, String> {
    let opts = RunOpts {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.smoke { 0.0 } else { DEFAULT_SECONDS }),
        trace: args.trace,
        smoke: args.smoke,
    };
    let report = run::run_workload(&opts)?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    write(
        &args.out.join(format!("{workload}.result.json")),
        &report::result_file(&report).to_json(),
    )?;
    if let Some(spans) = &report.spans {
        write(
            &args.out.join(format!("{workload}.spans.json")),
            &spans.to_json(),
        )?;
    }
    print!("{}", report::render(&report));
    println!("{}", report::contract_line(&report));
    Ok(report.correct())
}

/// Run every workload, each in a fresh process of this same binary.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut all_correct = true;
    for workload in workloads::NAMES {
        let status = Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", workload])
            .status()
            .map_err(|e| format!("starting the {workload} run: {e}"))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            let parsed = parse_run(rest)?;
            match &parsed.workload {
                Some(workload) => run_one(&parsed, workload),
                None => run_all(rest),
            }
        }
        Some((cmd, rest)) if cmd == "compare" => {
            let mut sides = rest.splitn(2, |a| a == "--");
            match (sides.next(), sides.next()) {
                (Some(a), Some(b)) if !a.is_empty() && !b.is_empty() => compare::compare(a, b),
                _ => Err("compare needs two sets of result files: A... -- B...".into()),
            }
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_obs::json::{self, Json};

    fn smoke(workload: &str, trace: bool) -> run::Report {
        run::run_workload(&RunOpts {
            workload: workload.into(),
            seed: 2002,
            seconds: 0.0,
            trace,
            smoke: true,
        })
        .unwrap()
    }

    fn name_is_well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `BENCHMARK.json` and the registry list the same metrics with the
    /// same units, directions and bounds, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<Json> { doc.get(key).unwrap().as_arr().unwrap().to_vec() };
        for (key, defs) in [
            ("end_to_end", metrics::END_TO_END),
            ("per_layer", metrics::PER_LAYER),
        ] {
            let entries = listed(key);
            assert_eq!(entries.len(), defs.len(), "{key}");
            for (entry, def) in entries.iter().zip(defs) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert!(name_is_well_formed(def.name), "{}", def.name);
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                let better = if def.lower_is_better {
                    "lower"
                } else {
                    "higher"
                };
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(better),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("bound").and_then(|b| b.as_f64()),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let names: Vec<Json> = listed("workloads");
        let names: Vec<&str> = names
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
    }

    /// The package's own manifest cannot inherit the repository's release
    /// profile (it is a workspace of its own), so it repeats it; the
    /// benchmark must measure the engine as the repository builds it.
    #[test]
    fn release_profile_is_the_repositorys() {
        let release_profile = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let own = release_profile(include_str!("Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(
            own,
            release_profile(include_str!("../../../../../Cargo.toml"))
        );
    }

    /// Every workload passes the correctness gate at smoke scale, prints
    /// exactly the registry's metrics, and its layer walk reproduces
    /// `Skalla::execute` (a mismatch would be among the failures).
    #[test]
    fn every_workload_is_correct_at_smoke_scale_and_reports_every_metric() {
        for workload in workloads::NAMES {
            let report = smoke(workload, true);
            assert_eq!(report.failures, Vec::<String>::new(), "{workload}");
            assert!(report.attempted >= 8, "{workload}");
            for (defs, ledger) in [
                (metrics::END_TO_END, &report.end_to_end),
                (metrics::PER_LAYER, &report.per_layer),
            ] {
                let printed: Vec<&str> = ledger.0.iter().map(|m| m.name).collect();
                for def in defs {
                    assert_eq!(
                        printed.iter().filter(|n| **n == def.name).count(),
                        1,
                        "{workload}: {}",
                        def.name
                    );
                }
                assert_eq!(printed.len(), defs.len(), "{workload}");
            }
            // Both outputs parse, and the driver's line has exactly its keys.
            let file = json::parse(&report::result_file(&report).to_json()).unwrap();
            assert_eq!(file.get("workload").unwrap().as_str(), Some(workload));
            let line = json::parse(&report::contract_line(&report)).unwrap();
            let Json::Obj(fields) = &line else {
                panic!("not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(listed)) = line.get("metrics") else {
                panic!("no metrics")
            };
            assert_eq!(listed.len(), metrics::PER_LAYER.len());
            assert!(listed
                .iter()
                .all(|(_, m)| m.get("value").unwrap().as_f64().is_some()));
            let spans = report
                .spans
                .as_ref()
                .unwrap()
                .get("spans")
                .unwrap()
                .as_arr()
                .unwrap();
            assert!(spans
                .iter()
                .any(|s| s.get("name").unwrap().as_str() == Some("site.execute_stage")));
            // The balancer has work on exactly one workload.
            let eligible = report.per_layer.get("skew.eligible").unwrap();
            assert_eq!(
                eligible,
                if workload == "skewed_star" { 1.0 } else { 0.0 },
                "{workload}"
            );
        }
    }

    /// Same seed, same bytes, rounds and messages, run after run.
    #[test]
    fn counts_repeat_exactly_for_a_seed() {
        for workload in workloads::NAMES {
            let (a, b) = (smoke(workload, false), smoke(workload, false));
            for name in ["bytes_per_op", "rounds_per_op"] {
                assert_eq!(
                    a.end_to_end.get(name),
                    b.end_to_end.get(name),
                    "{workload} {name}"
                );
            }
            for name in ["net.bytes_down", "net.bytes_up", "net.msgs"] {
                assert_eq!(
                    a.per_layer.get(name),
                    b.per_layer.get(name),
                    "{workload} {name}"
                );
            }
        }
    }

    #[test]
    fn run_arguments_parse_as_the_driver_sends_them() {
        let args: Vec<String> = "--workload scan_heavy --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let parsed = parse_run(&args).unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("scan_heavy"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (7, Some(10.0), true)
        );
        assert!(parse_run(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_run(&["--seed".into()]).is_err());
        assert!(parse_run(&["--bogus".into()]).is_err());
    }
}
