//! **Kernel ablation — serial vs morsel-parallel vs columnar.**
//!
//! Not a paper figure: this measures the *local* GMDJ kernel that every
//! site runs, isolating the PR-level optimizations from the distributed
//! machinery. Three configurations evaluate the same group-by GMDJ over
//! a synthetic detail relation (1M rows by default):
//!
//! * *serial* — one worker, one morsel, row kernel;
//! * *morsel* — morsel-driven worker pool (64K-row morsels, one worker
//!   per core), row kernel;
//! * *columnar* — the vectorized kernel: typed accumulator arrays over
//!   the columnar layout with canonical-key probing.
//!
//! The run also verifies the determinism contract: both kernels produce
//! **bit-identical** accumulators (f64 compared by bit pattern) at 1, 2
//! and 4 worker threads, and the columnar kernel's bits equal the row
//! kernel's.
//!
//! Results are written to `BENCH_kernel.json` (override with `--out`) so
//! later PRs have a perf trajectory to compare against. `--check`
//! additionally asserts the ≥1.5× columnar-over-serial speedup (a
//! single-thread property, so it holds on any runner) and — on
//! multi-core runners at full size only — a ≥1.2× parallel-over-serial
//! speedup. (`--quick` has two morsels, too few for the pool to pay for
//! its threads.)

use skalla_bench::harness::{arg_value, has_flag};
use skalla_gmdj::prelude::*;
use skalla_gmdj::{eval_local, EvalOptions};
use skalla_obs::json::Json;
use skalla_relation::{DataType, Row, Value};
use std::time::Instant;

/// Deterministic synthetic detail relation: `rows` tuples spread over
/// `groups` keys with a Double measure (no RNG dependency — multiplicative
/// hashing gives a scattered but reproducible distribution).
fn synthetic_detail(rows: usize, groups: usize) -> Relation {
    Relation::new(
        Schema::of(&[("g", DataType::Int), ("v", DataType::Double)]),
        (0..rows)
            .map(|i| {
                let g = (i.wrapping_mul(2_654_435_761) % groups) as i64;
                let v = ((i.wrapping_mul(1_103_515_245).wrapping_add(12_345)) % 1000)
                    as f64
                    / 3.0;
                Row::new(vec![g.into(), v.into()])
            })
            .collect(),
    )
    .unwrap()
}

fn base_of(groups: usize) -> Relation {
    Relation::new(
        Schema::of(&[("g", DataType::Int)]),
        (0..groups as i64).map(|g| Row::new(vec![g.into()])).collect(),
    )
    .unwrap()
}

fn operator() -> Gmdj {
    Gmdj::new("t").block(
        ThetaBuilder::group_by(&["g"]).build(),
        vec![
            AggSpec::count("cnt"),
            AggSpec::sum("v", "sm"),
            AggSpec::avg("v", "av"),
        ],
    )
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = has_flag(&args, "--quick");
    let rows: usize = if quick { 100_000 } else { 1_000_000 };
    let groups = 1024usize;
    let repeats: usize = arg_value(&args, "--repeats")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_kernel.json".into());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("# Kernel ablation: serial vs morsel vs columnar");
    println!("# rows = {rows}, groups = {groups}, repeats = {repeats}, cores = {cores}");

    let detail = synthetic_detail(rows, groups);
    let base = base_of(groups);
    let op = operator();

    let opts = |parallelism: usize, morsel_rows: usize, columnar: bool| EvalOptions {
        parallelism,
        morsel_rows,
        columnar,
        ..EvalOptions::default()
    };
    let configs = [
        ("serial", opts(1, 1 << 30, false)),
        ("morsel", opts(0, 65_536, false)),
        ("columnar", opts(0, 65_536, true)),
    ];

    let mut medians = Vec::new();
    let mut config_json = Vec::new();
    for (label, o) in &configs {
        let mut runs = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let t = Instant::now();
            let local = eval_local(&base, &detail, &op, *o).unwrap();
            let dt = t.elapsed().as_secs_f64();
            assert_eq!(local.physical.len(), groups);
            runs.push(dt);
        }
        let med = median(runs.clone());
        medians.push(med);
        println!("{label:>16}: median {med:.4}s over {repeats} runs");
        config_json.push(Json::obj(vec![
            ("label", Json::Str(label.to_string())),
            ("parallelism", Json::UInt(o.parallelism as u64)),
            ("morsel_rows", Json::UInt(o.morsel_rows as u64)),
            ("columnar", Json::Bool(o.columnar)),
            ("median_s", Json::Float(med)),
            (
                "runs_s",
                Json::Arr(runs.into_iter().map(Json::Float).collect()),
            ),
        ]));
    }

    // Determinism contract: both kernels are bit-identical across thread
    // counts (fixed morsel size ⇒ fixed merge structure), and the
    // columnar kernel's bits equal the row kernel's.
    let reference = eval_local(&base, &detail, &op, opts(1, 65_536, false))
        .unwrap()
        .physical;
    let mut identical = true;
    for columnar in [false, true] {
        for p in [1usize, 2, 4] {
            let got = eval_local(&base, &detail, &op, opts(p, 65_536, columnar))
                .unwrap()
                .physical;
            if !bit_identical(&got, &reference) {
                identical = false;
                eprintln!("BIT MISMATCH at parallelism {p}, columnar {columnar}");
            }
        }
    }
    assert!(identical, "kernel output depends on thread count or kernel");
    println!("bit-identical across 1/2/4 worker threads and both kernels ✓");

    let speedup_parallel = medians[0] / medians[1];
    let speedup_columnar = medians[0] / medians[2];
    println!("speedup morsel/serial:   {speedup_parallel:.2}x");
    println!("speedup columnar/serial: {speedup_columnar:.2}x");

    let report = Json::obj(vec![
        ("bench", Json::Str("fig_kernel".into())),
        ("rows", Json::UInt(rows as u64)),
        ("groups", Json::UInt(groups as u64)),
        ("repeats", Json::UInt(repeats as u64)),
        ("cores", Json::UInt(cores as u64)),
        ("configs", Json::Arr(config_json)),
        ("speedup_morsel_over_serial", Json::Float(speedup_parallel)),
        ("speedup_columnar_over_serial", Json::Float(speedup_columnar)),
        ("bit_identical_across_threads", Json::Bool(identical)),
    ]);
    std::fs::write(&out_path, report.to_json())
        .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");

    if has_flag(&args, "--check") {
        assert!(
            speedup_columnar >= 1.5,
            "expected >= 1.5x columnar-over-serial speedup, got {speedup_columnar:.2}x"
        );
        if cores >= 2 && !quick {
            assert!(
                speedup_parallel >= 1.2,
                "expected >= 1.2x parallel speedup on a multi-core runner \
                 ({cores} cores), got {speedup_parallel:.2}x"
            );
        }
        println!("speedup check passed ✓");
    }
}
