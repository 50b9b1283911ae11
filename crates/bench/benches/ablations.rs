//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **serialization** — codec encode/decode of a shipped base structure
//!   (the per-round fixed cost of exact byte accounting);
//! * **local GMDJ evaluation** — the single-site evaluator on its own,
//!   isolating site compute from distribution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use skalla_bench::workloads::*;
use skalla_gmdj::eval::{eval_local, EvalOptions};
use skalla_relation::codec::{decode_relation, encode_relation};

fn bench_codec(c: &mut Criterion) {
    let parts = tpcr_partitions(BenchScale::quick());
    let base = parts[0]
        .relation
        .project_distinct(&["cust_key"])
        .expect("projects");
    let bytes = encode_relation(&base);
    let mut g = c.benchmark_group("ablation_codec");
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.bench_with_input(BenchmarkId::new("encode", base.len()), &base, |b, rel| {
        b.iter(|| encode_relation(rel));
    });
    g.bench_with_input(BenchmarkId::new("decode", base.len()), &bytes, |b, bytes| {
        b.iter(|| decode_relation(bytes).expect("round-trips"));
    });
    g.finish();
}

fn bench_local_gmdj(c: &mut Criterion) {
    let parts = tpcr_partitions(BenchScale::quick());
    let detail = &parts[0].relation;
    let base = detail.project_distinct(&["cust_group"]).expect("projects");
    let op = coalescing_query(Cardinality::Low).ops[0].clone();
    let mut g = c.benchmark_group("ablation_local_gmdj");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("eval_local", |b| {
        b.iter(|| eval_local(&base, detail, &op, EvalOptions::default()).expect("evaluates"));
    });
    g.finish();
}

criterion_group!(benches, bench_codec, bench_local_gmdj);
criterion_main!(benches);
