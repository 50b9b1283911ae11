//! The metric registry: every name the ledger prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names (a unit test keeps the
//! two in step); `compare` takes its regression bounds from here.

/// One metric the ledger reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Relative worsening that counts as a regression; `None` for
    /// per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: lower,
        bound: None,
    }
}

/// What a user of the warehouse sees, per workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", true, 0.25),
    e2e("cold_op_ms", "ms", true, 0.25),
    e2e("latency_p50_ms", "ms", true, 0.25),
    e2e("throughput_ops_s", "op/s", false, 0.25),
    e2e("cpu_ms_per_op", "ms", true, 0.25),
    e2e("bytes_per_op", "B", true, 0.03),
    e2e("rounds_per_op", "count", true, 0.02),
    e2e("peak_rss_mb", "MiB", true, 0.25),
];

/// `bytes_per_op` and `rounds_per_op` are exact counts wherever every op
/// is a cold execution of one plan, so `compare` allows them no slack
/// there. `BENCHMARK.json` has one bound per metric and the driver varies
/// the seed — which moves `skewed_star`'s loan traffic by up to 0.9% — hence
/// the slack above; `dashboard_mix` keeps it for cache-prefix races too.
pub fn bound_for(metric: &MetricDef, workload: &str) -> f64 {
    match metric.name {
        "bytes_per_op" | "rounds_per_op" if workload != "dashboard_mix" => 0.0,
        _ => metric.bound.unwrap_or(0.0),
    }
}

/// Single layers (layer = module), measured from outside.
pub const PER_LAYER: &[MetricDef] = &[
    layer("query.compile_us", "us", true),
    layer("plan.optimize_us", "us", true),
    layer("plan.rounds", "count", true),
    layer("plan.rewrites_fired", "count", false),
    layer("plan_codec.encode_us", "us", true),
    layer("plan_codec.decode_us", "us", true),
    layer("plan_codec.bytes", "B", true),
    layer("cache.fingerprint_us", "us", true),
    layer("cache.lookup_hit_us", "us", true),
    layer("cache.insert_us", "us", true),
    layer("cache.hit_share", "ratio", false),
    layer("cache.coalesced_share", "ratio", false),
    layer("cache.misses", "1/op", true),
    layer("cache.resident_bytes", "B", true),
    layer("scheduler.admit_us", "us", true),
    layer("scheduler.rejected", "count", true),
    layer("scheduler.timed_out", "count", true),
    layer("codec.encode_mb_s", "MB/s", false),
    layer("codec.decode_mb_s", "MB/s", false),
    layer("codec.down_bytes_per_row", "B/row", true),
    layer("codec.up_bytes_per_row", "B/row", true),
    layer("columns.build_ms", "ms", true),
    layer("columns.build_mrows_s", "Mrow/s", false),
    layer("kernel.eval_local_ms", "ms", true),
    layer("kernel.mrows_s", "Mrow/s", false),
    layer("kernel.cold_eval_local_ms", "ms", true),
    layer("site.busy_max_ms", "ms", true),
    layer("site.busy_mean_ms", "ms", true),
    layer("site.busy_skew", "ratio", true),
    layer("site.stage_ms_max", "ms", true),
    layer("site.base_fragment_ms", "ms", true),
    layer("coordinator.busy_ms", "ms", true),
    layer("coordinator.base_sync_ms", "ms", true),
    layer("coordinator.merge_ms", "ms", true),
    layer("net.bytes_down", "B/op", true),
    layer("net.bytes_up", "B/op", true),
    layer("net.msgs", "1/op", true),
    layer("net.rtt_us", "us", true),
    layer("net.bulk_mb_s", "MB/s", false),
    layer("skew.eligible", "count", false),
    layer("skew.hot_report_ms", "ms", true),
    layer("skew.plan_routing_us", "us", true),
    layer("skew.donors", "count", true),
    layer("skew.hot_keys", "count", true),
    layer("skew.split_detail_ms", "ms", true),
    layer("obs.traced_overhead_share", "ratio", true),
    layer("walk.total_ms", "ms", true),
    layer("walk.compute_share", "ratio", true),
    layer("walk.transfer_share", "ratio", true),
    layer("warehouse.latency_p95_ms", "ms", true),
    layer("warehouse.latency_max_ms", "ms", true),
    layer("warehouse.samples", "count", false),
    layer("warehouse.unattributed_ms", "ms", true),
    layer("warehouse.unattributed_share", "ratio", true),
    // End to end in meaning, but always 0 on a healthy engine and the
    // contract wants gated metrics that are never 0: reported here, and
    // through the result line's `failed` / `attempted`.
    layer("failed_share", "ratio", true),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One measured value: `None` is the explicit "n/a" of a layer the
/// workload bypasses. `samples` is the sample count behind a timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: Option<f64>,
    pub samples: Option<u64>,
}

/// Collects measurements, refusing names the registry does not know.
#[derive(Debug, Default)]
pub struct Ledger(pub Vec<Measured>);

impl Ledger {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.put_opt(name, Some(value), None);
    }

    pub fn put_timing(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        self.put_opt(name, value, Some(samples as u64));
    }

    pub fn put_opt(&mut self, name: &'static str, value: Option<f64>, samples: Option<u64>) {
        assert!(find(name).is_some(), "metric {name} is not in the registry");
        self.0.push(Measured {
            name,
            value: value.filter(|v| v.is_finite()),
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).and_then(|m| m.value)
    }
}
