//! How a run is shown: the table a person reads, the result file
//! `compare` reads, and the one-line JSON object the benchmark driver reads.

use crate::metrics::{self, Ledger, Measured, MetricDef};
use crate::run::Report;
use skalla_obs::json::Json;
use std::fmt::Write as _;

fn arrow(def: &MetricDef) -> &'static str {
    if def.lower_is_better {
        "lower is better"
    } else {
        "higher is better"
    }
}

fn table(out: &mut String, title: &str, defs: &[MetricDef], ledger: &Ledger) {
    let _ = writeln!(out, "{title}");
    for def in defs {
        // In the ledger without a value: the workload bypasses the layer.
        // Not in the ledger at all: the layer pass that measures it did
        // not run.
        let measured = ledger.0.iter().find(|m| m.name == def.name);
        let value = match measured {
            Some(m) => m.value.map_or("n/a".to_string(), |v| format!("{v:.4}")),
            None => "n/a (needs --trace 1)".to_string(),
        };
        let samples = measured
            .and_then(|m| m.samples)
            .map_or(String::new(), |n| format!("  n={n}"));
        let _ = writeln!(
            out,
            "  {:<30} {:>21} {:<7} ({}){samples}",
            def.name,
            value,
            def.unit,
            arrow(def)
        );
    }
}

/// Every metric by name with its unit, for a person.
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    let o = &report.opts;
    let _ = writeln!(
        out,
        "# e2e {}  seed={} seconds={} trace={} smoke={}",
        o.workload, o.seed, o.seconds, o.trace, o.smoke
    );
    let _ = writeln!(out, "# {}", report.provenance.to_json());
    for (name, value) in &report.info {
        let _ = writeln!(out, "#   {name} = {value:.4}");
    }
    table(
        &mut out,
        "end-to-end",
        metrics::END_TO_END,
        &report.end_to_end,
    );
    table(&mut out, "per-layer", metrics::PER_LAYER, &report.per_layer);
    for failure in &report.failures {
        let _ = writeln!(out, "FAILED: {failure}");
    }
    out
}

fn measured_json(m: &Measured) -> Json {
    let unit = metrics::find(m.name).map_or("", |d| d.unit);
    let mut fields = vec![
        ("value", m.value.map_or(Json::Null, Json::Float)),
        ("unit", Json::Str(unit.into())),
    ];
    if let Some(n) = m.samples {
        fields.push(("samples", Json::UInt(n)));
    }
    Json::obj(fields)
}

fn ledger_json(ledger: &Ledger) -> Json {
    Json::Obj(
        ledger
            .0
            .iter()
            .map(|m| (m.name.to_string(), measured_json(m)))
            .collect(),
    )
}

/// The result file: everything the run measured, with its provenance.
pub fn result_file(report: &Report) -> Json {
    Json::obj(vec![
        ("bench", Json::Str("e2e".into())),
        ("workload", Json::Str(report.opts.workload.clone())),
        ("provenance", report.provenance.clone()),
        (
            "info",
            Json::Obj(
                report
                    .info
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Float(*v)))
                    .collect(),
            ),
        ),
        (
            "samples",
            Json::Obj(
                report
                    .samples
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.to_string(),
                            Json::Arr(v.iter().copied().map(Json::Float).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::UInt(report.attempted)),
        ("failed", Json::UInt(report.failures.len() as u64)),
        (
            "failures",
            Json::Arr(
                report
                    .failures
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        ),
        ("end_to_end", ledger_json(&report.end_to_end)),
        ("per_layer", ledger_json(&report.per_layer)),
    ])
}

/// The driver's line: `correct`, `attempted`, `failed`, and the metrics of
/// the requested kind — end-to-end for an untraced run, per-layer for a
/// traced one. The contract wants a number for every listed metric, so a
/// bypassed layer's "n/a" reads 0 here (and `null` in the result file).
pub fn contract_line(report: &Report) -> String {
    let (defs, ledger) = if report.opts.trace {
        (metrics::PER_LAYER, &report.per_layer)
    } else {
        (metrics::END_TO_END, &report.end_to_end)
    };
    let metrics = defs
        .iter()
        .map(|def| {
            let value = ledger.get(def.name).unwrap_or(0.0);
            (
                def.name.to_string(),
                Json::obj(vec![
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(def.unit.into())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::UInt(report.attempted)),
        ("failed", Json::UInt(report.failures.len() as u64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_json()
}
