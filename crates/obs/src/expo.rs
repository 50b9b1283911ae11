//! Prometheus-style text exposition.
//!
//! [`prometheus_text`] renders a [`Recorder`] as the flat
//! `name value` / `name{label="v"} value` text format scraped by
//! Prometheus-compatible collectors (version 0.0.4, the plain-text
//! subset — no protobuf, no exemplars). Every metric is prefixed
//! `skalla_` and names are sanitized to the `[a-zA-Z0-9_:]` charset.
//!
//! Counters export as-is; histograms export `_count`, `_sum`, `_min`,
//! `_max` plus `{quantile="…"}` series for p50/p90/p95/p99 (summary
//! convention — the log-bucketed histogram gives ~19% relative error).
//! Counters imported from remote processes carry a
//! `{process="site-N"}` label.

use crate::Recorder;
use std::fmt::Write as _;

/// Sanitize a metric name into the Prometheus charset and prefix it.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("skalla_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn write_value(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = writeln!(out, "{v}");
    } else {
        out.push_str("NaN\n");
    }
}

/// Render the recorder's counters and histograms in the Prometheus
/// text exposition format.
pub fn prometheus_text(rec: &Recorder) -> String {
    let mut out = String::new();

    let mut counters: Vec<(String, f64)> = rec.counters().into_iter().collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, v) in counters {
        out.push_str(&metric_name(&name));
        out.push(' ');
        write_value(&mut out, v);
    }

    // Remote-process counters: same metric name, process label.
    let mut parts = rec.remote_parts();
    parts.sort_by_key(|p| p.process_id);
    for part in parts {
        let mut finals: Vec<(String, f64)> = Vec::new();
        for c in &part.counters {
            match finals.iter_mut().find(|(name, _)| *name == c.name) {
                Some((_, v)) => *v = c.value,
                None => finals.push((c.name.clone(), c.value)),
            }
        }
        finals.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, v) in finals {
            let _ = write!(
                out,
                "{}{{process=\"{}\"}} ",
                metric_name(&name),
                part.process_name
            );
            write_value(&mut out, v);
        }
    }

    let mut hists: Vec<_> = rec.histograms().into_iter().collect();
    hists.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, h) in hists {
        let base = metric_name(&name);
        let _ = writeln!(out, "{base}_count {}", h.count());
        let _ = write!(out, "{base}_sum ");
        write_value(&mut out, h.sum());
        let _ = write!(out, "{base}_min ");
        write_value(&mut out, h.min());
        let _ = write!(out, "{base}_max ");
        write_value(&mut out, h.max());
        for (q, p) in [(0.5, 50.0), (0.9, 90.0), (0.95, 95.0), (0.99, 99.0)] {
            let _ = write!(out, "{base}{{quantile=\"{q}\"}} ");
            write_value(&mut out, h.percentile(p));
        }
    }

    let _ = writeln!(out, "skalla_uptime_seconds {}", rec.now_us() as f64 / 1e6);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Obs, Track};

    #[test]
    fn exposition_covers_counters_hists_and_remote_labels() {
        let obs = Obs::recording();
        obs.counter("scheduler.running", 3.0);
        obs.counter_add("net.bytes-up", 512.0); // '-' sanitized to '_'
        for i in 1..=100 {
            obs.hist("query.wall_s", i as f64 / 100.0);
        }
        let site = Obs::recording();
        site.recorder().unwrap().set_process(2, "site-0");
        site.counter("rows_shipped", 42.0);
        {
            let _keep_span_shape = site.span(Track::Site(0), "task");
        }
        let delta = site.recorder().unwrap().take_delta();
        obs.recorder().unwrap().import_remote(delta, 0);

        let text = prometheus_text(obs.recorder().unwrap());
        assert!(text.contains("skalla_scheduler_running 3\n"), "{text}");
        assert!(text.contains("skalla_net_bytes_up 512\n"), "{text}");
        assert!(text.contains("skalla_query_wall_s_count 100\n"));
        assert!(text.contains("skalla_query_wall_s{quantile=\"0.5\"} "));
        assert!(text.contains("skalla_query_wall_s{quantile=\"0.99\"} "));
        assert!(
            text.contains("skalla_rows_shipped{process=\"site-0\"} 42\n"),
            "{text}"
        );
        assert!(text.contains("skalla_uptime_seconds "));
        // Every line is `name[{labels}] value`.
        for line in text.lines() {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(name.starts_with("skalla_"), "{line}");
            assert!(value.parse::<f64>().is_ok() || value == "NaN", "{line}");
        }
    }
}
