//! Trace and metrics export.
//!
//! [`chrome_trace`] renders a [`Recorder`] into Chrome trace-event
//! JSON (the `{"traceEvents": [...]}` object form), which loads in
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`. Each
//! [`Track`] becomes one named thread; spans are complete (`"X"`)
//! events, instant events are `"i"`, counter histories are `"C"`.
//!
//! [`metrics_snapshot`] renders the same recorder as a flat metrics
//! document: final counter values plus count/sum/min/max/mean and
//! p50/p90/p99 for every histogram.

use crate::json::Json;
use crate::{CounterSample, EventRecord, Recorder, SpanRecord, Track};

fn args_json(args: &[(&'static str, crate::ArgValue)]) -> Json {
    Json::Obj(
        args.iter()
            .map(|(k, v)| (k.to_string(), v.to_json()))
            .collect(),
    )
}

/// Emit the `process_name` / `thread_name` metadata records and the
/// span/event/counter records for one process lane. `shift` maps the
/// part's own timestamps onto the merged timeline; `now` bounds any
/// still-open span.
#[allow(clippy::too_many_arguments)]
fn emit_process(
    out: &mut Vec<Json>,
    pid: u64,
    process_name: &str,
    spans: &[SpanRecord],
    events: &[EventRecord],
    counters: &[CounterSample],
    now: Option<u64>,
    shift: impl Fn(u64) -> u64,
) {
    out.push(Json::obj(vec![
        ("ph", Json::from("M")),
        ("pid", Json::UInt(pid)),
        ("name", Json::from("process_name")),
        ("args", Json::obj(vec![("name", Json::from(process_name))])),
    ]));

    // One thread-name metadata record per track that appears.
    let mut tracks: Vec<Track> = spans
        .iter()
        .map(|s| s.track)
        .chain(events.iter().map(|e| e.track))
        .collect();
    tracks.sort_by_key(|t| t.tid());
    tracks.dedup();
    for t in tracks {
        out.push(Json::obj(vec![
            ("ph", Json::from("M")),
            ("pid", Json::UInt(pid)),
            ("tid", Json::UInt(t.tid())),
            ("name", Json::from("thread_name")),
            ("args", Json::obj(vec![("name", Json::from(t.label()))])),
        ]));
    }

    for s in spans {
        // A span still open at export time is drawn up to "now" (remote
        // parts only ship closed spans, so `now` is None there).
        let dur = s.dur_us.unwrap_or_else(|| {
            now.unwrap_or(s.start_us).saturating_sub(s.start_us)
        });
        out.push(Json::obj(vec![
            ("ph", Json::from("X")),
            ("pid", Json::UInt(pid)),
            ("tid", Json::UInt(s.track.tid())),
            ("ts", Json::UInt(shift(s.start_us))),
            ("dur", Json::UInt(dur)),
            ("name", Json::from(s.name.as_str())),
            ("cat", Json::from(s.track.category())),
            ("args", args_json(&s.args)),
        ]));
    }

    for e in events {
        out.push(Json::obj(vec![
            ("ph", Json::from("i")),
            ("s", Json::from("t")),
            ("pid", Json::UInt(pid)),
            ("tid", Json::UInt(e.track.tid())),
            ("ts", Json::UInt(shift(e.ts_us))),
            ("name", Json::from(e.name.as_str())),
            ("cat", Json::from(e.track.category())),
            ("args", args_json(&e.args)),
        ]));
    }

    for c in counters {
        out.push(Json::obj(vec![
            ("ph", Json::from("C")),
            ("pid", Json::UInt(pid)),
            ("ts", Json::UInt(shift(c.ts_us))),
            ("name", Json::from(c.name.as_str())),
            ("args", Json::obj(vec![("value", Json::Float(c.value))])),
        ]));
    }
}

/// Render the recorder as a Chrome trace-event document. Telemetry
/// imported from other processes ([`Recorder::import_remote`]) renders
/// as additional pid lanes with clock-aligned timestamps — one merged
/// trace spanning the whole cluster.
pub fn chrome_trace(rec: &Recorder) -> Json {
    let spans = rec.spans();
    let events = rec.events();
    let counters = rec.counter_samples();
    let remote = rec.remote_parts();
    let now = rec.now_us();

    let mut out: Vec<Json> = Vec::with_capacity(spans.len() + events.len() + counters.len() + 8);
    emit_process(
        &mut out,
        rec.process_id() as u64,
        &rec.process_name(),
        &spans,
        &events,
        &counters,
        Some(now),
        |ts| ts,
    );
    for part in &remote {
        emit_process(
            &mut out,
            part.process_id as u64,
            &part.process_name,
            &part.spans,
            &part.events,
            &part.counters,
            None,
            |ts| part.shift_us(ts),
        );
    }

    Json::obj(vec![
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::from("ms")),
        (
            "otherData",
            Json::obj(vec![(
                "wall_start_unix_us",
                Json::UInt(rec.wall_start_unix_us()),
            )]),
        ),
    ])
}

/// Serialize [`chrome_trace`] to a JSON string.
pub fn write_chrome_trace(rec: &Recorder) -> String {
    chrome_trace(rec).to_json()
}

/// Render final counter values and histogram summaries. Histograms
/// include their full (sparsely encoded) bucket arrays so snapshots
/// from different processes merge and diff without precision loss;
/// counters imported from remote processes appear prefixed with the
/// originating process name (`site-0/net.bytes_up`).
pub fn metrics_snapshot(rec: &Recorder) -> Json {
    let mut counters: Vec<(String, Json)> = rec
        .counters()
        .into_iter()
        .map(|(k, v)| (k, Json::Float(v)))
        .collect();
    for part in rec.remote_parts() {
        // Last sample per remote counter name wins (gauge semantics).
        let mut finals: Vec<(String, f64)> = Vec::new();
        for c in &part.counters {
            match finals.iter_mut().find(|(name, _)| *name == c.name) {
                Some((_, v)) => *v = c.value,
                None => finals.push((c.name.clone(), c.value)),
            }
        }
        for (name, v) in finals {
            counters.push((format!("{}/{name}", part.process_name), Json::Float(v)));
        }
    }
    counters.sort_by(|a, b| a.0.cmp(&b.0));

    let mut hists: Vec<(String, Json)> = rec
        .histograms()
        .into_iter()
        .map(|(k, h)| {
            let buckets: Vec<Json> = h
                .buckets()
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| Json::Arr(vec![Json::UInt(i as u64), Json::UInt(*c)]))
                .collect();
            (
                k,
                Json::obj(vec![
                    ("count", Json::UInt(h.count())),
                    ("sum", Json::Float(h.sum())),
                    ("min", Json::Float(h.min())),
                    ("max", Json::Float(h.max())),
                    ("mean", Json::Float(h.mean())),
                    ("p50", Json::Float(h.percentile(50.0))),
                    ("p90", Json::Float(h.percentile(90.0))),
                    ("p99", Json::Float(h.percentile(99.0))),
                    ("buckets", Json::Arr(buckets)),
                ]),
            )
        })
        .collect();
    hists.sort_by(|a, b| a.0.cmp(&b.0));

    Json::obj(vec![
        ("wall_start_unix_us", Json::UInt(rec.wall_start_unix_us())),
        ("elapsed_us", Json::UInt(rec.now_us())),
        ("counters", Json::Obj(counters)),
        ("histograms", Json::Obj(hists)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::{Obs, Track};

    fn sample_obs() -> Obs {
        let obs = Obs::recording();
        {
            let _q = obs.span(Track::Coordinator, "query").with("stages", 2u64);
            {
                let _s = obs.span(Track::Coordinator, "stage md1");
                let _t = obs
                    .span(Track::Site(0), "task md1")
                    .with("rows_up", 128u64);
                obs.event(
                    Track::Net,
                    "send",
                    vec![("bytes", 512u64.into()), ("site", 0usize.into())],
                );
                obs.counter("bytes_total", 512.0);
            }
            obs.hist("site_busy_s", 0.25);
        }
        obs
    }

    /// Golden test: the Chrome trace is well-formed JSON and carries
    /// the expected event structure (round-trips through the parser).
    #[test]
    fn chrome_trace_round_trips() {
        let obs = sample_obs();
        let text = write_chrome_trace(obs.recorder().unwrap());
        let doc = parse(&text).expect("trace is valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();

        let of_ph = |ph: &str| -> Vec<&Json> {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
                .collect()
        };
        // process_name + 3 thread names (coordinator, net, site 0).
        assert_eq!(of_ph("M").len(), 4);
        let spans = of_ph("X");
        assert_eq!(spans.len(), 3);
        for s in &spans {
            assert!(s.get("ts").unwrap().as_u64().is_some());
            assert!(s.get("dur").unwrap().as_u64().is_some());
            assert!(s.get("name").unwrap().as_str().is_some());
        }
        let task = spans
            .iter()
            .find(|s| s.get("name").unwrap().as_str() == Some("task md1"))
            .unwrap();
        assert_eq!(
            task.get("args").unwrap().get("rows_up").unwrap().as_u64(),
            Some(128)
        );
        assert_eq!(task.get("tid").unwrap().as_u64(), Some(16));
        let instants = of_ph("i");
        assert_eq!(instants.len(), 1);
        assert_eq!(
            instants[0].get("args").unwrap().get("bytes").unwrap().as_u64(),
            Some(512)
        );
        assert_eq!(of_ph("C").len(), 1);
    }

    #[test]
    fn metrics_snapshot_summarizes() {
        let obs = sample_obs();
        let text = metrics_snapshot(obs.recorder().unwrap()).to_json();
        let doc = parse(&text).expect("snapshot is valid JSON");
        assert_eq!(
            doc.get("counters").unwrap().get("bytes_total").unwrap().as_f64(),
            Some(512.0)
        );
        let h = doc.get("histograms").unwrap().get("site_busy_s").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(h.get("min").unwrap().as_f64(), Some(0.25));
        assert_eq!(h.get("max").unwrap().as_f64(), Some(0.25));
        let p50 = h.get("p50").unwrap().as_f64().unwrap();
        assert_eq!(p50, 0.25, "single observation clamps to min/max");
    }

    /// A recorder with imported remote telemetry renders each remote
    /// process as its own pid lane with clock-shifted timestamps.
    #[test]
    fn merged_trace_has_one_pid_lane_per_process() {
        let obs = sample_obs();
        let rec = obs.recorder().unwrap();
        rec.set_process(1, "coordinator");

        let site = Obs::recording();
        site.recorder().unwrap().set_process(2, "site-0");
        {
            let _t = site.span(Track::SiteQuery(0, 7), "task md1");
            site.counter_add("net.bytes_up", 64.0);
        }
        let delta = site.recorder().unwrap().take_delta();
        rec.import_remote(delta, 1_000);

        let doc = parse(&write_chrome_trace(rec)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let pid_of = |e: &Json| e.get("pid").and_then(|p| p.as_u64()).unwrap();
        let procs: Vec<(u64, String)> = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(|n| n.as_str()) == Some("process_name")
            })
            .map(|e| {
                let name = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    .unwrap()
                    .to_string();
                (pid_of(e), name)
            })
            .collect();
        assert_eq!(
            procs,
            vec![(1, "coordinator".to_string()), (2, "site-0".to_string())]
        );
        // The remote span landed on pid 2, timestamp-shifted by +1000.
        let remote_span = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X") && pid_of(e) == 2
            })
            .expect("remote span present");
        assert!(remote_span.get("ts").unwrap().as_u64().unwrap() >= 1_000);
        assert_eq!(
            remote_span.get("tid").unwrap().as_u64(),
            Some(Track::SiteQuery(0, 7).tid())
        );
        // Remote counters surface in the snapshot under a process prefix.
        let snap = metrics_snapshot(rec);
        assert_eq!(
            snap.get("counters")
                .unwrap()
                .get("site-0/net.bytes_up")
                .and_then(|v| v.as_f64()),
            Some(64.0)
        );
    }

    #[test]
    fn snapshot_histograms_carry_bucket_arrays() {
        let obs = sample_obs();
        let doc = parse(&metrics_snapshot(obs.recorder().unwrap()).to_json()).unwrap();
        let h = doc.get("histograms").unwrap().get("site_busy_s").unwrap();
        let buckets = h.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 1, "one sample, one occupied bucket");
        let pair = buckets[0].as_arr().unwrap();
        assert_eq!(pair[1].as_u64(), Some(1));
    }

    #[test]
    fn empty_recorder_exports_cleanly() {
        let obs = Obs::recording();
        let doc = parse(&write_chrome_trace(obs.recorder().unwrap())).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 1);
        let snap = parse(&metrics_snapshot(obs.recorder().unwrap()).to_json()).unwrap();
        assert_eq!(snap.get("counters").unwrap(), &Json::Obj(vec![]));
    }
}
