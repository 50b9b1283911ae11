//! Portable telemetry deltas: what a remote process ships back to the
//! coordinator so one merged trace can span the whole cluster.
//!
//! A [`TelemetryDelta`] is everything a [`Recorder`](crate::Recorder)
//! accumulated since the previous export — closed spans, instant
//! events, counter samples, and histogram *deltas* — plus the exporting
//! process's identity and clock anchors. It serializes through the
//! hand-rolled [`json`](crate::json) codec (this workspace has no
//! serde) and round-trips exactly, which the property tests pin.
//!
//! Clock alignment: timestamps inside a delta are microseconds since
//! the *exporting* recorder's epoch. [`estimate_offset_us`] maps them
//! onto the importing recorder's timeline, anchored on the two
//! recorders' `wall_start_unix_us` and tightened by a Cristian-style
//! request/response bound when the importer knows when (on its own
//! clock) it asked for and received the delta.

use crate::json::Json;
use crate::{ArgValue, CounterSample, EventRecord, Histogram, SpanRecord, Track};
use parking_lot::Mutex;
use std::collections::BTreeSet;

/// One process's exported telemetry since the previous export.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryDelta {
    /// Exporting process's pid lane (see `Recorder::set_process`).
    pub process_id: u32,
    /// Exporting process's lane name (e.g. `site-2`).
    pub process_name: String,
    /// Wall-clock time of the exporter's epoch, µs since UNIX epoch.
    pub wall_start_unix_us: u64,
    /// Exporter-relative time the delta was taken (its `now_us()`).
    pub export_now_us: u64,
    /// Closed spans (exporter-relative timestamps).
    pub spans: Vec<SpanRecord>,
    /// Instant events.
    pub events: Vec<EventRecord>,
    /// Counter samples.
    pub counters: Vec<CounterSample>,
    /// Per-name histogram deltas (sample-exact count/sum/buckets).
    pub hists: Vec<(String, Histogram)>,
}

/// Per-exporter state for [`crate::Recorder::take_delta`]: the previous
/// histogram snapshot, so consecutive deltas don't double-count.
#[derive(Debug, Default)]
pub struct ExportCursor {
    pub(crate) prev_hists: std::collections::HashMap<String, Histogram>,
}

/// Estimate the µs offset that maps `delta`'s timestamps onto the
/// timeline of an importing recorder whose epoch is
/// `coord_wall_start_unix_us`.
///
/// The anchor is the wall-clock difference of the two epochs. When the
/// importer knows, on its own timeline, when it requested the delta and
/// when the reply arrived (`req_resp_us`), the export instant must lie
/// between the two, which bounds the offset to
/// `[req − export_now, resp − export_now]` (Cristian's algorithm); the
/// anchor is clamped into that interval, correcting wall-clock skew
/// between the processes up to the one-way message latency.
pub fn estimate_offset_us(
    coord_wall_start_unix_us: u64,
    delta: &TelemetryDelta,
    req_resp_us: Option<(u64, u64)>,
) -> i64 {
    let anchor = delta.wall_start_unix_us as i64 - coord_wall_start_unix_us as i64;
    match req_resp_us {
        Some((req, resp)) if req <= resp => {
            let lo = req as i64 - delta.export_now_us as i64;
            let hi = resp as i64 - delta.export_now_us as i64;
            anchor.clamp(lo, hi)
        }
        _ => anchor,
    }
}

/// The most distinct attribute keys this process will ever intern: ten
/// times the instrumentation vocabulary (some fifty keys).
const MAX_INTERNED_KEYS: usize = 512;

static INTERNED_KEYS: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Span/event attribute keys are `&'static str` throughout the recorder
/// (they come from instrumentation literals); keys parsed back from
/// JSON are interned — leaked once per distinct key — here. The keys
/// arrive from a remote process, so the set is capped, and the `args`
/// objects of one delta are interned all together or not at all: a
/// delta that would overflow the cap is refused before it leaks a byte,
/// and leaves room for the honest ones after it. Returns the delta's
/// keys.
fn intern_keys<'a>(args: impl Iterator<Item = &'a Json>) -> Result<BTreeSet<&'static str>, String> {
    let wanted: BTreeSet<&str> = args
        .filter_map(|a| match a {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        })
        .flatten()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut keys = INTERNED_KEYS.lock();
    let fresh: Vec<&str> = wanted.iter().copied().filter(|k| !keys.contains(*k)).collect();
    if keys.len() + fresh.len() > MAX_INTERNED_KEYS {
        return Err(format!(
            "telemetry brings {} new attribute keys to the {} interned; the cap is {MAX_INTERNED_KEYS}",
            fresh.len(),
            keys.len()
        ));
    }
    for k in fresh {
        keys.insert(Box::leak(k.to_string().into_boxed_str()));
    }
    Ok(wanted.iter().filter_map(|k| keys.get(*k).copied()).collect())
}

fn track_to_json(t: Track) -> Json {
    match t {
        Track::Coordinator => Json::obj(vec![("t", Json::from("coord"))]),
        Track::Optimizer => Json::obj(vec![("t", Json::from("opt"))]),
        Track::Net => Json::obj(vec![("t", Json::from("net"))]),
        Track::Site(i) => Json::obj(vec![("t", Json::from("site")), ("i", Json::UInt(i as u64))]),
        Track::Worker(site, w) => Json::obj(vec![
            ("t", Json::from("worker")),
            ("i", Json::UInt(site as u64)),
            ("w", Json::UInt(w as u64)),
        ]),
        Track::Query(q) => Json::obj(vec![("t", Json::from("query")), ("q", Json::UInt(q as u64))]),
        Track::SiteQuery(site, q) => Json::obj(vec![
            ("t", Json::from("site-query")),
            ("i", Json::UInt(site as u64)),
            ("q", Json::UInt(q as u64)),
        ]),
    }
}

fn track_from_json(j: &Json) -> Result<Track, String> {
    let kind = j
        .get("t")
        .and_then(Json::as_str)
        .ok_or("track without a kind tag")?;
    let idx = |key: &str| -> Result<u64, String> {
        j.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("track {kind:?} missing field {key:?}"))
    };
    Ok(match kind {
        "coord" => Track::Coordinator,
        "opt" => Track::Optimizer,
        "net" => Track::Net,
        "site" => Track::Site(idx("i")? as usize),
        "worker" => Track::Worker(idx("i")? as usize, idx("w")? as usize),
        "query" => Track::Query(idx("q")? as u32),
        "site-query" => Track::SiteQuery(idx("i")? as usize, idx("q")? as u32),
        other => return Err(format!("unknown track kind {other:?}")),
    })
}

fn args_to_json(args: &[(&'static str, ArgValue)]) -> Json {
    Json::Obj(
        args.iter()
            .map(|(k, v)| (k.to_string(), v.to_json()))
            .collect(),
    )
}

/// `keys` is what [`intern_keys`] returned for the delta `j` is part of.
fn args_from_json(
    j: Option<&Json>,
    keys: &BTreeSet<&'static str>,
) -> Result<Vec<(&'static str, ArgValue)>, String> {
    let Some(Json::Obj(pairs)) = j else {
        return Ok(Vec::new());
    };
    pairs
        .iter()
        .map(|(k, v)| {
            let v = match v {
                Json::Int(i) if *i >= 0 => ArgValue::UInt(*i as u64),
                Json::Int(i) => ArgValue::Int(*i),
                Json::UInt(u) => ArgValue::UInt(*u),
                Json::Float(f) => ArgValue::Float(*f),
                Json::Str(s) => ArgValue::Str(s.clone()),
                Json::Bool(b) => ArgValue::Bool(*b),
                other => return Err(format!("unsupported arg value {other:?}")),
            };
            let k = keys.get(k.as_str()).ok_or("attribute key was not interned")?;
            Ok((*k, v))
        })
        .collect()
}

fn hist_to_json(h: &Histogram) -> Json {
    let buckets: Vec<Json> = h
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, c)| **c > 0)
        .map(|(i, c)| Json::Arr(vec![Json::UInt(i as u64), Json::UInt(*c)]))
        .collect();
    Json::obj(vec![
        ("count", Json::UInt(h.count())),
        ("sum", Json::Float(h.sum())),
        ("min", Json::Float(h.min())),
        ("max", Json::Float(h.max())),
        ("buckets", Json::Arr(buckets)),
    ])
}

fn hist_from_json(j: &Json) -> Result<Histogram, String> {
    let num = |key: &str| -> Result<f64, String> {
        j.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("histogram missing field {key:?}"))
    };
    let count = j
        .get("count")
        .and_then(Json::as_u64)
        .ok_or("histogram missing count")?;
    let mut buckets = vec![0u64; Histogram::n_buckets()];
    for pair in j
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or("histogram missing buckets")?
    {
        let items = pair.as_arr().ok_or("bucket entry is not a pair")?;
        let (Some(i), Some(c)) = (
            items.first().and_then(Json::as_u64),
            items.get(1).and_then(Json::as_u64),
        ) else {
            return Err("bucket entry is not [index, count]".into());
        };
        if let Some(slot) = buckets.get_mut(i as usize) {
            *slot = c;
        }
    }
    Ok(Histogram::from_parts(
        count,
        num("sum")?,
        num("min")?,
        num("max")?,
        &buckets,
    ))
}

impl TelemetryDelta {
    /// Serialize the delta as a JSON document.
    pub fn to_json(&self) -> Json {
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("id", Json::UInt(s.id as u64)),
                    (
                        "parent",
                        s.parent.map(|p| Json::UInt(p as u64)).unwrap_or(Json::Null),
                    ),
                    ("track", track_to_json(s.track)),
                    ("name", Json::from(s.name.as_str())),
                    ("start_us", Json::UInt(s.start_us)),
                    (
                        "dur_us",
                        s.dur_us.map(Json::UInt).unwrap_or(Json::Null),
                    ),
                    ("args", args_to_json(&s.args)),
                ])
            })
            .collect();
        let events: Vec<Json> = self
            .events
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("track", track_to_json(e.track)),
                    ("name", Json::from(e.name.as_str())),
                    ("ts_us", Json::UInt(e.ts_us)),
                    ("args", args_to_json(&e.args)),
                ])
            })
            .collect();
        let counters: Vec<Json> = self
            .counters
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("name", Json::from(c.name.as_str())),
                    ("ts_us", Json::UInt(c.ts_us)),
                    ("value", Json::Float(c.value)),
                ])
            })
            .collect();
        let hists: Vec<(String, Json)> = self
            .hists
            .iter()
            .map(|(name, h)| (name.clone(), hist_to_json(h)))
            .collect();
        Json::obj(vec![
            ("process_id", Json::UInt(self.process_id as u64)),
            ("process_name", Json::from(self.process_name.as_str())),
            ("wall_start_unix_us", Json::UInt(self.wall_start_unix_us)),
            ("export_now_us", Json::UInt(self.export_now_us)),
            ("spans", Json::Arr(spans)),
            ("events", Json::Arr(events)),
            ("counters", Json::Arr(counters)),
            ("hists", Json::Obj(hists)),
        ])
    }

    /// Parse a delta back from [`TelemetryDelta::to_json`] output.
    pub fn from_json(j: &Json) -> Result<TelemetryDelta, String> {
        let u = |key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("telemetry missing field {key:?}"))
        };
        let list = |key: &str| -> Result<&[Json], String> {
            j.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("telemetry missing array {key:?}"))
        };
        let name = |e: &Json| -> Result<String, String> {
            e.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("record missing name".to_string())
        };
        let with_args = list("spans")?.iter().chain(list("events")?);
        let keys = intern_keys(with_args.filter_map(|r| r.get("args")))?;
        let mut spans = Vec::new();
        for s in list("spans")? {
            spans.push(SpanRecord {
                id: s.get("id").and_then(Json::as_u64).ok_or("span missing id")? as u32,
                parent: s.get("parent").and_then(Json::as_u64).map(|p| p as u32),
                track: track_from_json(s.get("track").ok_or("span missing track")?)?,
                name: name(s)?,
                start_us: s
                    .get("start_us")
                    .and_then(Json::as_u64)
                    .ok_or("span missing start_us")?,
                dur_us: s.get("dur_us").and_then(Json::as_u64),
                args: args_from_json(s.get("args"), &keys)?,
            });
        }
        let mut events = Vec::new();
        for e in list("events")? {
            events.push(EventRecord {
                track: track_from_json(e.get("track").ok_or("event missing track")?)?,
                name: name(e)?,
                ts_us: e
                    .get("ts_us")
                    .and_then(Json::as_u64)
                    .ok_or("event missing ts_us")?,
                args: args_from_json(e.get("args"), &keys)?,
            });
        }
        let mut counters = Vec::new();
        for c in list("counters")? {
            counters.push(CounterSample {
                name: name(c)?,
                ts_us: c
                    .get("ts_us")
                    .and_then(Json::as_u64)
                    .ok_or("counter missing ts_us")?,
                value: c
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("counter missing value")?,
            });
        }
        let Some(Json::Obj(hist_pairs)) = j.get("hists") else {
            return Err("telemetry missing hists".into());
        };
        let mut hists = Vec::new();
        for (hname, h) in hist_pairs {
            hists.push((hname.clone(), hist_from_json(h)?));
        }
        Ok(TelemetryDelta {
            process_id: u("process_id")? as u32,
            process_name: j
                .get("process_name")
                .and_then(Json::as_str)
                .ok_or("telemetry missing process_name")?
                .to_string(),
            wall_start_unix_us: u("wall_start_unix_us")?,
            export_now_us: u("export_now_us")?,
            spans,
            events,
            counters,
            hists,
        })
    }

    /// Parse from a JSON string.
    pub fn parse(text: &str) -> Result<TelemetryDelta, String> {
        let doc = crate::json::parse(text).map_err(|e| format!("telemetry JSON: {e}"))?;
        TelemetryDelta::from_json(&doc)
    }
}

/// Displays as the compact JSON wire form ([`TelemetryDelta::parse`]
/// inverts it).
impl std::fmt::Display for TelemetryDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_json().to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Obs, Track};

    #[test]
    fn delta_round_trips_through_json() {
        let obs = Obs::recording();
        obs.recorder().unwrap().set_process(4, "site-2");
        {
            let _g = obs
                .span(Track::SiteQuery(2, 7), "task md1")
                .with("rows_up", 128u64)
                .with("label", "gmdj 1")
                .with("skewed", true)
                .with("delta", -3i64)
                .with("busy_s", 0.125f64);
            obs.event(Track::Net, "msg up", vec![("bytes", 512u64.into())]);
            obs.counter_add("net.bytes_up", 512.0);
            obs.hist("site_busy_s", 0.25);
            obs.hist("site_busy_s", 0.75);
        }
        let mut cursor = ExportCursor::default();
        let delta = obs.recorder().unwrap().take_delta(&mut cursor);
        assert_eq!(delta.process_name, "site-2");
        assert_eq!(delta.spans.len(), 1);
        let parsed = TelemetryDelta::parse(&delta.to_string()).unwrap();
        assert_eq!(parsed, delta);
    }

    /// Attribute keys are leaked to `'static`, and they are a remote
    /// peer's to choose: past the cap a delta is refused whole, before it
    /// interns anything, so the honest delta after it still imports.
    #[test]
    fn a_flood_of_attribute_keys_is_refused_and_interns_nothing() {
        let obs = Obs::recording();
        obs.span(Track::Site(0), "task").with("never_seen_before", 1u64).finish();
        let honest = obs.recorder().unwrap().take_delta(&mut ExportCursor::default()).to_string();
        let flood: Vec<String> = (0..10_000).map(|i| format!("\"flood_{i}\":1")).collect();
        let flood = honest.replace("\"never_seen_before\":1", &flood.join(","));
        assert!(flood.len() > honest.len() + 100_000);

        let err = TelemetryDelta::parse(&flood).unwrap_err();
        assert!(err.contains("new attribute keys"), "{err}");
        let interned = |prefix: &str| INTERNED_KEYS.lock().iter().any(|k| k.starts_with(prefix));
        assert!(!interned("flood_") && !interned("never_seen_before"));

        let delta = TelemetryDelta::parse(&honest).unwrap();
        assert_eq!(delta.spans[0].args[0].0, "never_seen_before");
        // With whatever the other tests of this process interned.
        assert!(INTERNED_KEYS.lock().len() <= MAX_INTERNED_KEYS);
    }

    #[test]
    fn take_delta_drains_and_windows() {
        let obs = Obs::recording();
        let rec = obs.recorder().unwrap();
        let mut cursor = ExportCursor::default();
        obs.span(Track::Site(0), "a").finish();
        obs.counter_add("msgs", 1.0);
        obs.hist("h", 1.0);
        let open = obs.span(Track::Site(0), "open");
        let d1 = rec.take_delta(&mut cursor);
        assert_eq!(d1.spans.len(), 1, "only the closed span exports");
        assert_eq!(d1.hists.len(), 1);
        assert_eq!(d1.hists[0].1.count(), 1);
        // The drained counter still reads through the base.
        assert_eq!(rec.counters()["msgs"], 1.0);
        obs.counter_add("msgs", 1.0);
        assert_eq!(rec.counters()["msgs"], 2.0, "counter_add resumes from base");
        drop(open);
        obs.hist("h", 2.0);
        obs.hist("h", 3.0);
        let d2 = rec.take_delta(&mut cursor);
        assert_eq!(d2.spans.len(), 1, "the span exports once it closes");
        assert_eq!(d2.spans[0].name, "open");
        assert_eq!(d2.hists[0].1.count(), 2, "histogram delta is windowed");
        assert_eq!(d2.counters.len(), 1);
        let d3 = rec.take_delta(&mut cursor);
        assert!(d3.spans.is_empty() && d3.hists.is_empty() && d3.counters.is_empty());
    }

    /// Histograms imported from a remote delta merge *sample-exactly*
    /// into the local recorder: every remote observation lands in the
    /// same bucket it occupied at the site, and count/sum/min/max add
    /// up exactly — no re-quantization, no lost samples.
    #[test]
    fn imported_histograms_merge_sample_exactly() {
        let site = Obs::recording();
        let coord = Obs::recording();
        let site_values = [0.001, 0.5, 0.5, 7.25, 1e-12];
        let coord_values = [0.25, 3.0];
        for v in site_values {
            site.hist("query.wall_s", v);
        }
        for v in coord_values {
            coord.hist("query.wall_s", v);
        }
        let mut expected = crate::Histogram::default();
        for v in site_values.iter().chain(&coord_values) {
            expected.record(*v);
        }

        let mut cursor = ExportCursor::default();
        let delta = site.recorder().unwrap().take_delta(&mut cursor);
        // The JSON wire format must preserve exactness too.
        let delta = TelemetryDelta::parse(&delta.to_string()).unwrap();
        let rec = coord.recorder().unwrap();
        rec.import_remote(delta, 0);

        let merged = &rec.histograms()["query.wall_s"];
        assert_eq!(merged, &expected, "merge must be sample-exact");
        assert_eq!(merged.count(), 7);
    }

    /// Repeated imports from one site pin the first offset, so merged
    /// span timestamps stay monotone on the coordinator's timeline even
    /// if later offset estimates would differ.
    #[test]
    fn merged_span_timestamps_stay_monotone_across_imports() {
        let site = Obs::recording();
        let site_rec = site.recorder().unwrap();
        site_rec.set_process(2, "site-0");
        let coord = Obs::recording();
        let rec = coord.recorder().unwrap();

        let mut cursor = ExportCursor::default();
        site.span(Track::Site(0), "first").finish();
        rec.import_remote(site_rec.take_delta(&mut cursor), 250);
        site.span(Track::Site(0), "second").finish();
        // A later, wildly different estimate must NOT re-shift the lane.
        rec.import_remote(site_rec.take_delta(&mut cursor), -1_000_000);

        let parts = rec.remote_parts();
        assert_eq!(parts.len(), 1, "one lane per remote process id");
        let part = &parts[0];
        assert_eq!(part.offset_us, 250, "first offset is pinned");
        assert_eq!(part.spans.len(), 2);
        let shifted: Vec<u64> = part
            .spans
            .iter()
            .map(|s| part.shift_us(s.start_us))
            .collect();
        assert!(
            shifted.windows(2).all(|w| w[0] <= w[1]),
            "aligned span starts must be monotone: {shifted:?}"
        );
    }

    #[test]
    fn offset_estimation_clamps_anchor_into_rtt_bound() {
        let mk = |wall: u64, export_now: u64| TelemetryDelta {
            process_id: 2,
            process_name: "site-0".into(),
            wall_start_unix_us: wall,
            export_now_us: export_now,
            spans: vec![],
            events: vec![],
            counters: vec![],
            hists: vec![],
        };
        // Clocks agree: anchor (1000) already inside the bound.
        let d = mk(1_001_000, 500);
        assert_eq!(estimate_offset_us(1_000_000, &d, Some((1400, 1600))), 1000);
        // Site wall clock is 1 s fast: the anchor (1_001_000) violates
        // the request/response bound and gets clamped to it.
        let d = mk(2_000_000, 500);
        assert_eq!(
            estimate_offset_us(1_000_000, &d, Some((1400, 1600))),
            1100,
            "clamped to resp - export_now"
        );
        // No request/response info: fall back to the wall anchor.
        assert_eq!(estimate_offset_us(1_000_000, &d, None), 1_000_000);
    }
}
