//! Observability for Skalla: a dependency-free span/event/metric
//! recorder with Chrome-trace export.
//!
//! The execution engine is threaded (one coordinator plus one thread
//! per site), so the recorder is a shared-state sink: any thread can
//! open spans, emit instant events, bump counters, or feed histograms
//! through a cheaply-cloneable [`Obs`] handle. Spans nest per *track*
//! (one logical timeline per coordinator / site / optimizer / network),
//! which matches how the engine parallelizes and renders directly as
//! one row per track in a trace viewer.
//!
//! **Cost when disabled.** `Obs` is `Option<Arc<Recorder>>` inside;
//! a disabled handle makes every call a branch on a null pointer — no
//! allocation, no locking, no formatting. The optional process-global
//! recorder adds one relaxed atomic load. What recording costs a whole
//! query is the ledger's `obs.traced_overhead_share`.
//!
//! Export goes through [`chrome::chrome_trace`] (Chrome trace-event
//! JSON, loadable in Perfetto or `chrome://tracing`) and
//! [`chrome::metrics_snapshot`] (flat counters + histogram summary),
//! both emitted by the hand-rolled [`json`] writer — this workspace has
//! no serde.

// Bad input is answered with an error, never a panic; a local invariant
// carries `#[expect(clippy::…, reason = "…")]` (docs/STATIC_ANALYSIS.md).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod chrome;
pub mod expo;
pub mod json;
pub mod serve;
pub mod telemetry;
pub mod timing;

pub use telemetry::{estimate_offset_us, TelemetryDelta};
pub use timing::BusyTimer;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A logical timeline. Spans nest within their track, mirroring the
/// engine's thread structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// The coordinator's control flow (stages, synchronizations).
    Coordinator,
    /// Plan construction and rewrite decisions.
    Optimizer,
    /// Message-level network activity.
    Net,
    /// One executing site.
    Site(usize),
    /// One kernel worker thread within a site (`(site, worker)`). The
    /// morsel-parallel GMDJ kernel opens per-morsel spans here; a
    /// dedicated track per worker keeps span nesting (which is
    /// per-track) correct when workers run concurrently.
    Worker(usize, usize),
    /// One query's coordinator-side control flow in a concurrent
    /// multi-query engine. Span nesting is per-track, so concurrent
    /// queries must not share [`Track::Coordinator`]; each gets its own
    /// timeline keyed by query id.
    Query(u32),
    /// One query's execution on one site (`(site, query_id)`) under the
    /// concurrent engine's demultiplexing loop, where several query
    /// workers run on the same site at once.
    SiteQuery(usize, u32),
}

impl Track {
    /// Stable thread id for trace export (sites start at 16, kernel
    /// workers at 4096 in blocks of 64 per site, per-query coordinator
    /// tracks at 1024, per-site query tracks at 65536 in blocks of 256
    /// per site).
    pub fn tid(self) -> u64 {
        match self {
            Track::Coordinator => 1,
            Track::Optimizer => 2,
            Track::Net => 3,
            Track::Site(i) => 16 + i as u64,
            Track::Worker(site, w) => 4096 + (site as u64) * 64 + (w as u64).min(63),
            Track::Query(q) => 1024 + (q as u64).min(3071),
            Track::SiteQuery(site, q) => 65536 + (site as u64) * 256 + (q as u64).min(255),
        }
    }

    /// Human-readable timeline name.
    pub fn label(self) -> String {
        match self {
            Track::Coordinator => "coordinator".to_string(),
            Track::Optimizer => "optimizer".to_string(),
            Track::Net => "net".to_string(),
            Track::Site(i) => format!("site {i}"),
            Track::Worker(site, w) => format!("site {site} worker {w}"),
            Track::Query(q) => format!("query {q}"),
            Track::SiteQuery(site, q) => format!("site {site} query {q}"),
        }
    }

    /// Trace category string.
    pub fn category(self) -> &'static str {
        match self {
            Track::Coordinator => "coord",
            Track::Optimizer => "opt",
            Track::Net => "net",
            Track::Site(_) => "site",
            Track::Worker(_, _) => "worker",
            Track::Query(_) => "query",
            Track::SiteQuery(_, _) => "site-query",
        }
    }
}

/// An attribute value attached to spans and events.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A signed integer attribute.
    Int(i64),
    /// An unsigned integer attribute (counts, ids).
    UInt(u64),
    /// A float attribute.
    Float(f64),
    /// A string attribute.
    Str(String),
    /// A boolean attribute.
    Bool(bool),
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> ArgValue {
        ArgValue::Int(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::UInt(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::UInt(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::Float(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> ArgValue {
        ArgValue::Bool(v)
    }
}

impl ArgValue {
    pub(crate) fn to_json(&self) -> json::Json {
        match self {
            ArgValue::Int(i) => json::Json::Int(*i),
            ArgValue::UInt(u) => json::Json::UInt(*u),
            ArgValue::Float(f) => json::Json::Float(*f),
            ArgValue::Str(s) => json::Json::Str(s.clone()),
            ArgValue::Bool(b) => json::Json::Bool(*b),
        }
    }
}

/// A completed or in-flight span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Recorder-unique id.
    pub id: u32,
    /// Enclosing span on the same track, if any.
    pub parent: Option<u32>,
    /// Timeline this span belongs to.
    pub track: Track,
    /// Span name (e.g. `stage md1` or `sync merge`).
    pub name: String,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Duration in microseconds; `None` while still open.
    pub dur_us: Option<u64>,
    /// Attached attributes.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// An instant event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Timeline the event belongs to.
    pub track: Track,
    /// Event name.
    pub name: String,
    /// Microseconds since the recorder's epoch.
    pub ts_us: u64,
    /// Attached attributes.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// One counter observation (counters are gauges with history).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Counter name.
    pub name: String,
    /// Microseconds since the recorder's epoch.
    pub ts_us: u64,
    /// Value at that instant.
    pub value: f64,
}

/// Log-bucketed histogram: exact count/sum/min/max, ~19% relative
/// resolution (base 2¼ buckets) for percentile estimates. Covers
/// values from 1e-9 up; smaller values clamp into the first bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: Vec<u64>,
}

const HIST_BUCKETS: usize = 256;
const HIST_FLOOR: f64 = 1e-9;

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: vec![0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    fn bucket_of(v: f64) -> usize {
        if v <= HIST_FLOOR {
            return 0;
        }
        (((v / HIST_FLOOR).log2() * 4.0).floor() as usize).min(HIST_BUCKETS - 1)
    }

    fn bucket_mid(i: usize) -> f64 {
        HIST_FLOOR * 2f64.powf((i as f64 + 0.5) / 4.0)
    }

    /// Record one observation (non-finite values are dropped).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The raw bucket counts (length [`Histogram::n_buckets`]); bucket
    /// `i` covers `[1e-9·2^(i/4), 1e-9·2^((i+1)/4))`. Exported so
    /// snapshots from different processes merge without precision loss.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Number of buckets every histogram has.
    pub fn n_buckets() -> usize {
        HIST_BUCKETS
    }

    /// Rebuild a histogram from exported parts (the inverse of reading
    /// [`Histogram::buckets`] plus the count/sum/min/max accessors).
    /// `buckets` longer than [`Histogram::n_buckets`] is truncated,
    /// shorter is zero-padded. An empty (`count == 0`) histogram resets
    /// min/max to their identity values regardless of the inputs.
    pub fn from_parts(count: u64, sum: f64, min: f64, max: f64, buckets: &[u64]) -> Histogram {
        let mut b = vec![0u64; HIST_BUCKETS];
        for (dst, src) in b.iter_mut().zip(buckets) {
            *dst = *src;
        }
        if count == 0 {
            Histogram {
                buckets: b,
                ..Histogram::default()
            }
        } else {
            Histogram {
                count,
                sum,
                min,
                max,
                buckets: b,
            }
        }
    }

    /// Merge another histogram's samples into this one. Count, sum and
    /// the bucket array add exactly; min/max take the tighter bound —
    /// merging is sample-exact relative to recording every observation
    /// into a single histogram (min/max/count/sum/buckets all agree).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += *src;
        }
    }

    /// The samples `newer` has accumulated beyond `older` (two snapshots
    /// of the same growing histogram). Count, sum and buckets subtract
    /// exactly; min/max carry `newer`'s overall-so-far bounds, so a
    /// stream of window deltas still merges to the true overall min/max.
    pub fn diff(newer: &Histogram, older: &Histogram) -> Histogram {
        let count = newer.count.saturating_sub(older.count);
        if count == 0 {
            return Histogram::default();
        }
        let mut buckets = newer.buckets.clone();
        for (dst, src) in buckets.iter_mut().zip(&older.buckets) {
            *dst = dst.saturating_sub(*src);
        }
        Histogram {
            count,
            sum: newer.sum - older.sum,
            min: newer.min,
            max: newer.max,
            buckets,
        }
    }

    /// Estimated `p`-th percentile (`p` in 0..=100), within one bucket
    /// (~19% relative error), clamped to the observed min/max.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if p >= 100.0 {
            return self.max;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[derive(Default)]
struct Timeline {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    counters: Vec<CounterSample>,
    /// Final value of every counter whose sample history was drained by
    /// [`Recorder::take_delta`]; [`Recorder::counters`] overlays live
    /// samples on top of this, so draining never loses gauge values.
    counter_base: HashMap<String, f64>,
    stacks: HashMap<Track, Vec<u32>>,
    next_id: u32,
}

/// Telemetry imported from another process's recorder, kept alongside
/// the local timeline for merged export: the process keeps its own pid
/// lane in the Chrome trace, and its timestamps are shifted by
/// `offset_us` (its clock mapped onto this recorder's epoch).
#[derive(Debug, Clone)]
pub struct RemotePart {
    /// Originating process id (distinct pid lane in the merged trace).
    pub process_id: u32,
    /// Originating process name (e.g. `site-0`).
    pub process_name: String,
    /// Microseconds to add to the part's timestamps to land on this
    /// recorder's timeline (estimated once per process and then pinned,
    /// so later imports from the same process stay monotone).
    pub offset_us: i64,
    /// Spans recorded by the remote process (its own epoch).
    pub spans: Vec<SpanRecord>,
    /// Instant events recorded by the remote process.
    pub events: Vec<EventRecord>,
    /// Counter samples recorded by the remote process.
    pub counters: Vec<CounterSample>,
}

impl RemotePart {
    /// Map a remote timestamp onto the importing recorder's timeline.
    pub fn shift_us(&self, us: u64) -> u64 {
        (us as i64 + self.offset_us).max(0) as u64
    }
}

/// The shared recording sink. Create one per traced execution via
/// [`Obs::recording`], or install a process-global one with
/// [`install_global`].
pub struct Recorder {
    epoch: Instant,
    wall_start_unix_us: u64,
    timeline: Mutex<Timeline>,
    hists: Mutex<HashMap<String, Histogram>>,
    /// The histograms as of the last [`Recorder::take_delta`], which the
    /// next delta is diffed against.
    exported_hists: Mutex<HashMap<String, Histogram>>,
    process: Mutex<(u32, String)>,
    remote: Mutex<Vec<RemotePart>>,
}

/// Lock `m`, recovering the guard if a thread panicked while holding
/// it: every recorder update leaves its data valid at each step.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            wall_start_unix_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            timeline: Mutex::new(Timeline::default()),
            hists: Mutex::new(HashMap::new()),
            exported_hists: Mutex::new(HashMap::new()),
            process: Mutex::new((1, "skalla".to_string())),
            remote: Mutex::new(Vec::new()),
        }
    }

    /// Name this recorder's process for multi-process trace export
    /// (e.g. `coordinator` / `site-3`). The id becomes the pid lane in
    /// merged Chrome traces, so each process needs a distinct one.
    pub fn set_process(&self, id: u32, name: impl Into<String>) {
        *lock(&self.process) = (id, name.into());
    }

    /// The pid lane this recorder's own events export under.
    pub fn process_id(&self) -> u32 {
        lock(&self.process).0
    }

    /// The process lane name (default `skalla`).
    pub fn process_name(&self) -> String {
        lock(&self.process).1.clone()
    }

    /// Microseconds elapsed since this recorder was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Wall-clock time of the recorder's epoch, µs since UNIX epoch.
    pub fn wall_start_unix_us(&self) -> u64 {
        self.wall_start_unix_us
    }

    /// Snapshot of all spans recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        lock(&self.timeline).spans.clone()
    }

    /// Snapshot of all instant events recorded so far.
    pub fn events(&self) -> Vec<EventRecord> {
        lock(&self.timeline).events.clone()
    }

    /// Snapshot of all counter samples recorded so far.
    pub fn counter_samples(&self) -> Vec<CounterSample> {
        lock(&self.timeline).counters.clone()
    }

    /// Latest value of each counter (including counters whose sample
    /// history was drained by [`Recorder::take_delta`]).
    pub fn counters(&self) -> HashMap<String, f64> {
        let tl = lock(&self.timeline);
        let mut out = tl.counter_base.clone();
        for s in &tl.counters {
            out.insert(s.name.clone(), s.value);
        }
        out
    }

    /// Snapshot of all histograms.
    pub fn histograms(&self) -> HashMap<String, Histogram> {
        lock(&self.hists).clone()
    }

    /// Drain everything recorded since the last export into a portable
    /// [`TelemetryDelta`]: closed spans, events and counter samples are
    /// *removed* (keeping a long-running process's memory bounded —
    /// final counter values are folded into a base so
    /// [`Recorder::counters`] still reports them), histograms are
    /// diffed against the snapshot the previous export left. Still-open
    /// spans stay behind and export once they close. Deltas are
    /// disjoint, whichever threads take them: every observation is
    /// exported exactly once.
    pub fn take_delta(&self) -> TelemetryDelta {
        let export_now_us = self.now_us();
        let (process_id, process_name) = lock(&self.process).clone();
        let mut tl = lock(&self.timeline);
        let mut spans = Vec::new();
        let mut kept = Vec::with_capacity(tl.stacks.values().map(Vec::len).sum());
        for s in tl.spans.drain(..) {
            if s.dur_us.is_some() {
                spans.push(s);
            } else {
                kept.push(s);
            }
        }
        tl.spans = kept;
        let events = std::mem::take(&mut tl.events);
        let counters = std::mem::take(&mut tl.counters);
        for s in &counters {
            tl.counter_base.insert(s.name.clone(), s.value);
        }
        drop(tl);

        // Held across the snapshot, so concurrent exports diff in turn.
        let mut exported = lock(&self.exported_hists);
        let current = lock(&self.hists).clone();
        let mut hists = Vec::new();
        for (name, h) in &current {
            let delta = match exported.get(name) {
                Some(old) => Histogram::diff(h, old),
                None => h.clone(),
            };
            if delta.count() > 0 {
                hists.push((name.clone(), delta));
            }
        }
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        *exported = current;

        TelemetryDelta {
            process_id,
            process_name,
            wall_start_unix_us: self.wall_start_unix_us,
            export_now_us,
            spans,
            events,
            counters,
            hists,
        }
    }

    /// Merge telemetry from another process into this recorder.
    /// Histograms merge sample-exactly into the same-named local
    /// histograms; spans/events/counters are kept as a [`RemotePart`]
    /// under the delta's process identity, timestamp-shifted by
    /// `offset_us` at export (see [`estimate_offset_us`]). The offset of
    /// the *first* import from a given process id is pinned and reused
    /// for its later deltas, keeping merged timestamps monotone.
    pub fn import_remote(&self, delta: TelemetryDelta, offset_us: i64) {
        {
            let mut hists = lock(&self.hists);
            for (name, h) in &delta.hists {
                hists.entry(name.clone()).or_default().merge(h);
            }
        }
        let mut remote = lock(&self.remote);
        match remote.iter_mut().find(|p| p.process_id == delta.process_id) {
            Some(part) => {
                part.spans.extend(delta.spans);
                part.events.extend(delta.events);
                part.counters.extend(delta.counters);
            }
            None => remote.push(RemotePart {
                process_id: delta.process_id,
                process_name: delta.process_name,
                offset_us,
                spans: delta.spans,
                events: delta.events,
                counters: delta.counters,
            }),
        }
    }

    /// Telemetry imported from other processes, for merged export.
    pub fn remote_parts(&self) -> Vec<RemotePart> {
        lock(&self.remote).clone()
    }

    fn open_span(self: &Arc<Self>, track: Track, name: String) -> u32 {
        let start_us = self.now_us();
        let mut tl = lock(&self.timeline);
        let id = tl.next_id;
        tl.next_id += 1;
        let stack = tl.stacks.entry(track).or_default();
        let parent = stack.last().copied();
        stack.push(id);
        tl.spans.push(SpanRecord {
            id,
            parent,
            track,
            name,
            start_us,
            dur_us: None,
            args: Vec::new(),
        });
        id
    }

    fn close_span(&self, id: u32, args: Vec<(&'static str, ArgValue)>) {
        let end = self.now_us();
        let mut tl = lock(&self.timeline);
        if let Some(span) = tl.spans.iter_mut().rev().find(|s| s.id == id) {
            span.dur_us = Some(end.saturating_sub(span.start_us));
            span.args = args;
            let track = span.track;
            if let Some(stack) = tl.stacks.get_mut(&track) {
                if let Some(pos) = stack.iter().rposition(|&s| s == id) {
                    stack.remove(pos);
                }
            }
        }
    }
}

/// RAII handle for an open span. The span closes (and records its
/// duration) when the guard drops; attach attributes with
/// [`SpanGuard::with`] or [`SpanGuard::arg`].
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    rec: Option<(Arc<Recorder>, u32)>,
    args: Vec<(&'static str, ArgValue)>,
}

impl SpanGuard {
    /// Attach an attribute, builder-style.
    pub fn with(mut self, key: &'static str, value: impl Into<ArgValue>) -> SpanGuard {
        self.arg(key, value);
        self
    }

    /// Attach an attribute to the open span (e.g. a row count known
    /// only at the end).
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.rec.is_some() {
            self.args.push((key, value.into()));
        }
    }

    /// Close the span now instead of at end of scope.
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((rec, id)) = self.rec.take() {
            rec.close_span(id, std::mem::take(&mut self.args));
        }
    }
}

/// A cheap, cloneable handle to a [`Recorder`] — or to nothing.
/// Every instrumented component holds one; the disabled handle makes
/// all recording calls near-free (a null check).
#[derive(Clone, Default)]
pub struct Obs {
    rec: Option<Arc<Recorder>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.rec.is_some() {
            "Obs(recording)"
        } else {
            "Obs(disabled)"
        })
    }
}

impl Obs {
    /// The no-op handle. All calls return immediately.
    pub fn disabled() -> Obs {
        Obs { rec: None }
    }

    /// A fresh recording handle backed by a new [`Recorder`].
    pub fn recording() -> Obs {
        Obs {
            rec: Some(Arc::new(Recorder::new())),
        }
    }

    /// Whether a recorder is attached.
    pub fn is_recording(&self) -> bool {
        self.rec.is_some()
    }

    /// The backing recorder, for export.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.rec.as_ref()
    }

    /// Open a span on `track`. Returns a no-op guard when disabled.
    pub fn span(&self, track: Track, name: impl Into<String>) -> SpanGuard {
        match &self.rec {
            None => SpanGuard {
                rec: None,
                args: Vec::new(),
            },
            Some(rec) => {
                let id = rec.open_span(track, name.into());
                SpanGuard {
                    rec: Some((Arc::clone(rec), id)),
                    args: Vec::new(),
                }
            }
        }
    }

    /// Record an instant event with attributes.
    pub fn event(
        &self,
        track: Track,
        name: impl Into<String>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(rec) = &self.rec {
            let ts_us = rec.now_us();
            lock(&rec.timeline).events.push(EventRecord {
                track,
                name: name.into(),
                ts_us,
                args,
            });
        }
    }

    /// Set a counter's current value (gauge semantics; the full sample
    /// history is kept for the trace's counter track).
    pub fn counter(&self, name: &str, value: f64) {
        if let Some(rec) = &self.rec {
            let ts_us = rec.now_us();
            lock(&rec.timeline).counters.push(CounterSample {
                name: name.to_string(),
                ts_us,
                value,
            });
        }
    }

    /// Add `delta` to a counter (starting from 0).
    pub fn counter_add(&self, name: &str, delta: f64) {
        if let Some(rec) = &self.rec {
            let ts_us = rec.now_us();
            let mut tl = lock(&rec.timeline);
            let prev = tl
                .counters
                .iter()
                .rev()
                .find(|s| s.name == name)
                .map(|s| s.value)
                .or_else(|| tl.counter_base.get(name).copied())
                .unwrap_or(0.0);
            tl.counters.push(CounterSample {
                name: name.to_string(),
                ts_us,
                value: prev + delta,
            });
        }
    }

    /// Feed one observation into a named histogram.
    pub fn hist(&self, name: &str, value: f64) {
        if let Some(rec) = &self.rec {
            lock(&rec.hists)
                .entry(name.to_string())
                .or_default()
                .record(value);
        }
    }
}

static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Arc<Recorder>> = OnceLock::new();

/// Install (or fetch) the process-global recorder and return a handle
/// to it. Subsequent [`global`] calls return recording handles.
pub fn install_global() -> Obs {
    let rec = GLOBAL.get_or_init(|| Arc::new(Recorder::new()));
    GLOBAL_ENABLED.store(true, Ordering::Release);
    Obs {
        rec: Some(Arc::clone(rec)),
    }
}

/// The global handle: disabled until [`install_global`] runs. The
/// disabled path is one relaxed atomic load.
pub fn global() -> Obs {
    if !GLOBAL_ENABLED.load(Ordering::Acquire) {
        return Obs::disabled();
    }
    Obs {
        rec: GLOBAL.get().map(Arc::clone),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_per_track() {
        let obs = Obs::recording();
        {
            let _q = obs.span(Track::Coordinator, "query");
            {
                let _s = obs.span(Track::Coordinator, "stage md1");
                let _other = obs.span(Track::Site(0), "task"); // separate track
            }
            let _s2 = obs.span(Track::Coordinator, "stage md2");
        }
        let spans = obs.recorder().unwrap().spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let query = by_name("query");
        assert_eq!(query.parent, None);
        assert_eq!(by_name("stage md1").parent, Some(query.id));
        assert_eq!(by_name("stage md2").parent, Some(query.id));
        assert_eq!(by_name("task").parent, None, "other track doesn't nest");
        assert!(spans.iter().all(|s| s.dur_us.is_some()), "all closed");
    }

    #[test]
    fn span_args_are_recorded() {
        let obs = Obs::recording();
        {
            let mut g = obs
                .span(Track::Site(2), "ship")
                .with("rows", 42u64)
                .with("kind", "base");
            g.arg("bytes", 1024u64);
        }
        let spans = obs.recorder().unwrap().spans();
        assert_eq!(spans[0].args.len(), 3);
        assert_eq!(spans[0].args[0], ("rows", ArgValue::UInt(42)));
        assert_eq!(spans[0].args[2], ("bytes", ArgValue::UInt(1024)));
    }

    #[test]
    fn concurrent_writers_are_safe() {
        let obs = Obs::recording();
        let handles: Vec<_> = (0..8)
            .map(|site| {
                let obs = obs.clone();
                std::thread::spawn(move || {
                    for round in 0..50 {
                        let _g = obs
                            .span(Track::Site(site), format!("task r{round}"))
                            .with("round", round as u64);
                        obs.event(Track::Site(site), "tick", vec![]);
                        obs.counter_add("msgs", 1.0);
                        obs.hist("busy_s", 0.001 * (site + 1) as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let rec = obs.recorder().unwrap();
        assert_eq!(rec.spans().len(), 8 * 50);
        assert!(rec.spans().iter().all(|s| s.dur_us.is_some()));
        assert_eq!(rec.events().len(), 8 * 50);
        assert_eq!(rec.counters()["msgs"], 400.0);
        let hists = rec.histograms();
        assert_eq!(hists["busy_s"].count(), 400);
        // Per-track nesting stayed consistent: each site's spans are
        // all top-level (opened and closed sequentially per thread).
        assert!(rec.spans().iter().all(|s| s.parent.is_none()));
    }

    #[test]
    fn histogram_percentiles_are_close() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.record(i as f64 / 1000.0); // uniform 0.001..=1.0
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 0.5005).abs() < 1e-9);
        let p50 = h.percentile(50.0);
        assert!((0.40..0.62).contains(&p50), "p50 {p50}");
        let p99 = h.percentile(99.0);
        assert!((0.80..=1.0).contains(&p99), "p99 {p99}");
        assert_eq!(h.percentile(100.0), 1.0);
        assert!(h.min() >= 0.001 && h.max() <= 1.0);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_recording());
        let g = obs.span(Track::Coordinator, "query").with("rows", 1u64);
        drop(g);
        obs.event(Track::Net, "msg", vec![("bytes", 8u64.into())]);
        obs.counter("x", 1.0);
        obs.hist("h", 1.0);
        assert!(obs.recorder().is_none());
    }

    #[test]
    fn global_is_disabled_until_installed() {
        // Note: runs in the same process as other tests, so only check
        // the install transition, not the initial state.
        let before = global();
        let installed = install_global();
        assert!(installed.is_recording());
        let after = global();
        assert!(after.is_recording());
        drop(before);
    }
}
