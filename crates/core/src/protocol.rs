//! Wire protocol between the coordinator and the sites.
//!
//! Data that the paper's cost analysis counts — base-structure fragments
//! shipped down, sub-aggregate relations shipped up — travels as
//! codec-serialized payloads whose bytes are recorded by `skalla-net`.
//! The plan itself travels in-band too (`TAG_PLAN`, a few hundred bytes
//! broadcast once per query), as does the catalog handshake a remote
//! coordinator uses to learn site schemas (`TAG_CATALOG_REQ`/
//! `TAG_CATALOG`). Every message is payload-identical whichever transport
//! carries it, so the recorded traffic is transport-invariant.
//!
//! Every frame names its query ([`skalla_net::Message::query_id`], ids
//! from 1). Query id 0 is the control stream only: the catalog handshake
//! and the session-ending [`TAG_SHUTDOWN`].

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use skalla_net::Message;
use skalla_obs::json::{self, Json};
use skalla_obs::TelemetryDelta;
use skalla_relation::codec::{Decoder, Encoder};
use skalla_relation::{Bitmap, Column, Columns, Domain, DomainMap, Error, Relation, Result, Schema};

/// The protocol generation this build speaks, negotiated in the catalog
/// handshake ([`catalog_request`] carries it, [`catalog`] echoes it).
///
/// * **v1** — `[tag u8][len u32 LE]` frames, one query per connection.
/// * **v2** — `[tag u8][query_id u32 LE][len u32 LE]` frames: every
///   message names the query it belongs to, so persistent per-site
///   connections can interleave rounds of concurrent queries, released
///   individually by [`TAG_QUERY_DONE`].
/// * **v3** — v2 frames; the [`TAG_PLAN`] option block is one byte
///   shorter (a retired kernel-ablation flag), so a v2 peer would
///   misread every plan.
/// * **v4** — v2 frames; the option block loses two more bytes (the
///   probe-strategy and fault-injection knobs, both retired).
/// * **v5** — v2 frames; the option block loses the kernel switch (sites
///   run one kernel) and is 10 bytes: workers u32, morsel rows u32, one
///   byte each for the balancer and the cache.
/// * **v6** — v2 frames; the option block is the two kernel knobs, 8
///   bytes (balancing and caching are coordinator-side decisions), and a
///   site sends its heavy-hitter report only when the base round's
///   [`TAG_RUN_STAGE`] asks for one (a v5 site volunteered it, and
///   cannot read the request).
/// * **v7** — v2 frames; the skew balancer's tags 10–13 are retired and
///   [`TAG_RUN_STAGE`] loses its one-byte request tail, so a v6 peer
///   would misread every stage task.
/// * **v8** — v7 frames; the [`TAG_PLAN`] plan loses its trailing planner
///   notes (no site reads them), so a v7 peer would misread
///   every plan.
/// * **v9** — v7 frames; a site sends one [`TAG_TELEMETRY`] frame per
///   stage, just ahead of that stage's final [`TAG_RESULT`] (or its
///   [`TAG_ERROR`]), and [`TAG_QUERY_DONE`] is one-way; a [`TAG_CATALOG`]
///   entry loses its row count. A v8 site would answer `QUERY_DONE`
///   with a frame no one reads, and every catalog would misparse.
/// * **v10** — v7 frames; every relation body (a `RUN_STAGE` fragment, a
///   `RESULT`, a literal base in a `PLAN`) is columnar: per column an
///   encoding byte, a validity bitmap when the column holds a `NULL`, then
///   an `i64`/`f64` run, a string dictionary and codes, plain strings or
///   tagged cells ([`skalla_relation::codec`]). A v9 peer, which reads
///   tagged cells row by row, would misread every relation.
/// * **v11** — v10 frames without encoding byte 5, the tagged cells of a
///   column mixing types: a column is of its field's declared type, and a
///   decoder refuses a column encoded as another type. A v10 peer could
///   send a column this decoder refuses.
/// * **v12** — v11 frames; a site answers a unit against a shipped
///   fragment with its accumulator columns only, one row per fragment row
///   in fragment order, and a `RESULT` flag byte's bit 1 puts a
///   [`Survivors`] set ahead of the schema. A v11 coordinator would read
///   an accumulator column as the key.
/// * **v13** — v12 frames; a plan's site filter may be tag 3, *resident*:
///   that site's `RUN_STAGE` fragment is the rows it held for the previous
///   unit, in that order, without their key columns, which the site still
///   has and splices back in front. A v12 site would refuse the plan.
/// * **v14** — v13 frames; an `Int` column of any relation body may be
///   encoding byte 6, frame-of-reference bit-packed (its minimum, a width
///   byte, then each offset from the minimum in that many bits), whenever
///   that is smaller than its 8-byte run. A v13 peer would refuse the
///   encoding byte.
/// * **v15** — v14 frames; an `Int` column with no `NULL` whose values
///   never decrease may be encoding byte 7, delta-coded (its first value,
///   then the gaps packed as byte 6 packs values), whenever that is
///   strictly smaller than both other forms. Every keyed answer comes up
///   sorted by its key, and the coordinator refuses one that is not. A
///   v14 peer would refuse the encoding byte.
/// * **v16** — v15 frames without row blocking: a site answers each stage
///   in one `RESULT`, whose flag byte keeps only bit 1 (a survivor set
///   follows), and the [`TAG_PLAN`] payload loses its chunk flag. A v15
///   peer would misread every plan.
/// * **v17** — v16 frames; a `Double` column of any relation body may be
///   encoding byte 8, its values' IEEE bits read as `i64`s and packed as
///   byte 6 packs an `Int` column, whenever that is smaller than its
///   8-byte run; and a packed or delta-coded column (bytes 6, 7 and 8) in
///   a form the encoder would not write is refused. A v16 peer would
///   refuse the encoding byte.
pub const PROTOCOL_VERSION: u32 = 17;

/// Declares the frame-tag registry once: the [`Tag`] enum, its `TAG_*`
/// wire constants, [`Tag::ALL`] and [`Tag::name`] all come from this one
/// list, so none of them can miss a tag. A duplicate value or an
/// undocumented variant does not compile.
macro_rules! frame_tags {
    ($($(#[$doc:meta])* $variant:ident = $value:expr => $konst:ident;)+) => {
        /// The tag byte of a protocol frame. The frame catalog in
        /// `docs/ARCHITECTURE.md` lists the same tags, and a unit test
        /// below holds the two together.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Tag {
            $($(#[$doc])* $variant = $value,)+
        }

        $($(#[$doc])* pub const $konst: u8 = Tag::$variant as u8;)+

        impl Tag {
            /// Every tag, in declaration (= value) order.
            pub const ALL: &'static [Tag] = &[$(Tag::$variant),+];

            /// The name of the tag's wire constant, e.g. `"TAG_RUN_STAGE"`.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Tag::$variant => stringify!($konst),)+
                }
            }
        }
    };
}

frame_tags! {
    /// Coordinator → site: run a stage (optionally with a base fragment).
    RunStage = 1 => TAG_RUN_STAGE;
    /// Site → coordinator: a stage's result relation.
    Result = 2 => TAG_RESULT;
    /// Site → coordinator: execution failed.
    Error = 3 => TAG_ERROR;
    /// Coordinator → site, on the control stream: the session is over;
    /// the site joins its query workers and its session loop returns.
    Shutdown = 4 => TAG_SHUTDOWN;
    /// Coordinator → site: the distributed plan for the upcoming query. The
    /// payload is the cluster's kernel options (thread count, morsel size)
    /// followed by the encoded plan — see
    /// [`crate::plan_codec::encode_plan_with_options`].
    Plan = 5 => TAG_PLAN;
    /// Coordinator → site: describe your local warehouse. Sent once per
    /// session by a *remote* coordinator (TCP transport), which — unlike the
    /// in-process [`crate::Cluster`] — has no shared-memory view of the
    /// sites' tables, schemas, or partition domains, yet needs all three for
    /// plan validation and distribution-aware optimization.
    CatalogReq = 6 => TAG_CATALOG_REQ;
    /// Site → coordinator: the catalog reply — one [`SiteCatalogEntry`] per
    /// local table, sorted by table name so the payload is deterministic.
    Catalog = 7 => TAG_CATALOG;
    /// Coordinator → site: one query (named by the frame's query id) is
    /// finished; the site retires its per-query state and sends nothing
    /// back. Unlike [`TAG_SHUTDOWN`] — which ends the whole connection —
    /// the session and its other in-flight queries continue.
    QueryDone = 8 => TAG_QUERY_DONE;
    /// Site → coordinator, stamped with a query id: the site's
    /// [`SiteTelemetry`] for one stage, sent just ahead of that stage's
    /// [`TAG_RESULT`] (or its [`TAG_ERROR`]). The value is
    /// [`skalla_net::TELEMETRY_TAG`], which the transports exempt from
    /// byte accounting.
    Telemetry = skalla_net::TELEMETRY_TAG => TAG_TELEMETRY;
}

impl Tag {
    /// Whether the transports count this frame in [`skalla_net::NetStats`].
    /// The exemption itself lives in `NetStats::record_frame`; a unit
    /// test below checks that the two agree on every tag.
    pub const fn accounted(self) -> bool {
        match self {
            Tag::Telemetry => false,
            Tag::RunStage
            | Tag::Result
            | Tag::Error
            | Tag::Shutdown
            | Tag::Plan
            | Tag::CatalogReq
            | Tag::Catalog
            | Tag::QueryDone => true,
        }
    }
}

impl TryFrom<u8> for Tag {
    type Error = Error;

    /// The tag a frame's tag byte names; bytes outside the registry are
    /// remote input and come back as [`Error::Codec`].
    fn try_from(byte: u8) -> Result<Tag> {
        Tag::ALL
            .iter()
            .copied()
            .find(|t| *t as u8 == byte)
            .ok_or_else(|| Error::Codec(format!("unknown frame tag {byte}")))
    }
}

/// Encode a `RUN_STAGE` message: the stage index and, for a unit stage
/// that is not folded, the base fragment.
pub fn run_stage(stage: u32, fragment: Option<&Relation>) -> Message {
    let mut enc = Encoder::with_capacity(9 + fragment.map_or(0, |r| r.schema().encoded_size()));
    enc.put_u32(stage);
    match fragment {
        Some(rel) => {
            enc.put_u8(1);
            enc.put_relation(rel);
        }
        None => enc.put_u8(0),
    }
    Message::new(TAG_RUN_STAGE, enc.finish())
}

/// Decode a `RUN_STAGE` payload into `(stage, fragment, ())`.
///
/// The `()` stands where the retired skew request used to decode: the
/// benchmark's layer walk (`crates/bench/src/bin/e2e/layers.rs`)
/// destructures a 3-tuple, so the arity stays until ROADMAP item 1.
pub fn decode_run_stage(payload: &[u8]) -> Result<(u32, Option<Relation>, ())> {
    let mut dec = Decoder::new(payload);
    let stage = dec.get_u32()?;
    let fragment = match dec.get_u8()? {
        0 => None,
        1 => Some(dec.get_relation()?),
        t => return Err(Error::Codec(format!("bad fragment flag {t}"))),
    };
    if dec.remaining() != 0 {
        return Err(Error::Codec("trailing bytes in RUN_STAGE".into()));
    }
    Ok((stage, fragment, ()))
}

/// The `RESULT` flag byte's one bit: a [`Survivors`] set follows it.
const RESULT_SURVIVORS: u8 = 2;

/// Which rows of its fragment a site's answer to a unit against B holds
/// under Prop 1's site reduction: their positions, ascending. It rides in
/// the site's `RESULT` as `[fragment rows u32]`, then a bitmap over the
/// fragment, bit `i` for row `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Survivors {
    /// The fragment's row count.
    pub fragment_rows: usize,
    /// The answered rows' fragment positions, ascending.
    pub at: Vec<u32>,
}

impl Survivors {
    /// The fragment rows where `matched` is set.
    pub fn of(matched: &[bool]) -> Survivors {
        let at = (0..matched.len() as u32).filter(|&i| matched[i as usize]).collect();
        Survivors { fragment_rows: matched.len(), at }
    }

    /// The set's size on the wire.
    pub fn encoded_size(&self) -> usize {
        4 + self.fragment_rows.div_ceil(8)
    }

    fn put(&self, enc: &mut Encoder) {
        let mut bits = Bitmap::new(self.fragment_rows);
        self.at.iter().for_each(|&p| bits.set(p as usize));
        enc.put_u32(self.fragment_rows as u32);
        enc.put_bytes(bits.to_le_bytes());
    }

    fn get(dec: &mut Decoder<'_>) -> Result<Survivors> {
        let rows = dec.get_u32()? as usize;
        let bytes = dec.get_bytes(rows.div_ceil(8))?;
        let bits = Bitmap::from_le_bytes(bytes, rows)
            .ok_or_else(|| Error::Codec("survivor set sets bits past the fragment".into()))?;
        let at = (0..rows as u32).filter(|&i| bits.get(i as usize)).collect();
        Ok(Survivors { fragment_rows: rows, at })
    }
}

/// Encode a `RESULT` message: a site's whole answer to stage `stage`,
/// led by its `survivors`, if any, and encoded straight from the
/// relation's columns.
pub fn result_with(stage: u32, rel: &Relation, survivors: Option<&Survivors>) -> Message {
    let schema = rel.schema();
    let header = 9 + survivors.map_or(0, Survivors::encoded_size) + schema.encoded_size();
    let mut enc = Encoder::with_capacity(header);
    enc.put_u32(stage);
    enc.put_u8(if survivors.is_some() { RESULT_SURVIVORS } else { 0 });
    if let Some(s) = survivors {
        s.put(&mut enc);
    }
    enc.put_schema(schema);
    let cols: Vec<&Column> = (0..schema.len()).map(|c| rel.column(c)).collect();
    enc.put_columns(rel.len(), &cols);
    Message::new(TAG_RESULT, enc.finish())
}

/// Encode a `RESULT` message without a survivor set.
pub fn result(stage: u32, rel: &Relation) -> Message {
    result_with(stage, rel, None)
}

/// Decode a `RESULT` payload into `(stage, true, relation)`: the layer
/// walk's adapter (`crates/bench/src/bin/e2e/layers.rs` destructures a
/// 3-tuple), whose flag stands where the retired last-chunk flag used to
/// decode, so it is `true` on every frame. ROADMAP item 12 or 22 deletes
/// it.
pub fn decode_result(payload: &[u8]) -> Result<(u32, bool, Relation)> {
    let frame = decode_result_frame(payload)?;
    Ok((frame.stage, true, frame.relation()?))
}

/// A decoded `RESULT` payload: its header, its relation's schema and the
/// relation's columns as they arrived. [`ResultFrame::columns`] hands
/// them out for a merge to read in place; [`ResultFrame::relation`] makes
/// the relation over them.
#[derive(Debug)]
pub struct ResultFrame {
    /// The stage the result answers.
    pub stage: u32,
    /// The survivor set a site's answer by position carries under Prop 1.
    pub survivors: Option<Survivors>,
    schema: Schema,
    columns: Columns,
}

/// Decode a `RESULT` payload: its header and survivor set, then its
/// relation's schema and columns.
pub fn decode_result_frame(payload: &[u8]) -> Result<ResultFrame> {
    let mut dec = Decoder::new(payload);
    let stage = dec.get_u32()?;
    let survivors = match dec.get_u8()? {
        0 => None,
        RESULT_SURVIVORS => Some(Survivors::get(&mut dec)?),
        flags => return Err(Error::Codec(format!("bad RESULT flag byte {flags}"))),
    };
    let schema = dec.get_schema()?;
    let columns = dec.get_columns(&schema)?;
    if dec.remaining() != 0 {
        return Err(Error::Codec("trailing bytes in RESULT".into()));
    }
    Ok(ResultFrame { stage, survivors, schema, columns })
}

impl ResultFrame {
    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The relation's row count.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The relation's columns, one per schema field.
    pub fn columns(&self) -> &Columns {
        &self.columns
    }

    /// The relation over the columns ([`Relation::from_columns`]: they
    /// are its store). A keyed answer names its rows, so a survivor set
    /// on it is an error.
    pub fn relation(self) -> Result<Relation> {
        self.refuse_survivors("a keyed answer")?;
        Relation::from_columns(self.schema, self.columns)
    }

    /// The relation's columns, owned: a keyed answer's rows kept as they
    /// arrived, as its site's run.
    pub(crate) fn into_columns(self) -> Columns {
        self.columns
    }

    /// Refuse a survivor set, which only a site's answer to a unit
    /// against B may carry, on `what`.
    pub(crate) fn refuse_survivors(&self, what: &str) -> Result<()> {
        match self.survivors {
            Some(_) => Err(Error::Execution(format!("a survivor set on {what}"))),
            None => Ok(()),
        }
    }
}

/// Encode an `ERROR` message.
pub fn error(message: &str) -> Message {
    let mut enc = Encoder::new();
    enc.put_str(message);
    Message::new(TAG_ERROR, enc.finish())
}

/// Decode an `ERROR` payload.
pub fn decode_error(payload: &[u8]) -> String {
    Decoder::new(payload)
        .get_str()
        .unwrap_or_else(|_| "malformed error message".to_string())
}

/// Encode a `SHUTDOWN` message.
pub fn shutdown() -> Message {
    Message::new(TAG_SHUTDOWN, Vec::new())
}

/// Encode a `QUERY_DONE` message. The query it retires travels in the
/// frame's query id (stamped by the per-query transport handle), so the
/// payload is empty: releasing a query costs one zero-payload framing
/// charge per site, the same as [`shutdown`].
pub fn query_done() -> Message {
    Message::new(TAG_QUERY_DONE, Vec::new())
}

/// What a site ships back in a telemetry frame for one stage task: the
/// busy seconds it measured around the stage, plus (for standalone site
/// processes with their own recorder) the site's observability delta
/// since the last export. The frame's query id names the query. The
/// payload is UTF-8 JSON — `{"stage": n, "busy_s": secs, "obs": <delta
/// or null>}` — so operators can read captured frames directly; it never
/// enters the paper's traffic accounting (see [`TAG_TELEMETRY`]), so the
/// encoding optimizes for debuggability, not size.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SiteTelemetry {
    /// The stage index the busy time was measured for.
    pub stage: u32,
    /// Busy seconds of the stage task (thread CPU time).
    pub busy_s: f64,
    /// The site recorder's spans/events/counters/histograms since the
    /// last export; `None` when the site shares the coordinator's
    /// recorder (in-process backend) or runs without observability.
    pub obs: Option<TelemetryDelta>,
}

impl SiteTelemetry {
    /// The JSON form (see the struct docs for the shape).
    pub fn to_json(&self) -> Json {
        let obs = match &self.obs {
            Some(delta) => delta.to_json(),
            None => Json::Null,
        };
        Json::obj(vec![
            ("stage", Json::UInt(self.stage as u64)),
            ("busy_s", Json::Float(self.busy_s)),
            ("obs", obs),
        ])
    }

    /// Decode the JSON form.
    pub fn from_json(j: &Json) -> Result<SiteTelemetry> {
        let bad = |what: &str| Error::Codec(format!("telemetry: {what}"));
        let stage = j
            .get("stage")
            .and_then(Json::as_u64)
            .and_then(|s| u32::try_from(s).ok())
            .ok_or_else(|| bad("missing stage"))?;
        let busy_s = j
            .get("busy_s")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("missing busy seconds"))?;
        // The coordinator adds it to the stage's busy time unchecked.
        if !(busy_s.is_finite() && busy_s >= 0.0) {
            return Err(bad(&format!("busy seconds {busy_s} must be finite and non-negative")));
        }
        let obs = match j.get("obs") {
            None | Some(Json::Null) => None,
            Some(delta) => Some(TelemetryDelta::from_json(delta).map_err(Error::Codec)?),
        };
        Ok(SiteTelemetry { stage, busy_s, obs })
    }
}

/// Encode a site → coordinator telemetry frame. The caller stamps the
/// query id it answers for.
pub fn telemetry(t: &SiteTelemetry) -> Message {
    Message::new(TAG_TELEMETRY, t.to_json().to_json().into_bytes())
}

/// Decode a telemetry payload.
pub fn decode_telemetry(payload: &[u8]) -> Result<SiteTelemetry> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| Error::Codec(format!("telemetry payload is not UTF-8: {e}")))?;
    let j = json::parse(text).map_err(|e| Error::Codec(format!("telemetry JSON: {e}")))?;
    SiteTelemetry::from_json(&j)
}

/// What one site advertises about one of its tables in the catalog
/// handshake: enough for a remote coordinator to validate plans (schema)
/// and optimize with distribution knowledge (the site's φ domains).
#[derive(Debug, Clone, PartialEq)]
pub struct SiteCatalogEntry {
    /// Table name.
    pub table: String,
    /// The fragment's schema (identical across sites by construction).
    pub schema: Schema,
    /// This site's partition-domain description φᵢ for the table.
    pub domains: DomainMap,
}

fn put_domain(enc: &mut Encoder, d: &Domain) {
    match d {
        Domain::Any => enc.put_u8(0),
        Domain::IntRange(lo, hi) => {
            enc.put_u8(1);
            enc.put_i64(*lo);
            enc.put_i64(*hi);
        }
        Domain::Set(values) => {
            enc.put_u8(2);
            enc.put_u32(values.len() as u32);
            for v in values {
                enc.put_value(v);
            }
        }
    }
}

fn get_domain(dec: &mut Decoder<'_>) -> Result<Domain> {
    match dec.get_u8()? {
        0 => Ok(Domain::Any),
        1 => Ok(Domain::IntRange(dec.get_i64()?, dec.get_i64()?)),
        2 => {
            let n = dec.get_u32()? as usize;
            let mut values = Vec::with_capacity(n.min(dec.remaining()));
            for _ in 0..n {
                values.push(dec.get_value()?);
            }
            Ok(Domain::of(values))
        }
        t => Err(Error::Codec(format!("bad domain tag {t}"))),
    }
}

fn put_domain_map(enc: &mut Encoder, map: &DomainMap) {
    // DomainMap iterates in hash order; sort so the payload (and hence
    // the recorded byte counts) is deterministic.
    let mut columns: Vec<&str> = map.constrained_columns().collect();
    columns.sort_unstable();
    enc.put_u32(columns.len() as u32);
    for col in columns {
        enc.put_str(col);
        put_domain(enc, map.get(col));
    }
}

fn get_domain_map(dec: &mut Decoder<'_>) -> Result<DomainMap> {
    let n = dec.get_u32()? as usize;
    let mut map = DomainMap::new();
    for _ in 0..n {
        let col = dec.get_str()?;
        map.insert(col, get_domain(dec)?);
    }
    Ok(map)
}

/// Encode a `CATALOG_REQ` message, carrying the coordinator's
/// [`PROTOCOL_VERSION`] for negotiation.
pub fn catalog_request() -> Message {
    let mut enc = Encoder::new();
    enc.put_u32(PROTOCOL_VERSION);
    Message::new(TAG_CATALOG_REQ, enc.finish())
}

/// Decode a `CATALOG_REQ` payload into the coordinator's protocol
/// version. v1 coordinators sent an empty request, so an empty payload
/// decodes as version 1.
pub fn decode_catalog_request(payload: &[u8]) -> Result<u32> {
    if payload.is_empty() {
        return Ok(1);
    }
    let mut dec = Decoder::new(payload);
    let version = dec.get_u32()?;
    if dec.remaining() != 0 {
        return Err(Error::Codec("trailing bytes in CATALOG_REQ".into()));
    }
    Ok(version)
}

/// Encode a `CATALOG` reply. The payload leads with the site's
/// [`PROTOCOL_VERSION`] (completing the handshake negotiation); entries
/// are sorted by table name so every site produces a deterministic
/// payload for the same warehouse.
pub fn catalog(entries: &[SiteCatalogEntry]) -> Message {
    let mut sorted: Vec<&SiteCatalogEntry> = entries.iter().collect();
    sorted.sort_unstable_by(|a, b| a.table.cmp(&b.table));
    let mut enc = Encoder::new();
    enc.put_u32(PROTOCOL_VERSION);
    enc.put_u32(sorted.len() as u32);
    for e in sorted {
        enc.put_str(&e.table);
        enc.put_schema(&e.schema);
        put_domain_map(&mut enc, &e.domains);
    }
    Message::new(TAG_CATALOG, enc.finish())
}

/// Decode a `CATALOG` payload, verifying the site's protocol version
/// matches this coordinator's [`PROTOCOL_VERSION`].
pub fn decode_catalog(payload: &[u8]) -> Result<Vec<SiteCatalogEntry>> {
    let mut dec = Decoder::new(payload);
    let version = dec.get_u32()?;
    if version != PROTOCOL_VERSION {
        return Err(Error::Codec(format!(
            "protocol version mismatch: site speaks v{version}, this coordinator v{PROTOCOL_VERSION}"
        )));
    }
    let n = dec.get_u32()? as usize;
    let mut entries = Vec::with_capacity(n.min(dec.remaining()));
    for _ in 0..n {
        let table = dec.get_str()?;
        let schema = dec.get_schema()?;
        let domains = get_domain_map(&mut dec)?;
        entries.push(SiteCatalogEntry {
            table,
            schema,
            domains,
        });
    }
    if dec.remaining() != 0 {
        return Err(Error::Codec("trailing bytes in CATALOG".into()));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_relation::{row, DataType, Schema};

    fn rel() -> Relation {
        Relation::new(
            Schema::of(&[("k", DataType::Int)]),
            vec![row![1i64], row![2i64]],
        )
        .unwrap()
    }

    /// A result frame hands out the columns the relation is made of.
    #[test]
    fn result_columns_match_the_built_ones() {
        let b = Relation::new(
            Schema::of(&[("tag", DataType::Str), ("k", DataType::Int), ("x", DataType::Double)]),
            vec![row!["a", 1i64, 0.5], row!["b", 2i64, -0.0]],
        )
        .unwrap();
        let built = b.project(&["x", "k"]).unwrap();

        let payload = result(3, &built).payload;
        let frame = decode_result_frame(&payload).unwrap();
        assert_eq!((frame.stage, frame.len()), (3, 2));
        assert_eq!(frame.columns().to_rows(), built.rows());
        assert_eq!(frame.relation().unwrap(), built);
        let mut trailing = payload.clone();
        trailing.push(0);
        let err = decode_result_frame(&trailing).unwrap_err().to_string();
        assert!(err.contains("trailing bytes"), "a trailing byte is refused: {err}");
    }

    const ARCHITECTURE: &str = include_str!("../../../docs/ARCHITECTURE.md");

    /// The frame-catalog table of `docs/ARCHITECTURE.md`, one
    /// `(value, constant name, accounted)` per row.
    fn catalog_rows(doc: &str) -> Vec<(u8, String, bool)> {
        doc.lines()
            .skip_while(|l| !l.starts_with("| Tag | Name |"))
            .skip(2) // the header and its rule
            .take_while(|l| l.starts_with('|'))
            .map(|row| {
                let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
                let accounted = match cells[4].trim_start_matches('*') {
                    c if c.starts_with("yes") => true,
                    c if c.starts_with("no") => false,
                    c => panic!("Accounted? cell {c:?} says neither yes nor no"),
                };
                let name = format!("TAG_{}", cells[1].trim_matches('`'));
                (cells[0].parse().unwrap(), name, accounted)
            })
            .collect()
    }

    fn registry_rows() -> Vec<(u8, String, bool)> {
        Tag::ALL
            .iter()
            .map(|t| (*t as u8, t.name().to_string(), t.accounted()))
            .collect()
    }

    #[test]
    fn frame_catalog_in_the_docs_is_the_registry() {
        // Both ways at once: a documented tag the code lacks and a tag the
        // table lacks each make the two lists differ.
        assert_eq!(catalog_rows(ARCHITECTURE), registry_rows());

        // The check can fail: a dropped row, a wrong Accounted? cell, a
        // renamed tag and a row for a tag that does not exist.
        let telemetry = "| 9 | `TELEMETRY` | site → coord | stage index + busy seconds + span/counter delta, just ahead of the stage's `RESULT` or its `ERROR` | **no**";
        assert!(ARCHITECTURE.contains(telemetry));
        for doctored in [
            ARCHITECTURE.replace("| 8 | `QUERY_DONE` |", "cut: | 8 | `QUERY_DONE` |"),
            ARCHITECTURE.replace(telemetry, &telemetry.replace("**no**", "yes")),
            ARCHITECTURE.replace("| `CATALOG_REQ` |", "| `CATALOG_REQUEST` |"),
            ARCHITECTURE.replace(telemetry, &format!("| 10 | `GHOST` | a | b | yes |\n{telemetry}")),
        ] {
            assert_ne!(doctored, ARCHITECTURE, "the doctoring matched nothing");
            assert_ne!(catalog_rows(&doctored), registry_rows());
        }
    }

    #[test]
    fn transports_exempt_exactly_the_unaccounted_tags() {
        use skalla_net::{Direction, NetStats};
        for &tag in Tag::ALL {
            let stats = NetStats::new(1);
            let frame = Message::new(tag as u8, vec![0; 8]);
            stats.record_frame(0, Direction::Down, &frame);
            stats.record_frame(0, Direction::Up, &frame);
            let counted = stats.totals();
            assert_eq!(
                (counted.down_msgs, counted.up_msgs),
                if tag.accounted() { (1, 1) } else { (0, 0) },
                "{}",
                tag.name()
            );
        }
    }

    #[test]
    fn run_stage_round_trips_with_and_without_a_fragment() {
        for fragment in [None, Some(rel())] {
            let m = run_stage(2, fragment.as_ref());
            assert_eq!(m.tag, TAG_RUN_STAGE);
            assert_eq!(decode_run_stage(&m.payload).unwrap(), (2, fragment, ()));
        }
        // No tail: a stage task without a fragment is the index and the
        // flag byte, nothing more.
        assert_eq!(run_stage(2, None).payload, [2, 0, 0, 0, 0]);
        let mut flag = run_stage(2, None).payload;
        flag[4] = 2;
        assert!(decode_run_stage(&flag).is_err());
    }

    /// A `RESULT`'s flag byte is 0 without a survivor set; the walk's
    /// adapter reads `true` where the last-chunk flag used to be.
    #[test]
    fn result_round_trip() {
        let m = result(7, &rel());
        assert_eq!(m.payload[4], 0);
        let (stage, last, r) = decode_result(&m.payload).unwrap();
        assert_eq!((stage, last), (7, true));
        assert_eq!(r, rel());
    }

    /// A survivor set rides behind flag bit 1 as a bitmap over the
    /// fragment and decodes to the same set; a set off its fragment, any
    /// other flag bit — the retired last-chunk bit 0 too — and a cut set
    /// are refused.
    #[test]
    fn survivor_sets_round_trip_as_bitmaps() {
        let frame = |s: &Survivors| result_with(7, &rel(), Some(s)).payload;
        let dense = Survivors::of(&(0..100).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let sparse = Survivors::of(&(0..100).map(|i| i == 42 || i == 99).collect::<Vec<_>>());
        for s in [&dense, &sparse] {
            assert_eq!(s.encoded_size(), 4 + 13);
            let payload = frame(s);
            assert_eq!(payload[4], 2);
            assert_eq!(payload.len(), result(7, &rel()).payload.len() + 4 + 13);
            let frame = decode_result_frame(&payload).unwrap();
            assert_eq!(frame.survivors.as_ref(), Some(s));
            assert_eq!(frame.columns().to_rows(), rel().rows());
            assert!(frame.relation().unwrap_err().to_string().contains("a survivor set on a keyed answer"));
        }
        // Bytes 5.. are the set: fragment rows, then the bitmap.
        let mut past = frame(&dense);
        past[5 + 4 + 12] |= 0x80; // bit 103 of a 100-row bitmap
        let (mut last, mut both) = (result(7, &rel()).payload, frame(&sparse));
        last[4] = 1;
        both[4] = 2 | 1;
        for (payload, want) in [(past, "sets bits past the fragment"), (last, "bad RESULT flag byte 1"), (both, "bad RESULT flag byte 3")] {
            let err = decode_result_frame(&payload).unwrap_err().to_string();
            assert!(err.contains(want), "{err}");
        }
        let cut = frame(&dense);
        assert!(decode_result_frame(&cut[..5 + 10]).is_err());
    }

    #[test]
    fn error_round_trip() {
        let m = error("something broke");
        assert_eq!(decode_error(&m.payload), "something broke");
        assert_eq!(decode_error(&[0xFF]), "malformed error message");
    }

    #[test]
    fn catalog_round_trip_is_sorted_and_deterministic() {
        use skalla_relation::Value;
        let entries = vec![
            SiteCatalogEntry {
                table: "zeta".to_string(),
                schema: Schema::of(&[("k", DataType::Int)]),
                domains: DomainMap::new()
                    .with("k", Domain::IntRange(0, 9))
                    .with("tag", Domain::of([Value::Int(1), Value::Int(2)])),
            },
            SiteCatalogEntry {
                table: "alpha".to_string(),
                schema: Schema::of(&[("x", DataType::Double)]),
                domains: DomainMap::new(),
            },
        ];
        let m = catalog(&entries);
        assert_eq!(m.tag, TAG_CATALOG);
        let back = decode_catalog(&m.payload).unwrap();
        // Sorted by table name regardless of input order.
        assert_eq!(back[0].table, "alpha");
        assert_eq!(back[1].table, "zeta");
        assert_eq!(back[1].domains.get("k"), &Domain::IntRange(0, 9));
        assert_eq!(
            back[1].domains.get("tag"),
            &Domain::of([Value::Int(1), Value::Int(2)])
        );
        assert_eq!(back[1].domains.get("other"), &Domain::Any);
        // Deterministic payload: encoding twice yields identical bytes
        // (DomainMap iteration order must not leak into the wire form).
        assert_eq!(m.payload, catalog(&entries).payload);
        assert!(decode_catalog(&m.payload[..m.payload.len() - 1]).is_err());
    }

    #[test]
    fn handshake_negotiates_protocol_version() {
        let req = catalog_request();
        assert_eq!(req.tag, TAG_CATALOG_REQ);
        assert_eq!(
            decode_catalog_request(&req.payload).unwrap(),
            PROTOCOL_VERSION
        );
        // A v1 coordinator sent an empty request.
        assert_eq!(decode_catalog_request(&[]).unwrap(), 1);

        // A reply from a site speaking a different version — v7, the
        // last one with plan notes on the wire, v8, the last one that
        // answered QUERY_DONE and advertised row counts, v9, the last
        // one with row-encoded relations, v15, the last one with row
        // blocking, and v16, the last one with raw `Double` runs only,
        // included — is rejected with a diagnostic naming both.
        let m = catalog(&[]);
        for other in [7, 8, 9, 15, 16, 99] {
            let mut tampered = m.payload.clone();
            tampered[0] = other;
            let err = decode_catalog(&tampered).unwrap_err().to_string();
            assert!(err.contains("version mismatch"), "got: {err}");
            assert!(err.contains(&format!("v{other}")), "got: {err}");
            assert!(err.contains(&format!("v{PROTOCOL_VERSION}")), "got: {err}");
        }
    }

    #[test]
    fn query_done_is_zero_payload() {
        // QUERY_DONE must charge exactly what SHUTDOWN charges: one
        // zero-payload frame per site in the query's final round.
        assert_eq!(query_done().payload.len(), shutdown().payload.len());
        assert_eq!(query_done().tag, TAG_QUERY_DONE);
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert!(decode_run_stage(&[1, 0, 0, 0, 9]).is_err());
        assert!(decode_result(&[1]).is_err());
        // A v6 stage task (with its request tail) is a trailing byte now.
        let mut m = run_stage(1, None).payload;
        m.push(0);
        assert!(decode_run_stage(&m).is_err());
    }

    #[test]
    fn telemetry_round_trip() {
        let t = SiteTelemetry {
            stage: 2,
            busy_s: 0.125,
            obs: None,
        };
        let m = telemetry(&t);
        assert_eq!(m.tag, TAG_TELEMETRY);
        assert_eq!(m.tag, skalla_net::TELEMETRY_TAG, "accounting exemption tag");
        let back = decode_telemetry(&m.payload).unwrap();
        assert_eq!(back, t);
        assert!(decode_telemetry(&[]).is_err(), "empty");
        assert!(
            decode_telemetry(b"{\"stage\":1,\"obs\":null}").is_err(),
            "missing busy"
        );
        assert!(
            decode_telemetry(b"{\"stage\":4294967296,\"busy_s\":0.5}").is_err(),
            "stage > u32"
        );
        assert!(decode_telemetry(&[0xFF]).is_err(), "not UTF-8");
        for busy in ["-3.5", "-7", "1e999", "-1e999"] {
            let payload = format!("{{\"stage\":0,\"busy_s\":{busy}}}");
            assert!(
                matches!(decode_telemetry(payload.as_bytes()), Err(Error::Codec(_))),
                "busy_s {busy}"
            );
        }
    }
}
