//! The unified `Warehouse` API and the concurrent multi-query engine.
//!
//! The [`Warehouse`] trait is the interface an embedder plans and
//! executes against: learn the distribution, validate against the
//! catalog, execute a plan, get a [`QueryResult`] with identical
//! statistics whichever transport carried the bytes. Embedders hold a
//! `Box<dyn Warehouse>` and stop caring what is underneath.
//!
//! [`Skalla`] is the one runtime behind it: a multi-query engine over
//! **persistent per-site connections** — site threads on the channel
//! transport, or site processes over TCP. ([`Cluster`], the other
//! implementor, is assembled tables plus a one-shot `Skalla` per
//! `execute`.) The engine keeps the site links open and multiplexes
//! concurrent queries onto them:
//!
//! * admission control ([`crate::scheduler::QueryScheduler`]) bounds
//!   how many queries run and wait at once;
//! * each admitted query gets a fresh [`skalla_net::Message::query_id`]
//!   and a dedicated [`skalla_net::MuxHandle`] view of the shared
//!   links, so frames of interleaved queries route to the right
//!   per-query state on both ends (site side:
//!   [`crate::site::site_session_loop`]);
//! * per-query [`crate::stats::ExecStats`] — round labels, byte and
//!   message counts, site busy times — are **exactly** what the same
//!   plan records running alone, because each query's accounting lives
//!   on its own [`skalla_net::NetStats`].
//!
//! Build one with [`Skalla::builder`]:
//!
//! ```
//! use skalla_core::warehouse::{Skalla, Warehouse};
//! use skalla_core::plan::{OptFlags, Planner};
//! use skalla_gmdj::prelude::*;
//! use skalla_relation::{row, DataType, Domain, DomainMap, Relation, Schema};
//!
//! let schema = Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]);
//! let p0 = Relation::new(schema.clone(), vec![row![1i64, 10i64]]).unwrap();
//! let p1 = Relation::new(schema, vec![row![2i64, 5i64]]).unwrap();
//! let engine = Skalla::builder()
//!     .partitions("t", vec![
//!         (p0, DomainMap::new().with("g", Domain::IntRange(1, 1))),
//!         (p1, DomainMap::new().with("g", Domain::IntRange(2, 2))),
//!     ])
//!     .max_concurrent(2)
//!     .build()
//!     .unwrap();
//! let expr = GmdjExprBuilder::distinct_base("t", &["g"])
//!     .gmdj(Gmdj::new("t").block(
//!         ThetaBuilder::group_by(&["g"]).build(),
//!         vec![AggSpec::count("cnt")],
//!     ))
//!     .build();
//! let plan = Planner::new(engine.distribution()).optimize(&expr, OptFlags::all());
//! let out = engine.execute(&plan).unwrap();
//! assert_eq!(out.relation.len(), 2);
//! ```

use crate::cache::{plan_fingerprints, Fingerprint, Role, SemanticCache, DEFAULT_CACHE_BYTES};
use crate::cluster::Cluster;
use crate::coordinator::{finished_rounds, net_err, run_coordinator};
use crate::distribution::DistributionInfo;
use crate::plan::DistributedPlan;
use crate::protocol;
use crate::remote::catalog_handshake;
use crate::scheduler::{QueryScheduler, SchedulerConfig};
use crate::site::site_session_loop;
use crate::stats::{ExecStats, QueryResult, StageTimes};
use skalla_gmdj::eval::EvalOptions;
use skalla_net::{
    shaped_star, star, CoordinatorTransport, Link, QueryMux, SiteTransport, TcpConfig,
    TcpCoordinator,
};
use skalla_obs::{Obs, Track};
use skalla_relation::{DomainMap, Error, Relation, Result, Schema};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What an embedder needs to plan and execute distributed OLAP queries
/// without caring whether the sites are threads or processes. The
/// [`Skalla`] engine implements it for both backends; [`Cluster`]
/// implements it by running a one-shot engine, so everything returns
/// byte-identical results and identical logical traffic accounting for
/// the same plan.
pub trait Warehouse: Send + Sync {
    /// Number of warehouse sites.
    fn n_sites(&self) -> usize;

    /// The coordinator's distribution knowledge (feed this to
    /// [`crate::plan::Planner::new`]).
    fn distribution(&self) -> DistributionInfo;

    /// The plan-validation catalog: every table's schema, as (possibly
    /// empty) relations, `Arc`-shared (no per-call map clone).
    fn catalog(&self) -> Arc<HashMap<String, Arc<Relation>>>;

    /// The semantic result cache, when this runtime has one. Only a
    /// long-lived [`Skalla`] engine caches (a [`Cluster`] runs each plan
    /// on a fresh engine); callers such as the cube lattice use this to
    /// tally roll-up reuse without downcasting.
    fn semantic_cache(&self) -> Option<&SemanticCache> {
        None
    }

    /// Execute a distributed plan and return the result with full
    /// per-round statistics.
    fn execute(&self, plan: &DistributedPlan) -> Result<QueryResult>;
}

impl Warehouse for Cluster {
    fn n_sites(&self) -> usize {
        Cluster::n_sites(self)
    }

    fn distribution(&self) -> DistributionInfo {
        Cluster::distribution(self)
    }

    fn catalog(&self) -> Arc<HashMap<String, Arc<Relation>>> {
        self.site_catalog_shared(0)
    }

    fn execute(&self, plan: &DistributedPlan) -> Result<QueryResult> {
        Cluster::execute(self, plan)
    }
}

/// Everything an engine needs to know beyond where the data lives: the
/// per-site kernel options, coordinator timeouts, row blocking,
/// observability, the admission-control discipline, and the one
/// decision only the coordinator makes — whether (and how much) to
/// cache. [`Cluster::configure`] takes the
/// same struct for its one-shot runs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Kernel options shipped to every site with the plan.
    pub eval: EvalOptions,
    /// Per-round coordinator receive timeout.
    pub timeout: Duration,
    /// Row blocking: sites ship sub-results in chunks of this many rows
    /// (`None` or zero ships one message per stage).
    pub chunk_rows: Option<usize>,
    /// Observability handle; disabled by default.
    pub obs: Obs,
    /// Multi-query admission control (concurrency, queue bound, queue
    /// timeout).
    pub scheduler: SchedulerConfig,
    /// Byte budget of the semantic result cache: repeated plans are
    /// answered from the coordinator's sub-aggregate cache (and in-flight
    /// duplicates coalesce) instead of re-contacting the sites, with
    /// least-recently-used entries evicted past the budget.
    /// [`DEFAULT_CACHE_BYTES`] unless set ([`SkallaBuilder::cache_bytes`],
    /// CLI `--cache-bytes`). Zero turns the cache off (CLI `--no-cache`):
    /// no lookup, no coalescing, no insertion. A served result is the
    /// bit-identical relation the sites produced, so off only reproduces
    /// pre-cache traffic byte for byte.
    pub cache_bytes: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            eval: EvalOptions::default(),
            timeout: Duration::from_secs(120),
            chunk_rows: None,
            obs: Obs::disabled(),
            scheduler: SchedulerConfig::default(),
            cache_bytes: DEFAULT_CACHE_BYTES,
        }
    }
}

/// Where the engine's sites live.
enum BackendSpec {
    /// Not yet chosen — [`SkallaBuilder::build`] rejects this.
    Unset,
    /// In-process: one [`site_session_loop`] thread per site over the
    /// channel transport, serving the `Cluster`'s partitions.
    Local(Cluster),
    /// Multi-process: dial `skalla-cli site` processes over TCP.
    Remote {
        addrs: Vec<String>,
        tcp: TcpConfig,
    },
}

/// Builder for the concurrent [`Skalla`] engine: pick a backend
/// ([`SkallaBuilder::partitions`] or [`SkallaBuilder::remote`]), tune
/// the [`EngineConfig`], then [`SkallaBuilder::build`].
pub struct SkallaBuilder {
    cfg: EngineConfig,
    backend: BackendSpec,
    link: Option<Link>,
}

impl SkallaBuilder {
    /// Register a partitioned fact relation for the in-process backend:
    /// one `(fragment, φ-domains)` pair per site, in site order. The
    /// first call fixes the site count; later calls add more tables
    /// (see [`Cluster::add_table`] for the invariants). Replaces a
    /// previously configured [`SkallaBuilder::remote`] backend: the
    /// last backend chosen wins, in either order.
    ///
    /// # Panics
    /// Panics if the fragment count differs between tables.
    pub fn partitions<P: Into<(Relation, DomainMap)>>(
        mut self,
        table: impl Into<String>,
        parts: Vec<P>,
    ) -> SkallaBuilder {
        match &mut self.backend {
            BackendSpec::Local(cluster) => {
                cluster.add_table(table, parts);
            }
            BackendSpec::Unset | BackendSpec::Remote { .. } => {
                self.backend = BackendSpec::Local(Cluster::from_partitions(table, parts));
            }
        }
        self
    }

    /// Use the multi-process TCP backend: dial one site process per
    /// address (with the config's retry/backoff) at build time and keep
    /// the connections open for the engine's lifetime. Replaces any
    /// previously configured backend.
    pub fn remote(mut self, addrs: &[String], tcp: TcpConfig) -> SkallaBuilder {
        self.backend = BackendSpec::Remote {
            addrs: addrs.to_vec(),
            tcp,
        };
        self
    }

    /// Replace the whole [`EngineConfig`] at once.
    pub fn config(mut self, cfg: EngineConfig) -> SkallaBuilder {
        self.cfg = cfg;
        self
    }

    /// Local evaluation options used at every site.
    pub fn eval_options(mut self, eval: EvalOptions) -> SkallaBuilder {
        self.cfg.eval = eval;
        self
    }

    /// Per-round coordinator receive timeout.
    pub fn timeout(mut self, timeout: Duration) -> SkallaBuilder {
        self.cfg.timeout = timeout;
        self
    }

    /// Row blocking chunk size (`None` or zero ships one message per
    /// stage).
    pub fn chunk_rows(mut self, rows: Option<usize>) -> SkallaBuilder {
        self.cfg.chunk_rows = rows;
        self
    }

    /// Attach an observability handle: per-query spans land on
    /// [`Track::Query`] / [`Track::SiteQuery`] timelines with a
    /// `query_id` attribute.
    pub fn obs(mut self, obs: Obs) -> SkallaBuilder {
        self.cfg.obs = obs;
        self
    }

    /// How many queries may execute concurrently.
    pub fn max_concurrent(mut self, n: usize) -> SkallaBuilder {
        self.cfg.scheduler.max_concurrent = n;
        self
    }

    /// How many queries may wait for an execution slot before new
    /// arrivals are rejected.
    pub fn queue_capacity(mut self, n: usize) -> SkallaBuilder {
        self.cfg.scheduler.queue_capacity = n;
        self
    }

    /// How long a queued query waits for a slot before giving up.
    pub fn queue_timeout(mut self, timeout: Duration) -> SkallaBuilder {
        self.cfg.scheduler.queue_timeout = timeout;
        self
    }

    /// Byte budget for the semantic result cache (see
    /// [`EngineConfig::cache_bytes`]).
    pub fn cache_bytes(mut self, bytes: usize) -> SkallaBuilder {
        self.cfg.cache_bytes = bytes;
        self
    }

    /// Shape the in-process sites' links to `link`
    /// ([`skalla_net::shaped`]), so wall time is that network's; results
    /// and traffic are unchanged. `build` rejects it with `remote` sites.
    pub fn link(mut self, link: Link) -> SkallaBuilder {
        self.link = Some(link);
        self
    }

    /// Stand the engine up: spawn the site threads (local) or dial the
    /// sites and run the versioned catalog handshake (remote), start
    /// the query multiplexer, and return the ready engine.
    pub fn build(self) -> Result<Skalla> {
        match self.backend {
            BackendSpec::Unset => Err(Error::Execution(
                "SkallaBuilder: no warehouse backend configured \
                 (call partitions() or remote())"
                    .into(),
            )),
            BackendSpec::Local(cluster) => Skalla::start_local(&cluster, self.cfg, self.link),
            BackendSpec::Remote { .. } if self.link.is_some() => Err(Error::Execution(
                "SkallaBuilder: link() shapes in-process sites; remote sites have a real network"
                    .into(),
            )),
            BackendSpec::Remote { addrs, tcp } => {
                if addrs.is_empty() {
                    return Err(Error::Execution("a cluster needs at least one site".into()));
                }
                let coord = TcpCoordinator::connect(&addrs, &tcp).map_err(net_err)?;
                // The handshake rides the shared connection (query id 0)
                // and is charged to the shared transport's pre-query
                // round, never to any query's stats.
                let (dist, catalog) = catalog_handshake(&coord)?;
                Skalla::over(
                    dist,
                    Arc::new(catalog),
                    Arc::new(coord),
                    Vec::new(),
                    self.cfg,
                )
            }
        }
    }
}

/// The concurrent multi-query engine: persistent per-site connections,
/// a query multiplexer, and admission control in front.
///
/// [`Skalla::execute`] is safe to call from many threads at once — that
/// is the point. Each call is admitted by the scheduler (possibly
/// waiting for a slot), assigned a query id, and driven by the
/// coordinator algorithm over its own multiplexed transport view.
/// Dropping the engine releases the sites
/// (shutdown broadcast on the shared connection) and joins the
/// machinery.
///
/// Construct with [`Skalla::builder`]; see the module docs for an
/// example.
pub struct Skalla {
    dist: DistributionInfo,
    catalog: Arc<HashMap<String, Arc<Relation>>>,
    cache: SemanticCache,
    mux: QueryMux,
    scheduler: QueryScheduler,
    cfg: EngineConfig,
    /// The in-process backend's site threads (empty for remote sites).
    site_threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Skalla {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Skalla")
            .field("n_sites", &self.mux.n_sites())
            .field("tables", &self.catalog.keys().collect::<Vec<_>>())
            .field("max_concurrent", &self.scheduler.config().max_concurrent)
            .finish()
    }
}

impl Skalla {
    /// Start configuring an engine.
    pub fn builder() -> SkallaBuilder {
        SkallaBuilder {
            cfg: EngineConfig::default(),
            backend: BackendSpec::Unset,
            link: None,
        }
    }

    /// An engine over in-process sites serving `cluster`'s partitions:
    /// one [`site_session_loop`] thread per site on the channel
    /// transport, its links shaped to `link` when one is given.
    pub(crate) fn start_local(
        cluster: &Cluster,
        cfg: EngineConfig,
        link: Option<Link>,
    ) -> Result<Skalla> {
        let n = cluster.n_sites();
        type Site = Arc<dyn SiteTransport + Sync>;
        let (coord, site_nets): (Arc<dyn CoordinatorTransport + Sync>, Vec<Site>) = match link {
            None => {
                let (coord, sites) = star(n);
                (Arc::new(coord), sites.into_iter().map(|s| Arc::new(s) as Site).collect())
            }
            Some(link) => {
                let (coord, sites) = shaped_star(n, link);
                (Arc::new(coord), sites.into_iter().map(|s| Arc::new(s) as Site).collect())
            }
        };
        let mut site_threads = Vec::with_capacity(n);
        for (site, site_net) in site_nets.into_iter().enumerate() {
            let catalog = cluster.site_catalog_shared(site);
            let obs = cfg.obs.clone();
            let handle = std::thread::Builder::new()
                .name(format!("skalla-site-{site}"))
                .spawn(move || {
                    // In-process sites share the coordinator's recorder,
                    // so they must not export obs deltas (importing them
                    // would duplicate every span); busy times still
                    // travel in each stage's telemetry frame.
                    site_session_loop(&catalog, site_net, false, &obs)
                })
                .map_err(|e| Error::Execution(format!("spawning site thread: {e}")))?;
            site_threads.push(handle);
        }
        Skalla::over(
            cluster.distribution(),
            cluster.site_catalog_shared(0),
            coord,
            site_threads,
            cfg,
        )
    }

    /// The engine state over an established star of site links.
    fn over(
        dist: DistributionInfo,
        catalog: Arc<HashMap<String, Arc<Relation>>>,
        coord: Arc<dyn CoordinatorTransport + Sync>,
        site_threads: Vec<JoinHandle<()>>,
        cfg: EngineConfig,
    ) -> Result<Skalla> {
        Ok(Skalla {
            dist,
            catalog,
            cache: SemanticCache::new(cfg.cache_bytes),
            mux: QueryMux::new(coord).map_err(|e| Error::Execution(e.to_string()))?,
            scheduler: QueryScheduler::new(cfg.scheduler.clone()),
            cfg,
            site_threads,
        })
    }

    /// Number of warehouse sites.
    pub fn n_sites(&self) -> usize {
        self.mux.n_sites()
    }

    /// The coordinator's distribution knowledge (feed this to
    /// [`crate::plan::Planner::new`]).
    pub fn distribution(&self) -> DistributionInfo {
        self.dist.clone()
    }

    /// The plan-validation catalog.
    pub fn catalog(&self) -> &HashMap<String, Arc<Relation>> {
        &self.catalog
    }

    /// The semantic result cache (inspect hit/miss/roll-up counters,
    /// budget, and partition epoch).
    pub fn semantic_cache(&self) -> &SemanticCache {
        &self.cache
    }

    /// Bump the partition epoch after an external catalog or partition
    /// mutation (e.g. a remote site swapped a partition in place): every
    /// cached result and prefix snapshot becomes unreachable at once,
    /// so no later query can be answered from pre-swap data.
    pub fn bump_partition_epoch(&self) -> u64 {
        self.cache.bump_epoch()
    }

    /// The admission controller (inspect running/waiting counts).
    pub fn scheduler(&self) -> &QueryScheduler {
        &self.scheduler
    }

    /// The engine configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Execute a distributed plan as one admitted query. Blocks while
    /// the admission queue holds it; fails fast with a clean error when
    /// the queue is full or the queue timeout expires. Statistics are
    /// per-query: round labels and byte/message counts are what the plan
    /// records running alone, and site busy times are reported by the
    /// sites themselves on both backends (shipped in each round's
    /// accounting-exempt telemetry frames, so they cost the byte counts
    /// nothing).
    /// With a non-zero [`EngineConfig::cache_bytes`], execution consults
    /// the semantic cache first: a query whose fingerprint is cached is
    /// answered without contacting sites (its stats show one zero-byte
    /// `"cache"` round, [`ExecStats::is_cache_hit`]); an identical
    /// query already in flight is coalesced onto the leader's result;
    /// and an executing query resumes from its longest cached stage
    /// prefix. All three paths return results bit-identical to a cold
    /// run.
    pub fn execute(&self, plan: &DistributedPlan) -> Result<QueryResult> {
        let admitted = self.scheduler.admit();
        self.publish_scheduler_gauges();
        let permit = admitted.map_err(|e| Error::Execution(format!("admission: {e}")))?;
        let result = self.execute_admitted(plan);
        drop(permit);
        self.publish_scheduler_gauges();
        self.publish_cache_gauges();
        if let Ok(out) = &result {
            self.cfg.obs.hist("query.wall_s", out.stats.wall_s);
        }
        result
    }

    /// The cache-routing half of [`Skalla::execute`] (runs holding the
    /// admission permit): full-result hit → coalesce onto an in-flight
    /// leader → execute (resuming from the longest cached prefix).
    fn execute_admitted(&self, plan: &DistributedPlan) -> Result<QueryResult> {
        let wall_start = Instant::now();
        let fps = if self.cfg.cache_bytes > 0 {
            plan_fingerprints(plan, &self.cfg.eval)
        } else {
            Vec::new()
        };
        // One fingerprint per stage: none when the cache is off or the
        // plan is empty.
        let Some(&full_fp) = fps.last() else {
            let query_id = self.scheduler.next_query_id();
            return self.run_query(plan, query_id, None);
        };
        if let Some(relation) = self.cache.lookup(full_fp) {
            self.cache.tally_hit();
            return Ok(QueryResult {
                relation,
                stats: ExecStats::cache_hit(self.n_sites(), wall_start.elapsed().as_secs_f64()),
            });
        }
        match self.cache.join_or_lead(full_fp) {
            Role::Follower(flight) => {
                // A follower keeps its admission permit while waiting:
                // the leader holds its own, so there is no circular
                // wait, and a released-then-reacquired permit would
                // let admission overshoot while results are pending.
                if let Some(relation) = flight.wait(self.coalesce_timeout(plan)) {
                    self.scheduler.record_coalesced();
                    self.cache.tally_coalesced();
                    return Ok(QueryResult {
                        relation,
                        stats: ExecStats::cache_hit(
                            self.n_sites(),
                            wall_start.elapsed().as_secs_f64(),
                        ),
                    });
                }
                // The leader failed (or the wait timed out): execute
                // directly rather than propagating its error.
                self.cache.tally_miss();
                let query_id = self.scheduler.next_query_id();
                self.run_query(plan, query_id, Some(&fps))
            }
            Role::Leader(token) => {
                // The previous leader may have finished between our
                // lookup miss and the registration — re-check before
                // paying for an execution.
                if let Some(relation) = self.cache.lookup(full_fp) {
                    token.finish(Some(&relation));
                    self.cache.tally_hit();
                    return Ok(QueryResult {
                        relation,
                        stats: ExecStats::cache_hit(
                            self.n_sites(),
                            wall_start.elapsed().as_secs_f64(),
                        ),
                    });
                }
                self.cache.tally_miss();
                let query_id = self.scheduler.next_query_id();
                let result = self.run_query(plan, query_id, Some(&fps));
                token.finish(result.as_ref().ok().map(|out| &out.relation));
                result
            }
        }
    }

    /// How long a coalescing follower waits for its leader: the leader
    /// runs one plan round plus one bounded round per stage, so its
    /// worst case is covered with one extra round of slack.
    fn coalesce_timeout(&self, plan: &DistributedPlan) -> Duration {
        self.cfg
            .timeout
            .saturating_mul(plan.stages.len().saturating_add(2) as u32)
    }

    /// Mirror the scheduler's state into obs counters, so the live
    /// metrics endpoint can expose queue depth, in-flight count, and
    /// lifetime admission totals.
    fn publish_scheduler_gauges(&self) {
        let obs = &self.cfg.obs;
        if !obs.is_recording() {
            return;
        }
        obs.counter("scheduler.running", self.scheduler.running() as f64);
        obs.counter("scheduler.waiting", self.scheduler.waiting() as f64);
        obs.counter(
            "scheduler.admitted_total",
            self.scheduler.admitted_total() as f64,
        );
        obs.counter(
            "scheduler.rejected_total",
            self.scheduler.rejected_total() as f64,
        );
        obs.counter(
            "scheduler.timed_out_total",
            self.scheduler.timed_out_total() as f64,
        );
        obs.counter(
            "scheduler.coalesced_total",
            self.scheduler.coalesced_total() as f64,
        );
    }

    /// Mirror the semantic cache's counters into obs, so the live
    /// metrics endpoint exposes hit rate, roll-up reuse, and occupancy
    /// (`skalla_cache_hits`, `skalla_cache_bytes`, …).
    fn publish_cache_gauges(&self) {
        let obs = &self.cfg.obs;
        if !obs.is_recording() {
            return;
        }
        let s = self.cache.stats();
        obs.counter("cache.hits", s.hits as f64);
        obs.counter("cache.misses", s.misses as f64);
        obs.counter("cache.coalesced", s.coalesced as f64);
        obs.counter("cache.prefix_hits", s.prefix_hits as f64);
        obs.counter("cache.rollups", s.rollups as f64);
        obs.counter("cache.bytes", s.bytes as f64);
        obs.counter("cache.entries", s.entries as f64);
        obs.counter("cache.epoch", s.epoch as f64);
    }

    /// The executing half of [`Skalla::execute`]. Per-query accounting:
    /// round 0 stays empty (sliced off), the "plan" round carries the
    /// plan broadcast, each stage gets its round, and the query-done
    /// release (zero payload, one framing charge per site) lands in the
    /// last round.
    ///
    /// `fps` (the per-prefix fingerprints, when caching) turns on
    /// prefix reuse: execution resumes from the longest cached stage
    /// prefix, and every synchronized snapshot plus the final result is
    /// inserted back — under the epoch captured *before* execution, so
    /// a concurrent partition swap drops the insertions instead of
    /// storing stale entries.
    fn run_query(
        &self,
        plan: &DistributedPlan,
        query_id: u32,
        fps: Option<&[Fingerprint]>,
    ) -> Result<QueryResult> {
        let n = self.n_sites();
        let wall_start = Instant::now();
        plan.check_structure(n)?;
        let schemas = plan.expr.validate(self.catalog.as_ref())?;
        let detail_schemas: HashMap<String, Schema> = self
            .catalog
            .iter()
            .map(|(k, v)| (k.clone(), v.schema().clone()))
            .collect();

        let handle = self.mux.register(query_id);
        handle.stats().set_obs(self.cfg.obs.clone());
        let mut query_span = self
            .cfg
            .obs
            .span(Track::Query(query_id), "query")
            .with("sites", n)
            .with("rounds", plan.n_rounds())
            .with("query_id", query_id as u64);

        // Prefix reuse: resume from the longest cached snapshot (never
        // the full-plan entry — that's the full-hit path), and capture
        // the epoch every insertion must still match.
        let epoch = self.cache.epoch();
        let resume = fps.and_then(|fps| {
            (0..fps.len().saturating_sub(1))
                .rev()
                .find_map(|j| self.cache.lookup(fps[j]).map(|rel| (j, rel)))
        });
        if resume.is_some() {
            self.cache.tally_prefix_hit();
        }
        let mut snaps: Vec<(usize, Relation)> = Vec::new();

        handle.stats().begin_round("plan");
        let plan_bytes =
            crate::plan_codec::encode_plan_with_options(plan, &self.cfg.eval, self.cfg.chunk_rows);
        let plan_msg = skalla_net::Message::new(protocol::TAG_PLAN, plan_bytes);
        let dispatch = handle.broadcast(&plan_msg).map_err(net_err);

        let run = dispatch.and_then(|()| {
            run_coordinator(
                &handle,
                plan,
                &schemas,
                &detail_schemas,
                &self.cfg,
                query_id,
                resume,
                fps.is_some().then_some(&mut snaps),
            )
        });

        // Always retire this query's site workers, even on error. The
        // release is one-way: each stage's site telemetry came back in
        // its own round.
        let _ = handle.broadcast(&protocol::query_done());

        let (relation, mut stage_times) = run?;
        if let Some(fps) = fps {
            for (j, rel) in &snaps {
                self.cache.insert_at(fps[*j], epoch, rel);
            }
            if let Some(full_fp) = fps.last() {
                self.cache.insert_at(*full_fp, epoch, &relation);
            }
        }
        stage_times.insert(
            0,
            StageTimes {
                label: "plan".to_string(),
                site_busy_s: vec![0.0; n],
                ..StageTimes::default()
            },
        );
        let net = finished_rounds(handle.stats());
        query_span.arg("result_rows", relation.len());
        query_span.finish();
        Ok(QueryResult {
            relation,
            stats: ExecStats {
                stages: stage_times,
                net,
                wall_s: wall_start.elapsed().as_secs_f64(),
            },
        })
    }
}

impl Warehouse for Skalla {
    fn n_sites(&self) -> usize {
        Skalla::n_sites(self)
    }

    fn distribution(&self) -> DistributionInfo {
        Skalla::distribution(self)
    }

    fn catalog(&self) -> Arc<HashMap<String, Arc<Relation>>> {
        Arc::clone(&self.catalog)
    }

    fn semantic_cache(&self) -> Option<&SemanticCache> {
        Some(&self.cache)
    }

    fn execute(&self, plan: &DistributedPlan) -> Result<QueryResult> {
        Skalla::execute(self, plan)
    }
}

impl Drop for Skalla {
    fn drop(&mut self) {
        // Release the sites on the shared control stream (query id 0),
        // then stop the dispatcher and join the local site threads.
        let _ = self.mux.shared_transport().broadcast(&protocol::shutdown());
        self.mux.shutdown();
        for h in self.site_threads.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OptFlags, Planner};
    use skalla_gmdj::prelude::*;
    use skalla_relation::{row, DataType, Domain};

    fn parts() -> Vec<(Relation, DomainMap)> {
        let schema = Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]);
        let p0 = Relation::new(
            schema.clone(),
            vec![row![1i64, 10i64], row![1i64, 30i64], row![2i64, 5i64]],
        )
        .unwrap();
        let p1 = Relation::new(schema, vec![row![3i64, 7i64], row![3i64, 9i64]]).unwrap();
        vec![
            (p0, DomainMap::new().with("g", Domain::IntRange(1, 2))),
            (p1, DomainMap::new().with("g", Domain::IntRange(3, 3))),
        ]
    }

    fn expr() -> GmdjExpr {
        GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("cnt"), AggSpec::avg("v", "avg")],
            ))
            .gmdj(
                Gmdj::new("t").block(
                    ThetaBuilder::group_by(&["g"])
                        .and(Expr::dcol("v").ge(Expr::bcol("avg")))
                        .build(),
                    vec![AggSpec::count("above")],
                ),
            )
            .build()
    }

    fn engine() -> Skalla {
        Skalla::builder().partitions("t", parts()).build().unwrap()
    }

    /// An engine with the semantic cache off, for tests that assert
    /// repeat executions re-contact the sites.
    fn engine_without_cache() -> Skalla {
        Skalla::builder()
            .partitions("t", parts())
            .config(cache_off())
            .build()
            .unwrap()
    }

    fn cache_off() -> EngineConfig {
        EngineConfig {
            cache_bytes: 0,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn default_config_caches() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.cache_bytes, DEFAULT_CACHE_BYTES);
    }

    /// Canonical row order: site replies arrive in nondeterministic
    /// order, so bit-identity is asserted on the key-sorted relation.
    fn canonical(rel: &Relation) -> Relation {
        rel.sorted_by(&["g"]).unwrap()
    }

    /// The one-at-a-time reference: the plan alone on a fresh engine.
    fn serial(plan: &DistributedPlan) -> QueryResult {
        Cluster::from_partitions("t", parts()).execute(plan).unwrap()
    }

    #[test]
    fn sequential_queries_reuse_the_session() {
        // Cache off: this asserts the *session* is reused (identical
        // traffic on a repeat run), which requires re-executing.
        let e = engine_without_cache();
        let planner = Planner::new(e.distribution());
        let p1 = planner.optimize(&expr(), OptFlags::none());
        let p2 = planner.optimize(&expr(), OptFlags::all());
        let r1 = e.execute(&p1).unwrap();
        let r2 = e.execute(&p2).unwrap();
        let r3 = e.execute(&p1).unwrap();
        assert!(r1.relation.same_bag(&r2.relation));
        assert_eq!(canonical(&r1.relation), canonical(&r3.relation));
        assert_eq!(r1.stats.net, r3.stats.net, "repeat runs account equally");
    }

    #[test]
    fn concurrent_queries_each_match_serial() {
        // Cache off: two of the plans are identical, and with caching
        // on they would deliberately coalesce instead of re-executing.
        let e = Arc::new(
            Skalla::builder()
                .partitions("t", parts())
                .config(cache_off())
                .max_concurrent(4)
                .build()
                .unwrap(),
        );
        let planner = Planner::new(e.distribution());
        let plans: Vec<DistributedPlan> = vec![
            planner.optimize(&expr(), OptFlags::none()),
            planner.optimize(&expr(), OptFlags::all()),
            planner.optimize(&expr(), OptFlags::group_reduction_only()),
            planner.optimize(&expr(), OptFlags::none()),
        ];
        let serial_outs: Vec<QueryResult> = plans.iter().map(serial).collect();
        let handles: Vec<_> = plans
            .into_iter()
            .map(|p| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || e.execute(&p).unwrap())
            })
            .collect();
        for (h, want) in handles.into_iter().zip(serial_outs) {
            let got = h.join().unwrap();
            assert_eq!(
                canonical(&got.relation),
                canonical(&want.relation),
                "bit-identical result"
            );
            assert_eq!(got.stats.net, want.stats.net, "per-query traffic");
        }
    }

    #[test]
    fn admission_queue_full_is_a_clean_error() {
        // One slot, no waiting room: while a query holds the slot, the
        // next is rejected. We hold the slot via the scheduler directly
        // (execute() would release it too quickly to race against).
        let e = Skalla::builder()
            .partitions("t", parts())
            .max_concurrent(1)
            .queue_capacity(0)
            .build()
            .unwrap();
        let _slot = e.scheduler().admit().unwrap();
        let plan = Planner::new(e.distribution()).optimize(&expr(), OptFlags::none());
        let err = e.execute(&plan).unwrap_err();
        assert!(err.to_string().contains("queue full"), "{err}");
    }

    #[test]
    fn admission_queue_timeout_is_a_clean_error() {
        let e = Skalla::builder()
            .partitions("t", parts())
            .max_concurrent(1)
            .queue_capacity(4)
            .queue_timeout(Duration::from_millis(50))
            .build()
            .unwrap();
        let _slot = e.scheduler().admit().unwrap();
        let plan = Planner::new(e.distribution()).optimize(&expr(), OptFlags::none());
        let err = e.execute(&plan).unwrap_err();
        assert!(err.to_string().contains("timed out"), "{err}");
    }

    #[test]
    fn builder_without_backend_is_rejected() {
        let err = Skalla::builder().build().unwrap_err();
        assert!(err.to_string().contains("no warehouse backend"), "{err}");
    }

    #[test]
    fn last_backend_chosen_wins_in_either_order() {
        // No address is ever dialled: an empty remote() is rejected by
        // build() before connecting, which is how we see it won.
        let e = Skalla::builder()
            .remote(&[], TcpConfig::default())
            .partitions("t", parts())
            .build()
            .unwrap();
        assert_eq!(e.n_sites(), 2, "partitions() after remote() is local");
        let err = Skalla::builder()
            .partitions("t", parts())
            .remote(&[], TcpConfig::default())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("at least one site"), "{err}");
        let err = Skalla::builder()
            .remote(&["127.0.0.1:1".to_string()], TcpConfig::default())
            .link(Link::lan())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("link() shapes in-process sites"), "{err}");
    }

    #[test]
    fn warehouse_trait_dispatches_over_both_impls() {
        let plan_of = |w: &dyn Warehouse| {
            Planner::new(w.distribution()).optimize(&expr(), OptFlags::all())
        };
        let cluster: Box<dyn Warehouse> = Box::new(Cluster::from_partitions("t", parts()));
        let engine: Box<dyn Warehouse> = Box::new(engine());
        let a = cluster.execute(&plan_of(cluster.as_ref())).unwrap();
        let b = engine.execute(&plan_of(engine.as_ref())).unwrap();
        assert_eq!(canonical(&a.relation), canonical(&b.relation));
        assert_eq!(a.stats.net, b.stats.net);
        assert_eq!(cluster.n_sites(), 2);
        assert!(cluster.catalog().contains_key("t"));
    }

    #[test]
    fn repeated_query_is_served_from_cache() {
        let e = engine();
        let plan = Planner::new(e.distribution()).optimize(&expr(), OptFlags::none());
        let cold = e.execute(&plan).unwrap();
        assert!(!cold.stats.is_cache_hit());
        let warm = e.execute(&plan).unwrap();
        assert!(warm.stats.is_cache_hit(), "second run must hit");
        assert_eq!(warm.stats.total_bytes(), 0, "no site contact");
        assert_eq!(canonical(&warm.relation), canonical(&cold.relation));
        let s = e.semantic_cache().stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn label_and_theta_variants_hit_the_same_entry() {
        // Structural fingerprinting: a re-planned query with renamed
        // stage labels and reordered θ conjuncts is the same query.
        let e = engine();
        let planner = Planner::new(e.distribution());
        let theta = |flip: bool| {
            let a = Expr::dcol("g").eq(Expr::bcol("g"));
            let b = Expr::dcol("v").ge(Expr::lit(5i64));
            if flip {
                b.and(a)
            } else {
                a.and(b)
            }
        };
        let build = |flip: bool| {
            GmdjExprBuilder::distinct_base("t", &["g"])
                .gmdj(Gmdj::new("t").block(theta(flip), vec![AggSpec::count("cnt")]))
                .build()
        };
        let p1 = planner.optimize(&build(false), OptFlags::none());
        let mut p2 = planner.optimize(&build(true), OptFlags::none());
        for s in &mut p2.stages {
            s.label = format!("renamed {}", s.label);
        }
        let cold = e.execute(&p1).unwrap();
        let warm = e.execute(&p2).unwrap();
        assert!(warm.stats.is_cache_hit(), "θ order / labels are cosmetic");
        assert_eq!(canonical(&warm.relation), canonical(&cold.relation));
    }

    #[test]
    fn longer_chain_resumes_from_cached_prefix() {
        let e = engine();
        let planner = Planner::new(e.distribution());
        let short = GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("cnt"), AggSpec::avg("v", "avg")],
            ))
            .build();
        let p_short = planner.optimize(&short, OptFlags::none());
        let p_long = planner.optimize(&expr(), OptFlags::none());
        e.execute(&p_short).unwrap();
        let resumed = e.execute(&p_long).unwrap();
        // The long chain extends the short one, so its base + gmdj 1
        // prefix is answered from the short query's cached result; only
        // the final stage touches the wire.
        let serial_out = serial(&p_long);
        assert_eq!(canonical(&resumed.relation), canonical(&serial_out.relation));
        assert_eq!(e.semantic_cache().stats().prefix_hits, 1);
        assert_eq!(resumed.stats.stages.len(), serial_out.stats.stages.len());
        let bytes: Vec<u64> = resumed
            .stats
            .net
            .iter()
            .map(|r| r.totals().total_bytes())
            .collect();
        // Rounds: plan, base (skipped), gmdj 1 (skipped), gmdj 2.
        assert_eq!(bytes[1], 0, "base round resumed from cache");
        assert_eq!(bytes[2], 0, "gmdj 1 round resumed from cache");
        assert!(bytes[3] > 0, "final stage executed");
    }

    #[test]
    fn concurrent_identical_queries_contact_sites_once() {
        let e = Arc::new(
            Skalla::builder()
                .partitions("t", parts())
                .max_concurrent(4)
                .build()
                .unwrap(),
        );
        let plan = Planner::new(e.distribution()).optimize(&expr(), OptFlags::none());
        let serial_out = serial(&plan);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let e = Arc::clone(&e);
                let plan = plan.clone();
                std::thread::spawn(move || e.execute(&plan).unwrap())
            })
            .collect();
        for h in handles {
            let got = h.join().unwrap();
            assert_eq!(canonical(&got.relation), canonical(&serial_out.relation));
        }
        let s = e.semantic_cache().stats();
        assert_eq!(s.misses, 1, "exactly one execution");
        assert_eq!(s.hits + s.coalesced, 3, "the rest served without sites");
        assert_eq!(e.scheduler().coalesced_total(), s.coalesced);
    }

    #[test]
    fn epoch_bump_after_partition_swap_invalidates_results() {
        let e = engine();
        let plan = Planner::new(e.distribution()).optimize(&expr(), OptFlags::none());
        let cold = e.execute(&plan).unwrap();
        assert!(e.execute(&plan).unwrap().stats.is_cache_hit());
        let epoch = e.bump_partition_epoch();
        assert_eq!(e.semantic_cache().epoch(), epoch);
        let reexec = e.execute(&plan).unwrap();
        assert!(
            !reexec.stats.is_cache_hit(),
            "post-swap query must re-execute"
        );
        assert_eq!(reexec.stats.net, cold.stats.net, "full cold traffic");
    }

    #[test]
    fn per_query_obs_spans_carry_query_ids() {
        let obs = Obs::recording();
        let e = Skalla::builder()
            .partitions("t", parts())
            .obs(obs.clone())
            .build()
            .unwrap();
        let plan = Planner::new(e.distribution()).optimize(&expr(), OptFlags::none());
        e.execute(&plan).unwrap();
        drop(e);
        let rec = obs.recorder().unwrap();
        let spans = rec.spans();
        assert!(spans.iter().all(|s| s.dur_us.is_some()), "all spans closed");
        let query = spans
            .iter()
            .find(|s| s.name == "query")
            .expect("query span");
        assert_eq!(query.track, Track::Query(1));
        // Stage spans nest under the query on its own track.
        for label in ["base", "gmdj 1", "gmdj 2"] {
            let st = spans
                .iter()
                .find(|s| s.name == label && s.track == Track::Query(1))
                .unwrap_or_else(|| panic!("missing stage span {label}"));
            assert_eq!(st.parent, Some(query.id));
        }
        // Site-side task spans land on per-query site tracks.
        for site in 0..2 {
            assert_eq!(
                spans
                    .iter()
                    .filter(|s| s.track == Track::SiteQuery(site, 1))
                    .count(),
                3,
                "site {site} task spans"
            );
        }
    }
}
