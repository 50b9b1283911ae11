//! The semantic sub-aggregate cache behind the [`crate::Warehouse`] API.
//!
//! The paper's GMDJ decomposition makes round results the natural unit
//! of reuse: every synchronization round produces a finalized base
//! structure `B_j` (the sub-aggregates of stages `0..=j` merged and
//! finalized at the coordinator), and `B_j` is exactly the input the
//! next stage ships back out. A dashboard workload re-requests the same
//! plans over and over, so the concurrent engine keeps those structures
//! in a [`SemanticCache`]:
//!
//! * **Full-result hits** — a plan whose fingerprint (all stages) is
//!   cached is answered without contacting a single site.
//! * **Prefix hits** — a plan sharing only a *prefix* of stages with a
//!   cached query resumes from the cached `B_j` snapshot: stages
//!   `0..=j` are skipped (their rounds stay in the stats with zero
//!   traffic) and execution starts at stage `j+1`. Sites evaluate each
//!   stage statelessly from the shipped fragment, so resuming is safe
//!   by construction.
//! * **In-flight coalescing** — concurrent identical queries (the `run
//!   --concurrency` shape) elect a leader; followers block on the
//!   leader's [`InFlight`] cell and are served its result, so the sites
//!   are contacted once per distinct plan, not once per submission.
//!
//! ## Fingerprints and epochs
//!
//! A [`Fingerprint`] is a canonical, structural 128-bit hash of a
//! [`DistributedPlan`] prefix. Canonicalization erases every
//! presentation detail that cannot change the result bits: stage labels
//! and planner notes are cleared, `ship_columns` are sorted (sites
//! address fragment columns by name), and θ conjunctions are flattened
//! and sorted (boolean ∧ is commutative and associative). Everything
//! that *can* change the bits stays in the hash: the base query and its
//! column order, the key, every operator's θ/aggregate list (names
//! included — they are the output schema), the stage/unit structure,
//! and [`EvalOptions::morsel_rows`] (the one kernel knob the output
//! bits depend on; the thread count is bit-identical by the engine's
//! invariants and deliberately excluded).
//!
//! Every cache key also carries the **partition epoch** at lookup time.
//! Any catalog or partition mutation bumps the epoch
//! ([`SemanticCache::bump_epoch`]), which makes every existing entry
//! unreachable — stale hits are impossible by construction, not by
//! invalidation bookkeeping.
//!
//! Entries live in an LRU keyed store with a byte budget
//! ([`SemanticCache::new`]); `cache.hits/misses/rollups/bytes` are
//! exported as obs counters by the engine.

use crate::plan::{DistributedPlan, SiteFilter, Stage, StageKind, Unit};
use crate::plan_codec::encode_plan;
use skalla_gmdj::eval::EvalOptions;
use skalla_gmdj::{Gmdj, GmdjBlock, GmdjExpr};
use skalla_relation::codec::Encoder;
use skalla_relation::{Expr, Relation};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A canonical, structural 128-bit hash of a plan prefix (see the
/// module docs for what is normalized away and what is kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Byte encoding of an expression (the sort key for θ conjuncts).
fn expr_bytes(e: &Expr) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_expr(e);
    enc.finish()
}

/// Flatten an `And` tree into its conjunct list, canonicalizing each
/// leaf on the way down.
fn collect_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(a, b) => {
            collect_conjuncts(a, out);
            collect_conjuncts(b, out);
        }
        other => out.push(canonical_expr(other)),
    }
}

/// θ canonicalization: flatten ∧-chains and sort the conjuncts by their
/// byte encoding. Boolean ∧ is commutative and associative, so two θs
/// differing only in conjunct order select identical ranges — and must
/// fingerprint identically. Applied recursively (a conjunction nested
/// under ∨/¬ is canonicalized in place).
fn canonical_expr(e: &Expr) -> Expr {
    match e {
        Expr::And(..) => {
            let mut conjuncts = Vec::new();
            collect_conjuncts(e, &mut conjuncts);
            conjuncts.sort_by_key(expr_bytes);
            Expr::conjunction(conjuncts)
        }
        Expr::Or(a, b) => Expr::Or(
            Box::new(canonical_expr(a)),
            Box::new(canonical_expr(b)),
        ),
        Expr::Not(a) => Expr::Not(Box::new(canonical_expr(a))),
        other => other.clone(),
    }
}

fn canonical_unit(u: &Unit) -> Unit {
    let mut ship_columns = u.ship_columns.clone();
    // Sites address fragment columns by name, so the ship order cannot
    // change the result (or the byte *count* on the wire).
    ship_columns.sort();
    Unit {
        ops: u.ops.clone(),
        table: u.table.clone(),
        fold_base: u.fold_base,
        local_chain: u.local_chain,
        ownership: u.ownership.clone(),
        ship_columns,
        site_filters: u
            .site_filters
            .iter()
            .map(|f| match f {
                SiteFilter::Predicate(p) => SiteFilter::Predicate(canonical_expr(p)),
                other => other.clone(),
            })
            .collect(),
        site_reduce: u.site_reduce,
    }
}

fn canonical_gmdj(g: &Gmdj) -> Gmdj {
    Gmdj {
        detail: g.detail.clone(),
        blocks: g
            .blocks
            .iter()
            .map(|b| GmdjBlock {
                theta: canonical_expr(&b.theta),
                aggs: b.aggs.clone(),
            })
            .collect(),
    }
}

/// The canonical form of the first `n_stages` stages of a plan: labels
/// and notes cleared, θs canonicalized, ship columns sorted, and the
/// operator list truncated to what those stages reference — so two
/// plans sharing a stage prefix share the prefix's canonical bytes even
/// when their suffixes differ.
fn canonical_prefix_plan(plan: &DistributedPlan, n_stages: usize) -> DistributedPlan {
    let stages: Vec<Stage> = plan.stages[..n_stages]
        .iter()
        .map(|s| Stage {
            label: String::new(),
            kind: match &s.kind {
                StageKind::Base => StageKind::Base,
                StageKind::Unit(u) => StageKind::Unit(canonical_unit(u)),
            },
        })
        .collect();
    let max_op = stages
        .iter()
        .map(|s| match &s.kind {
            StageKind::Unit(u) => u.ops.end,
            StageKind::Base => 0,
        })
        .max()
        .unwrap_or(0);
    DistributedPlan {
        expr: GmdjExpr {
            base: plan.expr.base.clone(),
            key: plan.expr.key.clone(),
            ops: plan.expr.ops[..max_op].iter().map(canonical_gmdj).collect(),
        },
        key: plan.key.clone(),
        stages,
        notes: Vec::new(),
    }
}

fn fingerprint_bytes(bytes: &[u8]) -> Fingerprint {
    let mut hi = DefaultHasher::new();
    1u8.hash(&mut hi);
    bytes.hash(&mut hi);
    let mut lo = DefaultHasher::new();
    2u8.hash(&mut lo);
    bytes.hash(&mut lo);
    Fingerprint(((hi.finish() as u128) << 64) | lo.finish() as u128)
}

fn fingerprint_prefix(plan: &DistributedPlan, eval: &EvalOptions, n_stages: usize) -> Fingerprint {
    let mut bytes = encode_plan(&canonical_prefix_plan(plan, n_stages));
    // The one kernel knob the output bits depend on: the morsel size
    // fixes the accumulator merge structure (see EvalOptions docs).
    bytes.extend_from_slice(&(eval.morsel_rows as u64).to_le_bytes());
    fingerprint_bytes(&bytes)
}

/// One fingerprint per stage prefix: index `j` covers stages `0..=j`,
/// so the last entry is the full-plan fingerprint and entry `j` keys
/// the synchronized base structure `B` after stage `j`.
pub fn plan_fingerprints(plan: &DistributedPlan, eval: &EvalOptions) -> Vec<Fingerprint> {
    (1..=plan.stages.len())
        .map(|n| fingerprint_prefix(plan, eval, n))
        .collect()
}

/// The full-plan fingerprint (all stages) — the key a finished query
/// result is cached and looked up under.
pub fn plan_fingerprint(plan: &DistributedPlan, eval: &EvalOptions) -> Fingerprint {
    fingerprint_prefix(plan, eval, plan.stages.len())
}

/// A monotonic snapshot of the cache counters (see
/// [`SemanticCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered entirely from a cached full result.
    pub hits: u64,
    /// Queries that had to execute (fully, or resuming from a prefix).
    pub misses: u64,
    /// Queries served by coalescing onto an identical in-flight query.
    pub coalesced: u64,
    /// Executing queries that resumed from a cached stage prefix.
    pub prefix_hits: u64,
    /// Cube grouping sets served by local roll-up instead of execution.
    pub rollups: u64,
    /// Encoded bytes currently held (≤ the byte budget).
    pub bytes: u64,
    /// Entries currently held.
    pub entries: u64,
    /// The current partition epoch.
    pub epoch: u64,
}

/// One cached relation: a synchronized base structure (prefix snapshot)
/// or a finished query result (full-plan key).
struct Entry {
    relation: Relation,
    bytes: usize,
    /// LRU stamp: the store clock at the last touch.
    stamp: u64,
}

#[derive(Default)]
struct Store {
    map: HashMap<(Fingerprint, u64), Entry>,
    clock: u64,
    bytes: usize,
}

/// The synchronization cell an in-flight leader publishes its result
/// through; followers of the same fingerprint block on it instead of
/// executing.
pub struct InFlight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    Running,
    Done(Relation),
    /// The leader errored (or was dropped without finishing); followers
    /// fall back to executing themselves.
    Failed,
}

impl InFlight {
    fn new() -> InFlight {
        InFlight {
            state: Mutex::new(FlightState::Running),
            done: Condvar::new(),
        }
    }

    /// Block until the leader finishes (or `timeout` expires). `Some`
    /// is the leader's bit-identical result; `None` means the leader
    /// failed or the wait timed out — execute the query yourself.
    pub fn wait(&self, timeout: Duration) -> Option<Relation> {
        let mut state = locked(&self.state);
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match &*state {
                FlightState::Done(rel) => return Some(rel.clone()),
                FlightState::Failed => return None,
                FlightState::Running => {}
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return None;
            }
            #[expect(clippy::expect_used, reason = "poisoned only if a holder panicked")]
            let (next, timed_out) = self
                .done
                .wait_timeout(state, remaining)
                .expect("in-flight lock");
            state = next;
            if timed_out.timed_out() {
                if let FlightState::Done(rel) = &*state {
                    return Some(rel.clone());
                }
                return None;
            }
        }
    }
}

type InFlightMap = Mutex<HashMap<(Fingerprint, u64), Arc<InFlight>>>;

/// Lock one of the cache's mutexes.
#[expect(clippy::expect_used, reason = "poisoned only if a holder panicked")]
fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("cache lock")
}

/// The leader's obligation: publish the result (or failure) to the
/// followers and retire the in-flight registration. Dropping the token
/// without [`LeaderToken::finish`] publishes a failure, so followers
/// can never deadlock on a leader that errored out.
pub struct LeaderToken {
    key: (Fingerprint, u64),
    flight: Arc<InFlight>,
    registry: Arc<InFlightMap>,
    finished: bool,
}

impl LeaderToken {
    /// Publish the leader's outcome: `Some` serves every follower the
    /// bit-identical relation; `None` wakes them to execute themselves.
    pub fn finish(mut self, result: Option<&Relation>) {
        self.publish(result);
        self.finished = true;
    }

    fn publish(&self, result: Option<&Relation>) {
        {
            let mut state = locked(&self.flight.state);
            *state = match result {
                Some(rel) => FlightState::Done(rel.clone()),
                None => FlightState::Failed,
            };
        }
        self.flight.done.notify_all();
        locked(&self.registry).remove(&self.key);
    }
}

impl Drop for LeaderToken {
    fn drop(&mut self) {
        if !self.finished {
            self.publish(None);
        }
    }
}

/// Whether a query leads or follows the in-flight registration for its
/// fingerprint (see [`SemanticCache::join_or_lead`]).
pub enum Role {
    /// First submission of this fingerprint: execute, then
    /// [`LeaderToken::finish`].
    Leader(LeaderToken),
    /// An identical query is already executing: wait on its cell.
    Follower(Arc<InFlight>),
}

/// A concurrent semantic result cache: LRU over (fingerprint, epoch)
/// keys with a byte budget, plus the in-flight coalescing registry. See
/// the module docs for the design.
pub struct SemanticCache {
    budget: usize,
    epoch: AtomicU64,
    store: Mutex<Store>,
    inflight: Arc<InFlightMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    prefix_hits: AtomicU64,
    rollups: AtomicU64,
}

impl fmt::Debug for SemanticCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("SemanticCache")
            .field("budget", &self.budget)
            .field("stats", &s)
            .finish()
    }
}

/// Default cache byte budget (64 MiB) when none is configured.
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

impl SemanticCache {
    /// An empty cache holding at most `budget_bytes` of encoded
    /// relations (least-recently-used entries are evicted past it).
    pub fn new(budget_bytes: usize) -> SemanticCache {
        SemanticCache {
            budget: budget_bytes,
            epoch: AtomicU64::new(0),
            store: Mutex::new(Store::default()),
            inflight: Arc::new(Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            prefix_hits: AtomicU64::new(0),
            rollups: AtomicU64::new(0),
        }
    }

    /// The byte budget in force.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// The current partition epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Bump the partition epoch — the required step after **any**
    /// catalog or partition mutation. Every cached entry was keyed
    /// under an older epoch and becomes unreachable atomically; the
    /// store is drained eagerly to return the budget. In-flight queries
    /// keep the epoch they were admitted under, so their (now stale)
    /// insertions are dropped on arrival.
    pub fn bump_epoch(&self) -> u64 {
        let new = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let mut store = locked(&self.store);
        store.map.clear();
        store.bytes = 0;
        new
    }

    /// Look up a relation under the **current** epoch. Touches the LRU
    /// stamp. Does not tally hit/miss counters — outcomes are tallied
    /// by the engine once per query (a prefix probe must not inflate
    /// the miss count).
    pub fn lookup(&self, fp: Fingerprint) -> Option<Relation> {
        let key = (fp, self.epoch());
        let mut store = locked(&self.store);
        store.clock += 1;
        let clock = store.clock;
        store.map.get_mut(&key).map(|e| {
            e.stamp = clock;
            e.relation.clone()
        })
    }

    /// Insert a relation computed under `epoch`. A stale epoch (the
    /// catalog changed while the query ran) is silently dropped — the
    /// entry could never be looked up again. Entries larger than the
    /// whole budget are not stored; otherwise least-recently-used
    /// entries are evicted until the budget holds.
    pub fn insert_at(&self, fp: Fingerprint, epoch: u64, relation: &Relation) {
        if epoch != self.epoch() {
            return;
        }
        let bytes = relation.encoded_size();
        if bytes > self.budget {
            return;
        }
        let mut store = locked(&self.store);
        store.clock += 1;
        let stamp = store.clock;
        if let Some(old) = store.map.insert(
            (fp, epoch),
            Entry {
                relation: relation.clone(),
                bytes,
                stamp,
            },
        ) {
            store.bytes -= old.bytes;
        }
        store.bytes += bytes;
        while store.bytes > self.budget {
            let Some(victim) = store
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(e) = store.map.remove(&victim) {
                store.bytes -= e.bytes;
            }
        }
    }

    /// Insert under the current epoch (epoch-capture convenience for
    /// callers without an in-flight epoch).
    pub fn insert(&self, fp: Fingerprint, relation: &Relation) {
        self.insert_at(fp, self.epoch(), relation);
    }

    /// Register this query against the in-flight table: the first
    /// submission of a fingerprint (under the current epoch) leads and
    /// must [`LeaderToken::finish`]; later identical submissions follow
    /// and wait on the leader's cell.
    pub fn join_or_lead(&self, fp: Fingerprint) -> Role {
        let key = (fp, self.epoch());
        let mut reg = locked(&self.inflight);
        if let Some(flight) = reg.get(&key) {
            return Role::Follower(Arc::clone(flight));
        }
        let flight = Arc::new(InFlight::new());
        reg.insert(key, Arc::clone(&flight));
        Role::Leader(LeaderToken {
            key,
            flight,
            registry: Arc::clone(&self.inflight),
            finished: false,
        })
    }

    /// Tally a full-result hit.
    pub fn tally_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Tally an executed query (cold, or resumed from a prefix).
    pub fn tally_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Tally a query served by coalescing onto an in-flight leader.
    pub fn tally_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Tally an executing query that resumed from a cached prefix.
    pub fn tally_prefix_hit(&self) {
        self.prefix_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Tally `n` cube grouping sets served by local roll-up.
    pub fn tally_rollups(&self, n: u64) {
        self.rollups.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot every counter plus the current occupancy.
    pub fn stats(&self) -> CacheStats {
        let (bytes, entries) = {
            let store = locked(&self.store);
            (store.bytes as u64, store.map.len() as u64)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            prefix_hits: self.prefix_hits.load(Ordering::Relaxed),
            rollups: self.rollups.load(Ordering::Relaxed),
            bytes,
            entries,
            epoch: self.epoch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionInfo;
    use crate::plan::{OptFlags, Planner};
    use skalla_gmdj::prelude::*;
    use skalla_relation::{row, DataType, Domain, DomainMap, Schema};

    fn planner() -> Planner {
        let mut d = DistributionInfo::new(2);
        d.set_table(
            "t",
            (0..2)
                .map(|i| DomainMap::new().with("g", Domain::IntRange(10 * i, 10 * i + 9)))
                .collect(),
        );
        Planner::new(d)
    }

    fn expr_with(theta_order_flipped: bool) -> GmdjExpr {
        let a = Expr::dcol("g").eq(Expr::bcol("g"));
        let b = Expr::dcol("v").ge(Expr::lit(5i64));
        let theta = if theta_order_flipped {
            b.and(a)
        } else {
            a.and(b)
        };
        GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(theta, vec![AggSpec::count("cnt")]))
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::sum("v", "s")],
            ))
            .build()
    }

    fn rel(v: i64) -> Relation {
        Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            vec![row![v]],
        )
        .unwrap()
    }

    #[test]
    fn fingerprint_ignores_labels_notes_and_conjunct_order() {
        let eval = EvalOptions::default();
        let p1 = planner().optimize(&expr_with(false), OptFlags::all());
        let mut p2 = planner().optimize(&expr_with(true), OptFlags::all());
        for s in &mut p2.stages {
            s.label = format!("renamed {}", s.label);
        }
        p2.notes.push("a planner note".to_string());
        assert_eq!(plan_fingerprint(&p1, &eval), plan_fingerprint(&p2, &eval));
    }

    #[test]
    fn fingerprint_separates_structure_flags_and_morsels() {
        let eval = EvalOptions::default();
        let base = planner().optimize(&expr_with(false), OptFlags::all());
        // Different optimization flags → different stage structure.
        let other_flags = planner().optimize(&expr_with(false), OptFlags::none());
        assert_ne!(
            plan_fingerprint(&base, &eval),
            plan_fingerprint(&other_flags, &eval)
        );
        // Different aggregate name → different output schema.
        let renamed = {
            let mut e = expr_with(false);
            e.ops[0].blocks[0].aggs[0].name = "other".to_string();
            planner().optimize(&e, OptFlags::all())
        };
        assert_ne!(
            plan_fingerprint(&base, &eval),
            plan_fingerprint(&renamed, &eval)
        );
        // Different morsel size → different merge structure (bits).
        let coarse = EvalOptions {
            morsel_rows: eval.morsel_rows * 2,
            ..eval
        };
        assert_ne!(
            plan_fingerprint(&base, &eval),
            plan_fingerprint(&base, &coarse)
        );
        // Bit-identical knobs are excluded.
        let threads = EvalOptions {
            parallelism: 7,
            ..eval
        };
        assert_eq!(
            plan_fingerprint(&base, &eval),
            plan_fingerprint(&base, &threads)
        );
    }

    #[test]
    fn prefix_fingerprints_shared_across_different_suffixes() {
        let eval = EvalOptions::default();
        let shared = planner().optimize(&expr_with(false), OptFlags::none());
        assert!(shared.stages.len() >= 2, "need a multi-stage plan");
        // Same stage prefix, structurally different final stage.
        let mut forked = shared.clone();
        if let StageKind::Unit(u) = &mut forked.stages.last_mut().unwrap().kind {
            u.site_reduce = !u.site_reduce;
        } else {
            panic!("last stage should be a unit");
        }
        let fa = plan_fingerprints(&shared, &eval);
        let fb = plan_fingerprints(&forked, &eval);
        assert_eq!(fa.len(), shared.stages.len());
        for (a, b) in fa.iter().zip(&fb).take(fa.len() - 1) {
            assert_eq!(a, b, "shared prefixes must agree");
        }
        assert_ne!(fa.last(), fb.last(), "diverging suffix must differ");
    }

    #[test]
    fn lru_respects_byte_budget() {
        let r = rel(1);
        let unit = r.encoded_size();
        let cache = SemanticCache::new(unit * 2 + 1);
        let fps: Vec<Fingerprint> = (0..3).map(|i| fingerprint_bytes(&[i as u8])).collect();
        cache.insert(fps[0], &rel(10));
        cache.insert(fps[1], &rel(11));
        // Touch fps[0] so fps[1] is the LRU victim.
        assert!(cache.lookup(fps[0]).is_some());
        cache.insert(fps[2], &rel(12));
        assert!(cache.lookup(fps[0]).is_some());
        assert!(cache.lookup(fps[1]).is_none(), "LRU victim evicted");
        assert!(cache.lookup(fps[2]).is_some());
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert!(s.bytes <= cache.budget_bytes() as u64);
        // An entry larger than the whole budget is refused.
        let tiny = SemanticCache::new(1);
        tiny.insert(fps[0], &rel(1));
        assert_eq!(tiny.stats().entries, 0);
    }

    #[test]
    fn epoch_bump_invalidates_every_dependent_entry() {
        let cache = SemanticCache::new(1 << 20);
        let fp = fingerprint_bytes(b"q");
        cache.insert(fp, &rel(1));
        assert!(cache.lookup(fp).is_some());
        let before = cache.epoch();
        assert_eq!(cache.bump_epoch(), before + 1);
        assert!(cache.lookup(fp).is_none(), "old-epoch entry unreachable");
        assert_eq!(cache.stats().bytes, 0, "budget returned eagerly");
        // An insertion raced by the bump (captured the old epoch) is
        // dropped rather than stored unreachable.
        cache.insert_at(fp, before, &rel(2));
        assert_eq!(cache.stats().entries, 0);
        // Entries inserted under the new epoch work normally.
        cache.insert(fp, &rel(3));
        assert!(cache.lookup(fp).is_some());
    }

    #[test]
    fn coalescing_serves_followers_and_survives_leader_failure() {
        let cache = Arc::new(SemanticCache::new(1 << 20));
        let fp = fingerprint_bytes(b"inflight");
        let Role::Leader(token) = cache.join_or_lead(fp) else {
            panic!("first submission must lead");
        };
        let Role::Follower(flight) = cache.join_or_lead(fp) else {
            panic!("second submission must follow");
        };
        let waiter = {
            let flight = Arc::clone(&flight);
            std::thread::spawn(move || flight.wait(Duration::from_secs(5)))
        };
        token.finish(Some(&rel(7)));
        assert_eq!(waiter.join().unwrap(), Some(rel(7)));
        // The registration retired with the leader: next query leads.
        let Role::Leader(token2) = cache.join_or_lead(fp) else {
            panic!("registration must retire after finish");
        };
        // A dropped (failed) leader wakes followers with None.
        let Role::Follower(flight2) = cache.join_or_lead(fp) else {
            panic!("second submission must follow");
        };
        drop(token2);
        assert_eq!(flight2.wait(Duration::from_secs(5)), None);
    }
}
