//! The semantic result cache behind the [`crate::Warehouse`] API.
//!
//! A dashboard workload re-requests the same plans over and over, so the
//! concurrent engine keeps finished query answers in a
//! [`SemanticCache`]: a plan whose fingerprint is cached is answered
//! without contacting a single site. The coordinator keeps each round's
//! synchronized base structure `B_j` only until the next round ships it;
//! the cache holds answers, never stage snapshots.
//!
//! ## Fingerprints and epochs
//!
//! A [`Fingerprint`] is a canonical, structural 128-bit hash of a
//! [`DistributedPlan`]. Canonicalization erases every presentation
//! detail that cannot change the result bits: stage labels are cleared,
//! `ship_columns` are sorted (sites address fragment columns by name),
//! and θ conjunctions are flattened and sorted (boolean ∧ is commutative
//! and associative). Everything that *can* change the bits stays in the
//! hash: the base query and its column order, the key, every operator's
//! θ/aggregate list (names included — they are the output schema), the
//! stage/unit structure, and [`EvalOptions::morsel_rows`] (the one
//! kernel knob the output bits depend on; the thread count is
//! bit-identical by the engine's invariants and deliberately excluded).
//!
//! Every cache key also carries the **partition epoch**. Any catalog or
//! partition mutation bumps the epoch ([`SemanticCache::bump_epoch`]),
//! which makes every existing slot unreachable — stale hits are
//! impossible by construction, not by invalidation bookkeeping.
//!
//! ## One slot per fingerprint
//!
//! Each (fingerprint, epoch) key has at most one slot, *running* or
//! *ready*, and [`SemanticCache::claim`] reads and takes it under the
//! cache's one lock: a ready answer is a hit; a running slot makes the
//! caller a follower that blocks on the leader's [`InFlight`] cell, so
//! concurrent identical queries (the `run --concurrency` shape) contact
//! the sites once; an empty slot makes the caller its leader. The
//! leader's [`LeaderToken`] publishes the answer to the followers and
//! stores it under the epoch it claimed, in one step. Ready answers are
//! evicted least-recently-used past a byte budget
//! ([`SemanticCache::new`]); `cache.hits/misses/coalesced/rollups/bytes`
//! are exported as obs counters by the engine.

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
/// cleared, θs canonicalized, ship columns sorted, and the
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
/// so the last entry is [`plan_fingerprint`]. The engine keys answers by
/// the full-plan fingerprint alone; the prefixes measure how the hash
/// scales with plan length.
pub fn plan_fingerprints(plan: &DistributedPlan, eval: &EvalOptions) -> Vec<Fingerprint> {
    (1..=plan.stages.len())
        .map(|n| fingerprint_prefix(plan, eval, n))
        .collect()
}

/// The full-plan fingerprint (all stages) — the key a finished query
/// answer is cached under.
pub fn plan_fingerprint(plan: &DistributedPlan, eval: &EvalOptions) -> Fingerprint {
    fingerprint_prefix(plan, eval, plan.stages.len())
}

/// A monotonic snapshot of the cache counters (see
/// [`SemanticCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered entirely from a cached answer.
    pub hits: u64,
    /// Queries that had to execute.
    pub misses: u64,
    /// Queries served by coalescing onto an identical running query.
    pub coalesced: u64,
    /// Cube grouping sets served by local roll-up instead of execution.
    pub rollups: u64,
    /// In-memory bytes currently held (≤ the byte budget;
    /// [`Relation::memory_size`]).
    pub bytes: u64,
    /// Answers currently held.
    pub entries: u64,
    /// The current partition epoch.
    pub epoch: u64,
}

/// A finished answer held by the cache.
struct Entry {
    relation: Relation,
    bytes: usize,
    /// LRU stamp: the store clock at the last touch.
    stamp: u64,
}

/// The one slot a (fingerprint, epoch) key has: the query is running
/// under a leader, or its answer is ready.
enum Slot {
    Running(Arc<InFlight>),
    Ready(Entry),
}

type Key = (Fingerprint, u64);

#[derive(Default)]
struct Store {
    slots: HashMap<Key, Slot>,
    epoch: u64,
    clock: u64,
    /// In-memory bytes of the ready slots.
    bytes: usize,
}

impl Store {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The ready answer under `key`, its LRU stamp refreshed.
    fn touch(&mut self, key: Key) -> Option<Relation> {
        let stamp = self.tick();
        match self.slots.get_mut(&key) {
            Some(Slot::Ready(e)) => {
                e.stamp = stamp;
                Some(e.relation.clone())
            }
            Some(Slot::Running(_)) | None => None,
        }
    }
}

/// The cell a running slot's leader publishes its answer through;
/// followers of the same key block on it instead of executing.
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
    /// Block until the leader finishes (or `timeout` expires). `Some`
    /// is the leader's bit-identical answer; `None` means the leader
    /// failed or the wait timed out — execute the query yourself.
    pub fn wait(&self, timeout: Duration) -> Option<Relation> {
        #[expect(clippy::expect_used, reason = "poisoned only if a holder panicked")]
        let (state, _) = self
            .done
            .wait_timeout_while(locked(&self.state), timeout, |s| {
                matches!(s, FlightState::Running)
            })
            .expect("in-flight lock");
        match &*state {
            FlightState::Done(rel) => Some(rel.clone()),
            FlightState::Running | FlightState::Failed => None,
        }
    }
}

/// Lock one of the cache's mutexes.
#[expect(clippy::expect_used, reason = "poisoned only if a holder panicked")]
fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("cache lock")
}

/// The leader's obligation: publish the answer (or failure) to the
/// followers and settle its slot. Dropping the token without
/// [`LeaderToken::finish`] publishes a failure and frees the slot, so
/// followers can never deadlock on a leader that errored out.
pub struct LeaderToken<'a> {
    cache: &'a SemanticCache,
    key: Key,
    flight: Arc<InFlight>,
    settled: bool,
}

impl LeaderToken<'_> {
    /// Serve every follower the bit-identical `answer` and, in the same
    /// step, store it under the epoch this token claimed — unless an
    /// epoch bump has dropped the slot since, when nothing is stored.
    pub fn finish(mut self, answer: &Relation) {
        self.settle(Some(answer));
    }

    /// Runs from `drop` too, so a poisoned lock (a holder panicked) is
    /// skipped rather than unwrapped.
    fn settle(&mut self, answer: Option<&Relation>) {
        self.settled = true;
        if let Ok(mut store) = self.cache.store.lock() {
            // Running only while this token's claim is current: a bump
            // clears the slots, and no later claim can use the old epoch.
            if matches!(store.slots.get(&self.key), Some(Slot::Running(_))) {
                store.slots.remove(&self.key);
                if let Some(rel) = answer {
                    self.cache.store_ready(&mut store, self.key, rel);
                }
            }
        }
        if let Ok(mut state) = self.flight.state.lock() {
            *state = match answer {
                Some(rel) => FlightState::Done(rel.clone()),
                None => FlightState::Failed,
            };
        }
        self.flight.done.notify_all();
    }
}

impl Drop for LeaderToken<'_> {
    fn drop(&mut self) {
        if !self.settled {
            self.settle(None);
        }
    }
}

/// What [`SemanticCache::claim`] found for a fingerprint.
pub enum Claim<'a> {
    /// The answer is ready.
    Hit(Relation),
    /// An identical query is running: wait on its leader's cell.
    Follow(Arc<InFlight>),
    /// Nobody holds the slot: execute, then [`LeaderToken::finish`].
    Lead(LeaderToken<'a>),
}

/// A concurrent cache of finished query answers: one slot per
/// (fingerprint, epoch) key, running or ready, LRU-evicted past a byte
/// budget. See the module docs for the design.
pub struct SemanticCache {
    budget: usize,
    store: Mutex<Store>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
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
    /// An empty cache holding at most `budget_bytes` of relations, each
    /// charged its in-memory size ([`Relation::memory_size`]), not its
    /// smaller encoded one (least-recently-used answers are evicted past
    /// it).
    pub fn new(budget_bytes: usize) -> SemanticCache {
        SemanticCache {
            budget: budget_bytes,
            store: Mutex::new(Store::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            rollups: AtomicU64::new(0),
        }
    }

    /// The byte budget in force.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// The current partition epoch.
    pub fn epoch(&self) -> u64 {
        locked(&self.store).epoch
    }

    /// Bump the partition epoch — the required step after **any**
    /// catalog or partition mutation. Every slot was keyed under an
    /// older epoch and becomes unreachable atomically; the store is
    /// drained eagerly to return the budget. A leader still running
    /// serves its followers but stores nothing.
    pub fn bump_epoch(&self) -> u64 {
        let mut store = locked(&self.store);
        store.epoch += 1;
        store.slots.clear();
        store.bytes = 0;
        store.epoch
    }

    /// Claim the slot of `fp` under the current epoch: a ready answer
    /// is a [`Claim::Hit`] (touching its LRU stamp), a running one a
    /// [`Claim::Follow`], and an empty slot makes the caller its leader.
    pub fn claim(&self, fp: Fingerprint) -> Claim<'_> {
        let mut store = locked(&self.store);
        let key = (fp, store.epoch);
        if let Some(rel) = store.touch(key) {
            return Claim::Hit(rel);
        }
        if let Some(Slot::Running(flight)) = store.slots.get(&key) {
            return Claim::Follow(Arc::clone(flight));
        }
        let flight = Arc::new(InFlight {
            state: Mutex::new(FlightState::Running),
            done: Condvar::new(),
        });
        store.slots.insert(key, Slot::Running(Arc::clone(&flight)));
        Claim::Lead(LeaderToken {
            cache: self,
            key,
            flight,
            settled: false,
        })
    }

    /// The ready answer of `fp` under the current epoch, if any.
    /// Touches the LRU stamp; tallies nothing.
    pub fn lookup(&self, fp: Fingerprint) -> Option<Relation> {
        let mut store = locked(&self.store);
        let key = (fp, store.epoch);
        store.touch(key)
    }

    /// Store `relation` as the ready answer of `fp` under the current
    /// epoch. Answers larger than the whole budget are not stored;
    /// otherwise least-recently-used answers are evicted until the
    /// budget holds.
    pub fn insert(&self, fp: Fingerprint, relation: &Relation) {
        let mut store = locked(&self.store);
        let key = (fp, store.epoch);
        self.store_ready(&mut store, key, relation);
    }

    fn store_ready(&self, store: &mut Store, key: Key, relation: &Relation) {
        let bytes = relation.memory_size();
        if bytes > self.budget {
            return;
        }
        let entry = Entry {
            relation: relation.clone(),
            bytes,
            stamp: store.tick(),
        };
        if let Some(Slot::Ready(old)) = store.slots.insert(key, Slot::Ready(entry)) {
            store.bytes -= old.bytes;
        }
        store.bytes += bytes;
        while store.bytes > self.budget {
            let Some((_, victim)) = store
                .slots
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready(e) => Some((e.stamp, *k)),
                    Slot::Running(_) => None,
                })
                .min()
            else {
                break;
            };
            if let Some(Slot::Ready(e)) = store.slots.remove(&victim) {
                store.bytes -= e.bytes;
            }
        }
    }

    /// Tally a cache hit.
    pub fn tally_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Tally an executed query.
    pub fn tally_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Tally a query served by coalescing onto a running leader.
    pub fn tally_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Tally `n` cube grouping sets served by local roll-up.
    pub fn tally_rollups(&self, n: u64) {
        self.rollups.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot every counter plus the current occupancy.
    pub fn stats(&self) -> CacheStats {
        let store = locked(&self.store);
        let entries = store
            .slots
            .iter()
            .filter(|(_, slot)| matches!(slot, Slot::Ready(_)))
            .count();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            rollups: self.rollups.load(Ordering::Relaxed),
            bytes: store.bytes as u64,
            entries: entries as u64,
            epoch: store.epoch,
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
    fn fingerprint_ignores_labels_and_conjunct_order() {
        let eval = EvalOptions::default();
        let p1 = planner().optimize(&expr_with(false), OptFlags::all());
        let mut p2 = planner().optimize(&expr_with(true), OptFlags::all());
        for s in &mut p2.stages {
            s.label = format!("renamed {}", s.label);
        }
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
    fn a_hit_shares_the_answer_and_copies_no_row() {
        let cache = SemanticCache::new(1 << 20);
        let fp = fingerprint_bytes(b"hit");
        let answer = Relation::new(
            Schema::of(&[("g", DataType::Int), ("s", DataType::Str)]),
            (0..100i64).map(|g| row![g, format!("s{g}")]).collect(),
        )
        .unwrap();
        cache.insert(fp, &answer);
        // A hit is the answer's store, not a copy of it.
        let hit = cache.lookup(fp).unwrap();
        assert!(Arc::ptr_eq(&hit.shared_column(0), &answer.shared_column(0)));
        let Claim::Hit(claimed) = cache.claim(fp) else {
            panic!("a ready answer is a hit");
        };
        assert!(Arc::ptr_eq(&claimed.shared_column(1), &answer.shared_column(1)));
        // Once a row view is built, every hit shares it.
        let view = answer.rows().as_ptr();
        assert_eq!(cache.lookup(fp).unwrap().rows().as_ptr(), view);
        assert_eq!(hit.rows().as_ptr(), view);
    }

    #[test]
    fn lru_respects_byte_budget() {
        let r = rel(1);
        let unit = r.memory_size();
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

    /// A bit-packed answer is charged what it holds in memory, 8 bytes a
    /// row for its `Int` column, not its smaller wire size.
    #[test]
    fn entries_are_charged_their_memory_size() {
        let small = Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            (0..100i64).map(|v| row![v % 4]).collect(),
        )
        .unwrap();
        let cache = SemanticCache::new(1 << 20);
        cache.insert(fingerprint_bytes(b"packed"), &small);
        let charged = cache.stats().bytes as usize;
        assert_eq!(charged, small.schema().encoded_size() + 8 * 100);
        assert!(charged > 3 * small.encoded_size(), "{charged} vs {}", small.encoded_size());
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
        // Entries inserted under the new epoch work normally.
        cache.insert(fp, &rel(3));
        assert!(cache.lookup(fp).is_some());
    }

    fn lead(cache: &SemanticCache, fp: Fingerprint) -> LeaderToken<'_> {
        match cache.claim(fp) {
            Claim::Lead(token) => token,
            Claim::Hit(_) | Claim::Follow(_) => panic!("the slot must be free"),
        }
    }

    fn follow(cache: &SemanticCache, fp: Fingerprint) -> Arc<InFlight> {
        match cache.claim(fp) {
            Claim::Follow(flight) => flight,
            Claim::Hit(_) | Claim::Lead(_) => panic!("the slot must be running"),
        }
    }

    #[test]
    fn coalescing_serves_followers_and_survives_leader_failure() {
        let cache = SemanticCache::new(1 << 20);
        let fp = fingerprint_bytes(b"inflight");
        let token = lead(&cache, fp);
        let flight = follow(&cache, fp);
        let waiter = std::thread::spawn(move || flight.wait(Duration::from_secs(5)));
        token.finish(&rel(7));
        assert_eq!(waiter.join().unwrap(), Some(rel(7)));
        // A failed leader on another key wakes its followers with None.
        let other = fingerprint_bytes(b"failing");
        let token = lead(&cache, other);
        let flight = follow(&cache, other);
        drop(token);
        assert_eq!(flight.wait(Duration::from_secs(5)), None);
    }

    #[test]
    fn claim_after_a_leader_finishes_is_a_hit() {
        // The race a follow-up lookup by the leader used to cover: a
        // claim arriving once the answer is stored never executes again.
        let cache = SemanticCache::new(1 << 20);
        let fp = fingerprint_bytes(b"finished");
        lead(&cache, fp).finish(&rel(5));
        match cache.claim(fp) {
            Claim::Hit(answer) => assert_eq!(answer, rel(5)),
            Claim::Follow(_) | Claim::Lead(_) => panic!("a finished answer must hit"),
        }
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, rel(5).memory_size() as u64);
    }

    #[test]
    fn leader_finishing_after_an_epoch_bump_serves_but_stores_nothing() {
        let cache = SemanticCache::new(1 << 20);
        let fp = fingerprint_bytes(b"bumped");
        let token = lead(&cache, fp);
        let flight = follow(&cache, fp);
        cache.bump_epoch();
        token.finish(&rel(9));
        assert_eq!(flight.wait(Duration::from_secs(5)), Some(rel(9)));
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (0, 0), "a stale answer is not stored");
        drop(lead(&cache, fp));
    }

    #[test]
    fn dropped_token_wakes_followers_and_frees_the_slot() {
        let cache = SemanticCache::new(1 << 20);
        let fp = fingerprint_bytes(b"dropped");
        let token = lead(&cache, fp);
        let followers: Vec<_> = (0..2)
            .map(|_| {
                let flight = follow(&cache, fp);
                std::thread::spawn(move || flight.wait(Duration::from_secs(5)))
            })
            .collect();
        drop(token);
        for f in followers {
            assert_eq!(f.join().unwrap(), None);
        }
        assert_eq!(cache.stats().entries, 0);
        lead(&cache, fp).finish(&rel(4));
        assert_eq!(cache.lookup(fp), Some(rel(4)), "the freed slot leads anew");
    }
}
