//! Coordinator-side synchronization.
//!
//! The coordinator maintains the base-result structure X, indexed on the
//! key attributes K, and consolidates each site's sub-results into it
//! (paper Sect. 3.2). Three synchronizers cover the three stage shapes:
//!
//! * [`BaseSync`] — union + duplicate elimination of base fragments;
//! * [`MergeSync`] — super-aggregate merging of physical accumulators
//!   (Theorem 1), with insert-on-first-sight for folded units (Prop 2);
//! * [`ChainSync`] — disjoint assembly of locally-finalized results from
//!   synchronization-reduced units (Thm 5 / Cor 1), which *verifies* the
//!   partition assumption by rejecting duplicate keys.
//!
//! What a merge unit costs per row a site sends: the engine takes each
//! `RESULT` chunk as it lands, decoded into columns. A site answers a unit
//! against B by position ([`MergeSync::absorb_at`]): its row `i` is its
//! fragment's row `i` (its `i`-th survivor's under Prop 1), whose B row
//! the coordinator kept when it shipped the fragment, so no key crosses
//! and nothing is hashed or probed. A folded unit's answer is keyed
//! ([`MergeSync::absorb_frame`]): one key hash and probe of X's index per
//! row. Then each accumulator column is scattered into its site's leaf of
//! typed states ([`skalla_gmdj::state::AccStates`], the kernel's own).
//! [`MergeSync::finish`] runs the merge tree over whole leaves and
//! finalizes X once, column-wise ([`AccStates::finalize_columns`]): B's
//! columns, shared, or a folded unit's keys sorted on their typed columns,
//! then one column per aggregate. Nothing between a site's kernel and the
//! caller builds a row; allocation is per state growth and per output
//! column, never per absorbed row, chunk, tree level or output group.
//!
//! The state machine that drives them (Alg. GMDJDistribEval), and its
//! receive driver over a transport, are the crate-private `run`
//! sub-module.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

mod run;

pub(crate) use run::{finished_rounds, net_err, run_coordinator, Clock, CoordMachine};

use crate::protocol::ResultChunk;
use skalla_gmdj::agg::AccLayout;
use skalla_gmdj::operator::Gmdj;
use skalla_gmdj::state::AccStates;
use skalla_relation::columns::{row_key_hash, IdTable};
use skalla_relation::{Column, ColumnBuilder, Columns, DataType, Error, Relation, Result, Schema, Value};
use std::sync::Arc;

/// Check that `key` column values are unique in `rel`.
pub fn verify_unique_key(rel: &Relation, key: &[String]) -> Result<()> {
    index_columns(&key_columns(rel, key)?, rel.len()).map(drop)
}

/// `rel`'s `key` columns, in key order.
fn key_columns<'r>(rel: &'r Relation, key: &[String]) -> Result<Vec<&'r Column>> {
    let idx = rel
        .schema()
        .indexes_of(&key.iter().map(String::as_str).collect::<Vec<_>>())?;
    Ok(idx.iter().map(|&c| rel.column(c)).collect())
}

/// Index `len` rows of the key columns `cols`, row `i` as id `i` (a key
/// two rows share is an error), reading the columns in place.
fn index_columns(cols: &[&Column], len: usize) -> Result<IdTable> {
    let mut index = IdTable::with_capacity(len);
    for i in 0..len {
        let h = row_key_hash(cols.iter().copied(), i);
        if index.find(h, |g| cols.iter().all(|c| c.value_eq_at(g, c, i))).is_some() {
            let key: Vec<Value> = cols.iter().map(|c| c.value(i)).collect();
            return Err(Error::Execution(format!(
                "base-values relation has duplicate key {key:?}"
            )));
        }
        index.insert(h);
    }
    Ok(index)
}

/// Synchronizer for the base round: collects each site's distinct groups.
#[derive(Debug)]
pub struct BaseSync {
    acc: Option<Relation>,
}

impl BaseSync {
    /// Start with nothing collected.
    pub fn new() -> BaseSync {
        BaseSync { acc: None }
    }

    /// Absorb one site's base fragment.
    pub fn absorb(&mut self, fragment: Relation) -> Result<()> {
        self.acc = Some(match self.acc.take() {
            None => fragment,
            Some(acc) => acc.union_all(&fragment)?,
        });
        Ok(())
    }

    /// Deduplicate into B₀, verify the key is unique, and sort by key.
    ///
    /// Fragments arrive in whatever order site threads reply, so without
    /// the sort the row order of B₀ — and of every later round, and of
    /// the final result — would vary run to run. Sorting by the (unique)
    /// key makes distributed results reproducible and lets runs over
    /// different worker counts and transports be compared bit for bit.
    pub fn finish(self, key: &[String]) -> Result<Relation> {
        let b = self
            .acc
            .ok_or_else(|| Error::Execution("no base fragments received".into()))?
            .distinct();
        verify_unique_key(&b, key)?;
        let cols: Vec<&str> = key.iter().map(String::as_str).collect();
        b.sorted_by(&cols)
    }
}

impl Default for BaseSync {
    fn default() -> Self {
        BaseSync::new()
    }
}

/// Synchronizer for a single-operator unit: merges physical sub-aggregates
/// into X per Theorem 1.
///
/// X is B, a clone sharing B's columns, group `g` being B's row `g`,
/// beside typed accumulator states (so a caller need not keep B borrowed
/// while answers arrive). A folded unit has no B: X grows from the keyed
/// sub-results, and a group's base part is its key (Prop 2). Each
/// answering site is a leaf, one typed state over X's groups with a
/// presence bit per group, which its chunks reach by position
/// ([`MergeSync::absorb_at`]) or, folded, by key
/// ([`MergeSync::absorb_frame`]: a key the leaf repeats merges in
/// arrival order). [`MergeSync::finish`] merges the leaves as a binary
/// tree instead of a left fold — adjacent leaves pair level by level until
/// one remains, each merge taking (left, right) in that order, and a leaf
/// without the group passing its right neighbour's across — and then the
/// root into X_init (taken as is when folded). The tree's shape depends
/// only on the leaf count, so the bits do too, and Theorem 1's
/// associativity makes it equal to a left fold
/// (`parallel_merge_tree_equals_left_fold`).
#[derive(Debug)]
pub struct MergeSync {
    /// B: row `g` is group `g`'s base part (`None` when folded).
    base: Option<Relation>,
    /// B's key columns, in key order, which a keyed answer is looked up by.
    base_keys: Vec<Arc<Column>>,
    /// A folded unit's group `g`'s key, `key_len` values per group, in
    /// one run, as first sighted.
    keys: Vec<Value>,
    key_len: usize,
    /// Key → group id: a folded unit's keys, or B's once a keyed answer
    /// arrives.
    index: IdTable,
    layout: AccLayout,
    /// The tree's slots, in blocks of `cap` groups: block 0 is X, block
    /// `1 + l` is leaf `l`. Typed after the first chunk's accumulator
    /// fields; `None` until a chunk arrives.
    states: Option<AccStates>,
    /// Per slot: does it hold a sub-aggregate (in X's block: X_init's)?
    present: Vec<bool>,
    /// Slots per block: B's size, or room for a folded unit's groups.
    cap: usize,
    /// The tree's leaf count: one past the highest leaf absorbed.
    n_leaves: usize,
    /// Per leaf answering by position, once its first chunk is in: the B
    /// rows its survivor set answers, if it has one, and how many of its
    /// rows have landed.
    placed: Vec<Option<(Option<Vec<u32>>, usize)>>,
    /// Per row of the chunk being absorbed: its group, then its slot; and
    /// whether it is its leaf's first row for its group.
    slots: Vec<usize>,
    first: Vec<bool>,
    /// Per keyed row absorbed, in arrival order: its leaf and its group
    /// ([`MergeSync::finish_held`]).
    landed: Vec<(u32, u32)>,
}

/// Each leaf's keyed answer as rows of B_next, in the order the leaf sent
/// them: after a folded unit, an answering site's own groups.
#[derive(Debug, Default)]
pub struct LeafRows {
    /// Leaf `l`'s rows are `rows[ends[l]..ends[l + 1]]`.
    rows: Vec<u32>,
    ends: Vec<usize>,
}

impl LeafRows {
    /// Leaf `l`'s rows (none for a leaf the tree does not have).
    pub fn leaf(&self, l: usize) -> &[u32] {
        match (self.ends.get(l), self.ends.get(l + 1)) {
            (Some(&from), Some(&to)) => &self.rows[from..to],
            _ => &[],
        }
    }
}

impl MergeSync {
    /// Build X from the current base structure (`None` for folded units,
    /// where X grows from the incoming sub-results).
    pub fn new(b_cur: Option<&Relation>, key: &[String], op: &Gmdj) -> Result<MergeSync> {
        let mut x = MergeSync::folded(key.len(), op);
        if let Some(b) = b_cur {
            let idx = b.schema().indexes_of(&key.iter().map(String::as_str).collect::<Vec<_>>())?;
            x.base_keys = idx.iter().map(|&c| b.shared_column(c)).collect();
            x.cap = b.len();
            x.base = Some(b.clone());
        }
        Ok(x)
    }

    /// An empty X for a folded unit whose sub-results lead with `key_len`
    /// key columns.
    fn folded(key_len: usize, op: &Gmdj) -> MergeSync {
        MergeSync {
            base: None,
            base_keys: Vec::new(),
            keys: Vec::new(),
            key_len,
            index: IdTable::with_capacity(0),
            layout: op.layout(),
            states: None,
            present: Vec::new(),
            cap: 0,
            n_leaves: 0,
            placed: Vec::new(),
            slots: Vec::new(),
            first: Vec::new(),
            landed: Vec::new(),
        }
    }

    /// X's group count.
    fn groups(&self) -> usize {
        self.base.as_ref().map_or(self.index.len(), Relation::len)
    }

    /// Absorb one whole keyed answer as the next leaf: the key columns
    /// first, then the physical accumulator columns. Rows already merged
    /// across the sites ([`parallel_merge_tree`]) are one leaf, whose tree
    /// is that leaf.
    pub fn absorb(&mut self, h: &Relation) -> Result<()> {
        self.absorb_columns(self.n_leaves, h.schema(), h.columns())
    }

    /// Absorb one chunk of leaf `leaf`'s keyed answer as it lands, straight
    /// from its decoded `RESULT` frame: the key columns first, then the
    /// physical accumulator columns. A leaf is one answering site,
    /// numbered in site order; the tree has a leaf for every number up to
    /// the highest one absorbed, so an empty answer still counts.
    pub fn absorb_frame(&mut self, leaf: usize, chunk: ResultChunk) -> Result<()> {
        chunk.refuse_survivors("a keyed answer")?;
        self.absorb_columns(leaf, chunk.schema(), chunk.columns())
    }

    /// Absorb one chunk of leaf `leaf`'s answer by position, as it lands:
    /// its physical accumulator columns, no key. The answer's rows are
    /// its fragment's rows in order, or its first chunk's survivors';
    /// `fragment[i]` is the B row of fragment row `i` (`None`: the
    /// fragment is B). An answer may not outrun those rows, nor end short
    /// of them.
    pub fn absorb_at(&mut self, leaf: usize, fragment: Option<&[u32]>, mut chunk: ResultChunk) -> Result<()> {
        let width = self.layout.width();
        if chunk.schema().len() != width {
            return Err(arity_error(chunk.schema(), 0, width));
        }
        self.prepare(leaf, chunk.schema(), 0, 0)?;
        let err = |what: String| Err(Error::Execution(format!("a positional answer {what}")));
        let rows = fragment.map_or(self.cap, <[u32]>::len);
        let (survivors, landed) = match (self.placed[leaf].take(), chunk.survivors.take()) {
            (Some(_), Some(_)) => return err("repeats its survivor set on a later chunk".into()),
            (Some(placed), None) => placed,
            (None, Some(s)) if s.fragment_rows != rows => {
                return err(format!("has survivors over {} rows for a {rows}-row fragment", s.fragment_rows))
            }
            (None, s) => {
                // The survivors' fragment rows become their B rows, in place.
                let mut at = s.map(|s| s.at);
                if let (Some(at), Some(f)) = (&mut at, fragment) {
                    at.iter_mut().for_each(|p| *p = f[*p as usize]);
                }
                (at, 0)
            }
        };
        let answered = survivors.as_ref().map_or(rows, Vec::len);
        let end = landed + chunk.len();
        if end > answered {
            return err(format!("has {end} accumulator rows for {answered} answered fragment rows"));
        }
        if chunk.last && end < answered {
            return err(format!("ends after {end} of its {answered} answered fragment rows"));
        }
        self.slots.clear();
        self.slots.extend((landed..end).map(|r| match (&survivors, fragment) {
            (Some(at), _) => at[r] as usize,
            (None, Some(f)) => f[r] as usize,
            (None, None) => r,
        }));
        self.placed[leaf] = Some((survivors, end));
        self.scatter(leaf, chunk.columns(), 0)
    }

    /// Per row: one key hash and one lookup of its group (inserted, when
    /// folded, on first sighting); then every accumulator column scatters
    /// into leaf `leaf`'s typed states.
    fn absorb_columns(&mut self, leaf: usize, schema: &Schema, cols: &Columns) -> Result<()> {
        let (kl, width) = (self.key_len, self.layout.width());
        if schema.len() != kl + width {
            return Err(arity_error(schema, kl, width));
        }
        self.prepare(leaf, schema, kl, cols.len())?;
        if self.base.is_some() && self.index.len() < self.cap {
            let base_keys: Vec<&Column> = self.base_keys.iter().map(Arc::as_ref).collect();
            self.index = index_columns(&base_keys, self.cap)?;
        }
        self.slots.clear();
        for i in 0..cols.len() {
            let h = cols.key_hash(kl, i);
            let (keys, base_keys) = (&self.keys, &self.base_keys);
            let found = match &self.base {
                Some(_) => self.index.find(h, |g| {
                    let mut same = base_keys.iter().enumerate();
                    same.all(|(c, b)| cols.col(c).value_eq_at(i, b, g))
                }),
                None => self.index.find(h, |g| cols.key_eq(i, &keys[g * kl..(g + 1) * kl])),
            };
            let g = match found {
                Some(g) => g,
                None if self.base.is_some() => {
                    let key: Vec<Value> = (0..kl).map(|c| cols.value(c, i)).collect();
                    return Err(Error::Execution(format!("site reported unknown group {key:?}")));
                }
                None => {
                    // Prop 2: a folded unit's first sighting of a key
                    // makes its group, whose base part is its key.
                    self.keys.extend((0..kl).map(|c| cols.value(c, i)));
                    let g = self.index.insert(h);
                    if g == self.cap {
                        self.regrow((2 * self.cap).max(16));
                    }
                    g
                }
            };
            self.slots.push(g);
        }
        self.landed.extend(self.slots.iter().map(|&g| (leaf as u32, g as u32)));
        self.scatter(leaf, cols, kl)
    }

    /// Type the states after the first chunk's accumulator fields (those
    /// of `schema` past its `kl` key columns), and give leaf `leaf` its
    /// block.
    fn prepare(&mut self, leaf: usize, schema: &Schema, kl: usize, rows: usize) -> Result<()> {
        if self.states.is_none() {
            let types: Vec<DataType> = schema.fields()[kl..].iter().map(|f| f.data_type()).collect();
            self.states = Some(AccStates::new(&self.layout, &types, self.cap)?);
            // X's block: X_init for each of B's groups; a folded unit's
            // first chunk sizes the blocks for about one answer.
            self.present = vec![self.base.is_some(); self.cap];
            if self.base.is_none() {
                self.index = IdTable::with_capacity(rows);
                self.regrow(rows);
            }
        }
        if leaf >= self.n_leaves {
            self.n_leaves = leaf + 1;
            self.placed.resize(self.n_leaves, None);
            let slots = (1 + self.n_leaves) * self.cap;
            self.present.resize(slots, false);
            if let Some(states) = &mut self.states {
                states.resize(slots);
            }
        }
        Ok(())
    }

    /// Scatter the chunk's accumulator columns (`cols` from column `from`
    /// on) into leaf `leaf`'s states, row `i` into the group in `slots[i]`.
    fn scatter(&mut self, leaf: usize, cols: &Columns, from: usize) -> Result<()> {
        let block = (1 + leaf) * self.cap;
        self.first.clear();
        for s in &mut self.slots {
            *s += block;
            self.first.push(!self.present[*s]);
            self.present[*s] = true;
        }
        let states = self.states.as_mut();
        states.map_or(Ok(()), |states| states.absorb(cols, from, &self.slots, &self.first))
    }

    /// Give every block room for `cap` groups.
    fn regrow(&mut self, cap: usize) {
        let (blocks, old) = (1 + self.n_leaves, self.cap);
        if let Some(states) = &mut self.states {
            states.regrow(blocks, old, cap);
        }
        let mut present = vec![false; blocks * cap];
        for b in 0..blocks {
            present[b * cap..b * cap + old].copy_from_slice(&self.present[b * old..(b + 1) * old]);
        }
        (self.present, self.cap) = (present, cap);
    }

    /// Merge the leaves as the tree, level by level over whole leaves, and
    /// the root into X: block 0 holds the answer for every group present
    /// there.
    fn merge_tree(&mut self) -> Result<()> {
        let (n, cap, groups) = (self.n_leaves, self.cap, self.groups());
        let Some(states) = &mut self.states else {
            return Ok(());
        };
        let mut step = |dst: usize, src: usize| -> Result<()> {
            let (head, tail) = self.present.split_at_mut(src);
            let (dp, sp) = (&mut head[dst..dst + groups], &tail[..groups]);
            states.combine(dst, src, groups, dp, sp);
            dp.iter_mut().zip(sp).for_each(|(d, s)| *d |= *s);
            Ok(())
        };
        let mut stride = 1;
        while stride < n {
            for left in (0..n - stride).step_by(2 * stride) {
                step((1 + left) * cap, (1 + left + stride) * cap)?;
            }
            stride *= 2;
        }
        if n > 0 {
            step(0, cap)?;
        }
        Ok(())
    }

    /// A folded unit's key columns, declared `schema`'s leading types, in
    /// first-sighting order.
    fn folded_keys(&self, schema: &Schema) -> Vec<Column> {
        let groups = self.index.len();
        (0..self.key_len)
            .map(|c| {
                let mut b = ColumnBuilder::new(schema.field(c).data_type(), groups);
                (0..groups).for_each(|g| b.push(&self.keys[g * self.key_len + c]));
                b.finish()
            })
            .collect()
    }

    /// Finalize X into B_next with the logical output schema, as columns:
    /// B's columns, shared, in B's row order — or, folded, the key columns
    /// in key order (first sightings follow site arrival, so they are
    /// sorted for determinism), the order computed on the typed columns —
    /// then each aggregate finalized column-wise from the states
    /// ([`AccStates::finalize_columns`]).
    pub fn finish(self, b_in_schema: &Schema, op: &Gmdj, detail: &Schema) -> Result<Relation> {
        self.finish_with(b_in_schema, op, detail, false).map(|(b, _)| b)
    }

    /// [`MergeSync::finish`], and the rows of B_next that each leaf's keyed
    /// answer held, in the order it sent them: after a folded unit, each
    /// site's own groups, which a later unit can leave at the site
    /// ([`crate::plan::SiteFilter::Resident`]).
    pub fn finish_held(self, b_in_schema: &Schema, op: &Gmdj, detail: &Schema) -> Result<(Relation, LeafRows)> {
        self.finish_with(b_in_schema, op, detail, true)
    }

    fn finish_with(
        mut self,
        b_in_schema: &Schema,
        op: &Gmdj,
        detail: &Schema,
        held: bool,
    ) -> Result<(Relation, LeafRows)> {
        self.merge_tree()?;
        let out_schema = op.output_schema(b_in_schema, detail)?;
        let groups = self.groups();
        let mut order: Vec<u32> = (0..groups as u32).collect();
        let mut cols: Vec<Arc<Column>> = match &self.base {
            Some(b) => (0..b.schema().len()).map(|c| b.shared_column(c)).collect(),
            None => {
                let keys = self.folded_keys(&out_schema);
                order.sort_unstable_by(|&a, &b| {
                    let mut ord = keys.iter().map(|k| k.cmp_rows(a as usize, b as usize));
                    ord.find(|o| o.is_ne()).unwrap_or(std::cmp::Ordering::Equal)
                });
                keys.iter().map(|k| Arc::new(k.gather(&order))).collect()
            }
        };
        let held = match held {
            true => self.leaf_rows(&order),
            false => LeafRows::default(),
        };
        // No chunk arrived: every group is X_init.
        let states = match self.states.take() {
            Some(states) => states,
            None => {
                self.present = vec![false; groups];
                let fields = self.layout.physical_fields(detail)?;
                let types: Vec<DataType> = fields.iter().map(|f| f.data_type()).collect();
                AccStates::new(&self.layout, &types, groups)?
            }
        };
        cols.extend(states.finalize_columns(&order, &self.present));
        let b_next = Relation::from_columns(out_schema, Columns::from_shared(groups, cols))?;
        Ok((b_next, held))
    }

    /// The keyed rows that landed, bucketed by leaf in arrival order, each
    /// group mapped to its row of B_next, whose row `r` is group `order[r]`.
    fn leaf_rows(&self, order: &[u32]) -> LeafRows {
        let mut ends = vec![0usize; self.n_leaves + 1];
        self.landed.iter().for_each(|&(l, _)| ends[l as usize + 1] += 1);
        (0..self.n_leaves).for_each(|l| ends[l + 1] += ends[l]);
        let mut row_of = vec![0u32; order.len()];
        order.iter().enumerate().for_each(|(r, &g)| row_of[g as usize] = r as u32);
        let mut next = ends.clone();
        let mut rows = vec![0u32; self.landed.len()];
        for &(l, g) in &self.landed {
            rows[next[l as usize]] = row_of[g as usize];
            next[l as usize] += 1;
        }
        LeafRows { rows, ends }
    }
}

fn arity_error(h: &Schema, key_len: usize, width: usize) -> Error {
    Error::Execution(format!(
        "sub-result arity {} != key {key_len} + accumulators {width}",
        h.len()
    ))
}

/// Synchronizer for a locally-chained unit: assembles disjoint finalized
/// results, column-wise.
///
/// It keeps the sites' answers as they arrived (clones share their
/// columns) and numbers their rows in arrival order, indexed on their key
/// columns, read in place. [`ChainSync::finish_against`] places each
/// answer row at its group's position in B; [`ChainSync::finish_folded`]
/// sorts the rows by key. Either gathers each output column once, so
/// allocation is per column, never per group.
#[derive(Debug)]
pub struct ChainSync {
    key_len: usize,
    /// The sites' answers, in arrival order.
    answers: Vec<Relation>,
    /// Per answer: the number of its first row. Rows are numbered in
    /// arrival order, across answers.
    starts: Vec<usize>,
    /// Every absorbed row's key → its number.
    index: IdTable,
}

impl ChainSync {
    /// A synchronizer expecting `key_len` leading key columns.
    pub fn new(key_len: usize) -> ChainSync {
        ChainSync {
            key_len,
            answers: Vec::new(),
            starts: Vec::new(),
            index: IdTable::with_capacity(0),
        }
    }

    /// Absorb one site's finalized result (key columns + logical
    /// aggregates). Duplicate keys mean the partition-attribute assumption
    /// was violated — an execution error, not silent wrong answers.
    pub fn absorb(&mut self, h: &Relation) -> Result<()> {
        let kl = self.key_len;
        if h.schema().len() < kl {
            return Err(Error::Execution(format!(
                "chained answer of arity {} under a {kl}-column key",
                h.schema().len()
            )));
        }
        self.starts.push(self.index.len());
        self.answers.push(h.clone());
        self.index.reserve(h.len());
        let (answers, starts) = (&self.answers, &self.starts);
        let cols = h.columns();
        for i in 0..h.len() {
            let hash = cols.key_hash(kl, i);
            let seen = self.index.find(hash, |id| {
                let s = starts.partition_point(|&first| first <= id) - 1;
                let other = answers[s].columns();
                (0..kl).all(|c| cols.col(c).value_eq_at(i, other.col(c), id - starts[s]))
            });
            if seen.is_some() {
                let k: Vec<Value> = (0..kl).map(|c| cols.value(c, i)).collect();
                return Err(Error::Execution(format!(
                    "two sites reported group {k:?}: partition attribute assumption violated"
                )));
            }
            self.index.insert(hash);
        }
        Ok(())
    }

    /// Refuse an answer of another arity than `arity`.
    fn check_arity(&self, arity: usize) -> Result<()> {
        match self.answers.iter().find(|h| h.schema().len() != arity) {
            Some(h) => Err(Error::SchemaMismatch(format!("chained answer {} of arity {arity}", h.schema()))),
            None => Ok(()),
        }
    }

    /// Column `c` of every absorbed row, in row-number order, then `tail`'s
    /// rows: a column of type `declared`.
    fn concat(&self, c: usize, declared: DataType, tail: Option<&Column>) -> Result<Column> {
        let mut parts = Vec::with_capacity(self.answers.len() + 1);
        for h in &self.answers {
            if h.column(c).data_type() != declared {
                return Err(Error::SchemaMismatch(format!(
                    "chained answer {} where column {c} is {declared}",
                    h.schema()
                )));
            }
            parts.push(h.column(c));
        }
        parts.extend(tail);
        Ok(Column::concat(declared, &parts))
    }

    /// Assemble B_next against the coordinator's current B (non-folded):
    /// every group of `b_cur` gets its site-computed aggregates, or
    /// `empty_aggs` when no site owned it. B's columns are shared; each
    /// aggregate column is the sites' rows and one `empty_aggs` row,
    /// gathered at B's groups.
    pub fn finish_against(
        self,
        b_cur: &Relation,
        key: &[String],
        empty_aggs: &[Value],
        out_schema: Schema,
    ) -> Result<Relation> {
        let b_keys = key_columns(b_cur, key)?;
        let b_index = index_columns(&b_keys, b_cur.len())?;
        let b_arity = b_cur.schema().len();
        if out_schema.len() != b_arity + empty_aggs.len() {
            return Err(Error::SchemaMismatch(format!(
                "{} aggregates against B {} for {out_schema}",
                empty_aggs.len(),
                b_cur.schema()
            )));
        }
        self.check_arity(self.key_len + empty_aggs.len())?;
        // Per group of B: the row that answers it, or the empty row.
        let rows = self.index.len();
        let mut from = vec![rows as u32; b_cur.len()];
        let mut unknown = 0usize;
        for (h, &start) in self.answers.iter().zip(&self.starts) {
            let cols = h.columns();
            for i in 0..h.len() {
                let hash = cols.key_hash(self.key_len, i);
                let mut same = |g: usize| (b_keys.iter().enumerate()).all(|(c, b)| cols.col(c).value_eq_at(i, b, g));
                match b_index.find(hash, &mut same) {
                    Some(g) => from[g] = (start + i) as u32,
                    None => unknown += 1,
                }
            }
        }
        if unknown > 0 {
            return Err(Error::Execution(format!(
                "sites reported {unknown} group(s) not in the base structure"
            )));
        }
        let mut cols: Vec<Arc<Column>> = (0..b_arity).map(|c| b_cur.shared_column(c)).collect();
        for (j, empty) in empty_aggs.iter().enumerate() {
            let declared = out_schema.field(b_arity + j).data_type();
            if empty.data_type().is_some_and(|t| t != declared) {
                return Err(Error::SchemaMismatch(format!("{empty:?} as a {declared} aggregate")));
            }
            let mut tail = ColumnBuilder::new(declared, 1);
            tail.push(empty);
            let all = self.concat(self.key_len + j, declared, Some(&tail.finish()))?;
            cols.push(Arc::new(all.gather(&from)));
        }
        Relation::from_columns(out_schema, Columns::from_shared(b_cur.len(), cols))
    }

    /// Assemble B_next for a folded unit: the collected rows *are* the
    /// result, sorted by key (keys are unique, so arrival order never
    /// shows).
    pub fn finish_folded(self, out_schema: Schema) -> Result<Relation> {
        self.check_arity(out_schema.len())?;
        let cols = (out_schema.fields().iter().enumerate())
            .map(|(c, f)| self.concat(c, f.data_type(), None))
            .collect::<Result<Vec<_>>>()?;
        let rel = Relation::from_columns(out_schema, Columns::new(self.index.len(), cols))?;
        let names = rel.schema().column_names();
        rel.sorted_by(&names[..self.key_len.min(names.len())])
    }
}

/// Merge the sites' answers (key columns + physical accumulators) into one
/// still-physical relation without X: each answer is one leaf of
/// [`MergeSync`]'s tree, in order, and the output lists each key once, in
/// first-sighting order, with its tree's root. Absorbing that into X
/// ([`MergeSync::absorb`]) gives the bits that absorbing the answers'
/// chunks as they land ([`MergeSync::absorb_frame`]) gives.
///
/// `parallelism` is unused: at 5,000 groups on two cores, splitting the
/// keys across two scoped workers measured slower than one thread
/// (DESIGN.md, "Flat super-aggregation").
///
/// Returns `None` when `answers` is empty, and a lone answer unchanged.
pub fn parallel_merge_tree(
    mut answers: Vec<Relation>,
    key_len: usize,
    op: &Gmdj,
    _parallelism: usize,
) -> Result<Option<Relation>> {
    let w = op.layout().width();
    if let Some(h) = answers.iter().find(|h| h.schema().len() != key_len + w) {
        return Err(arity_error(h.schema(), key_len, w));
    }
    if answers.len() < 2 {
        return Ok(answers.pop());
    }
    let mut tree = MergeSync::folded(key_len, op);
    for h in &answers {
        tree.absorb(h)?;
    }
    tree.merge_tree()?;
    let schema = answers[0].schema();
    let groups = tree.index.len();
    let mut cols: Vec<Arc<Column>> = tree.folded_keys(schema).into_iter().map(Arc::new).collect();
    #[expect(clippy::expect_used, reason = "the first absorb makes the states")]
    let states = tree.states.as_ref().expect("two answers absorbed");
    let at: Vec<u32> = (0..groups as u32).collect();
    cols.extend(states.physical_columns(&at));
    Relation::from_columns(schema.clone(), Columns::from_shared(groups, cols)).map(Some)
}

/// The finalize-of-nothing aggregate values for a run of operators: what a
/// group's outputs are when no detail tuple anywhere matches it — one
/// fresh position of each operator's typed states, finalized.
pub fn empty_aggregates(ops: &[Gmdj]) -> Result<Vec<Value>> {
    let mut out = Vec::new();
    for op in ops {
        let layout = op.layout();
        // A fresh position finalizes to COUNT 0 and NULL elsewhere whatever
        // its slots' types, so each aggregate takes the last `width` of
        // VAR's: types a plan can give every aggregate of that width.
        let var = [DataType::Double, DataType::Double, DataType::Int];
        let types: Vec<DataType> =
            layout.entries().iter().flat_map(|(_, a, _)| var[3 - a.acc_width()..].to_vec()).collect();
        let states = AccStates::new(&layout, &types, 1)?;
        out.extend(states.finalize_columns(&[0], &[true]).iter().map(|c| c.value(0)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_result_chunk, result_chunk};
    use skalla_datagen::cases::{self, for_cases, Rng, StdRng};
    use skalla_gmdj::agg::AggSpec;
    use skalla_gmdj::oracle;
    use skalla_gmdj::theta::ThetaBuilder;
    use skalla_relation::{row, Row};

    fn key() -> Vec<String> {
        vec!["g".to_string()]
    }

    fn op() -> Gmdj {
        Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![AggSpec::count("cnt"), AggSpec::avg("v", "avg")],
        )
    }

    fn b0() -> Relation {
        Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            vec![row![1i64], row![2i64]],
        )
        .unwrap()
    }

    fn detail_schema() -> Schema {
        Schema::of(&[("g", DataType::Int), ("v", DataType::Int)])
    }

    /// The sub-result schema of [`op`]: g, cnt, avg__sum, avg__cnt.
    fn h_schema() -> Schema {
        Schema::of(&[
            ("g", DataType::Int),
            ("cnt", DataType::Int),
            ("avg__sum", DataType::Int),
            ("avg__cnt", DataType::Int),
        ])
    }

    /// `h` as the engine receives it: encoded into a `RESULT` frame and
    /// decoded.
    fn frame(h: &Relation) -> ResultChunk {
        decode_result_chunk(&result_chunk(1, h, false).payload).unwrap()
    }

    #[test]
    fn base_sync_dedups_and_checks_key() {
        let mut s = BaseSync::new();
        s.absorb(b0()).unwrap();
        s.absorb(b0()).unwrap();
        let b = s.finish(&key()).unwrap();
        assert_eq!(b.len(), 2);

        // Duplicate keys (distinct rows, same key) are rejected.
        let dup = Relation::new(
            Schema::of(&[("g", DataType::Int), ("x", DataType::Int)]),
            vec![row![1i64, 1i64], row![1i64, 2i64]],
        )
        .unwrap();
        let mut s = BaseSync::new();
        s.absorb(dup).unwrap();
        assert!(s.finish(&key()).is_err());

        assert!(BaseSync::new().finish(&key()).is_err());

        // Arrival order does not show: two sites' fragments absorbed in
        // either order give the same B₀, in key order.
        let frag = |keys: &[i64]| {
            let rows = keys.iter().map(|&g| row![g]).collect();
            Relation::new(Schema::of(&[("g", DataType::Int)]), rows).unwrap()
        };
        let finish = |first: &[i64], second: &[i64]| {
            let mut s = BaseSync::new();
            s.absorb(frag(first)).unwrap();
            s.absorb(frag(second)).unwrap();
            s.finish(&key()).unwrap()
        };
        let b = finish(&[3, 1], &[2, 1]);
        assert_eq!(b, finish(&[2, 1], &[3, 1]));
        assert_eq!(b.rows(), [row![1i64], row![2i64], row![3i64]]);
    }

    /// Sub-results from two sites merge per Theorem 1 (COUNT sums, AVG
    /// merges sums and counts).
    #[test]
    fn merge_sync_super_aggregates() {
        let b = b0();
        let mut sync = MergeSync::new(Some(&b), &key(), &op()).unwrap();
        let h1 = Relation::new(
            h_schema(),
            vec![row![1i64, 2i64, 30i64, 2i64], row![2i64, 1i64, 8i64, 1i64]],
        )
        .unwrap();
        let h2 = Relation::new(h_schema(), vec![row![1i64, 1i64, 30i64, 1i64]]).unwrap();
        sync.absorb(&h1).unwrap();
        sync.absorb(&h2).unwrap();
        let out = sync
            .finish(b0().schema(), &op(), &detail_schema())
            .unwrap();
        assert_eq!(out.rows()[0], row![1i64, 3i64, 20.0]);
        assert_eq!(out.rows()[1], row![2i64, 1i64, 8.0]);
    }

    #[test]
    fn merge_sync_rejects_unknown_groups_and_bad_arity() {
        let b = b0();
        let mut sync = MergeSync::new(Some(&b), &key(), &op()).unwrap();
        let h = Relation::new(h_schema(), vec![row![9i64, 1i64, 1i64, 1i64]]).unwrap();
        let err = sync.absorb(&h).unwrap_err();
        assert!(err.to_string().contains("unknown group [Int(9)]"), "{err}");
        let bad = Relation::new(
            Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]),
            vec![row![1i64, 1i64]],
        )
        .unwrap();
        assert!(sync.absorb(&bad).is_err());
        // The same two errors for a chunk as it lands.
        let err = sync.absorb_frame(0, frame(&h)).unwrap_err();
        assert!(err.to_string().contains("unknown group [Int(9)]"), "{err}");
        assert!(sync.absorb_frame(1, frame(&bad)).is_err());
    }

    #[test]
    fn merge_sync_folded_inserts_new_groups() {
        let mut sync = MergeSync::new(None, &key(), &op()).unwrap();
        sync.absorb(
            &Relation::new(h_schema(), vec![row![2i64, 1i64, 8i64, 1i64]]).unwrap(),
        )
        .unwrap();
        sync.absorb(
            &Relation::new(
                h_schema(),
                vec![row![1i64, 2i64, 30i64, 2i64], row![2i64, 2i64, 4i64, 2i64]],
            )
            .unwrap(),
        )
        .unwrap();
        let out = sync
            .finish(b0().schema(), &op(), &detail_schema())
            .unwrap();
        // Sorted by key despite arrival order.
        assert_eq!(out.rows()[0], row![1i64, 2i64, 15.0]);
        assert_eq!(out.rows()[1], row![2i64, 3i64, 4.0]);
    }

    #[test]
    fn chain_sync_rejects_duplicate_groups() {
        let mut sync = ChainSync::new(1);
        let h = Relation::new(
            Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]),
            vec![row![1i64, 5i64]],
        )
        .unwrap();
        sync.absorb(&h).unwrap();
        assert!(sync.absorb(&h).is_err());
    }

    #[test]
    fn chain_sync_fills_unowned_groups() {
        let mut sync = ChainSync::new(1);
        let h = Relation::new(
            Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]),
            vec![row![1i64, 5i64]],
        )
        .unwrap();
        sync.absorb(&h).unwrap();
        let out_schema = Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]);
        let out = sync
            .finish_against(&b0(), &key(), &[Value::Int(0)], out_schema)
            .unwrap();
        assert_eq!(out.rows()[0], row![1i64, 5i64]);
        assert_eq!(out.rows()[1], row![2i64, 0i64]);
    }

    #[test]
    fn chain_sync_folded_sorts_by_key() {
        let mut sync = ChainSync::new(1);
        let schema = Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]);
        sync.absorb(&Relation::new(schema.clone(), vec![row![5i64, 1i64]]).unwrap())
            .unwrap();
        sync.absorb(&Relation::new(schema.clone(), vec![row![2i64, 3i64]]).unwrap())
            .unwrap();
        let out = sync.finish_folded(schema).unwrap();
        assert_eq!(out.rows()[0], row![2i64, 3i64]);
        assert_eq!(out.rows()[1], row![5i64, 1i64]);
    }

    #[test]
    fn chain_sync_rejects_groups_outside_base() {
        let mut sync = ChainSync::new(1);
        let h = Relation::new(
            Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]),
            vec![row![9i64, 5i64]],
        )
        .unwrap();
        sync.absorb(&h).unwrap();
        let out_schema = Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]);
        assert!(sync
            .finish_against(&b0(), &key(), &[Value::Int(0)], out_schema)
            .is_err());
    }

    #[test]
    fn parallel_merge_tree_equals_left_fold() {
        // 7 answers (odd count exercises the lone-leftover path).
        let chunks: Vec<Relation> = (0..7)
            .map(|i| {
                Relation::new(
                    h_schema(),
                    vec![
                        row![1i64, 1i64, 10 * (i + 1), 1i64],
                        row![2i64, 2i64, i, 2i64],
                    ],
                )
                .unwrap()
            })
            .collect();

        // The left fold, by hand: per group, X_init ⊕ c₀ ⊕ c₁ ⊕ …
        let layout = op().layout();
        let mut fold = vec![oracle::init_all(&layout), oracle::init_all(&layout)];
        for c in &chunks {
            for (x, row) in fold.iter_mut().zip(c.rows()) {
                oracle::merge_all(&layout, x, &row.values()[1..]).unwrap();
            }
        }
        let fold_out: Vec<Row> = (1..=2)
            .zip(&fold)
            .map(|(g, x)| Row::new([vec![Value::Int(g)], oracle::finalize_all(&layout, x).unwrap()].concat()))
            .collect();

        let b = b0();
        let merged = parallel_merge_tree(chunks, 1, &op(), 4).unwrap().unwrap();
        assert_eq!(merged.len(), 2, "groups merged in the tree");
        let mut sync = MergeSync::new(Some(&b), &key(), &op()).unwrap();
        sync.absorb(&merged).unwrap();
        let tree_out = sync.finish(b.schema(), &op(), &detail_schema()).unwrap();
        assert_eq!(tree_out.rows(), fold_out);
    }

    #[test]
    fn parallel_merge_tree_empty_and_single() {
        assert!(parallel_merge_tree(Vec::new(), 1, &op(), 4)
            .unwrap()
            .is_none());
        let one = Relation::new(h_schema(), vec![row![1i64, 1i64, 5i64, 1i64]]).unwrap();
        let out = parallel_merge_tree(vec![one.clone()], 1, &op(), 4)
            .unwrap()
            .unwrap();
        assert_eq!(out, one);
    }

    #[test]
    fn merge_tree_rejects_bad_arity() {
        let bad = Relation::new(
            Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]),
            vec![row![1i64, 1i64]],
        )
        .unwrap();
        assert!(parallel_merge_tree(vec![bad.clone(), bad.clone()], 1, &op(), 1).is_err());
        // A lone answer is checked too, though it is not merged.
        assert!(parallel_merge_tree(vec![bad], 1, &op(), 1).is_err());
    }

    /// A literal B is checked once, as it enters the engine: a key two of
    /// its rows share (`-0.0` is `0.0` under `Value`'s equality) is an
    /// error under every flag set, though no synchronizer indexes B now
    /// that the sites answer a unit against it by position.
    #[test]
    fn a_literal_base_with_a_duplicate_key_is_an_error() {
        use crate::plan::{OptFlags, Planner};
        use skalla_gmdj::GmdjExprBuilder;
        let dup = Relation::new(
            Schema::of(&[("g", DataType::Double), ("x", DataType::Int)]),
            vec![row![0.0, 1i64], row![2.0, 2i64], row![-0.0, 3i64]],
        )
        .unwrap();
        let detail = |rows: Vec<Row>| {
            let rel = Relation::new(Schema::of(&[("g", DataType::Double), ("v", DataType::Int)]), rows).unwrap();
            (rel, skalla_relation::DomainMap::new())
        };
        let cluster = crate::Cluster::from_partitions(
            "t",
            vec![detail(vec![row![0.0, 1i64], row![2.0, 5i64]]), detail(vec![row![-0.0, 7i64]])],
        );
        let expr = GmdjExprBuilder::literal_base(dup.clone()).key(&["g"]).gmdj(op()).build();
        for flags in [OptFlags::none(), OptFlags::all()] {
            let plan = Planner::new(cluster.distribution()).optimize(&expr, flags);
            let err = cluster.execute(&plan).unwrap_err().to_string();
            assert!(err.contains("duplicate key [Double(-0.0)]"), "{flags:?}: {err}");
        }
        assert!(verify_unique_key(&dup, &key()).is_err());
        // The same B without its repeat runs.
        let unique = GmdjExprBuilder::literal_base(dup.gather(&[0, 1])).key(&["g"]).gmdj(op()).build();
        let plan = Planner::new(cluster.distribution()).optimize(&unique, OptFlags::all());
        assert_eq!(cluster.execute(&plan).unwrap().relation.rows()[0], row![0.0, 1i64, 2i64, 4.0]);
    }

    /// A site (a remote process) repeating a key in a folded unit: its
    /// rows, one chunk each, fold in arrival order before the tree merges
    /// them with the other sites', however the sites' chunks interleave.
    /// Near 1e16 doubles are 2 apart, so a lone `+ 1.0` rounds away and
    /// the order shows.
    #[test]
    fn a_folded_site_repeating_a_key_merges_in_arrival_order() {
        let op = Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![AggSpec::sum("d", "s")],
        );
        let schema = Schema::of(&[("g", DataType::Int), ("s", DataType::Double)]);
        let detail = Schema::of(&[("g", DataType::Int), ("d", DataType::Double)]);
        // Chunks as they land: (site's leaf, the one row's sum).
        let merged = |arrivals: &[(usize, f64)]| {
            let mut sync = MergeSync::new(None, &key(), &op).unwrap();
            for &(leaf, d) in arrivals {
                let chunk = Relation::new(schema.clone(), vec![row![7i64, d]]).unwrap();
                sync.absorb_frame(leaf, frame(&chunk)).unwrap();
            }
            let out = sync.finish(&Schema::of(&[("g", DataType::Int)]), &op, &detail).unwrap();
            assert_eq!(out.len(), 1);
            out.rows()[0].get(1).clone()
        };
        assert_eq!(merged(&[(0, 1e16), (0, 1.0), (0, 1.0)]), Value::Double(1e16));
        assert_eq!(merged(&[(0, 1.0), (0, 1.0), (0, 1e16)]), Value::Double(1e16 + 2.0));
        // Site 1's rows meet each other first, then site 0's.
        assert_eq!(merged(&[(0, 1e16), (1, 1.0), (1, 1.0)]), Value::Double(1e16 + 2.0));
        assert_eq!(merged(&[(1, 1.0), (0, 1e16), (1, 1.0)]), Value::Double(1e16 + 2.0));
        assert_eq!(merged(&[(0, 1e16), (1, 1.0), (0, 1.0)]), Value::Double(1e16));
    }

    /// A quiet NaN with payload `p`.
    fn nan(p: u64) -> f64 {
        f64::from_bits(0x7ff8_0000_0000_0000 | p)
    }

    /// The same bits: same variant, same f64 bit pattern, same string.
    fn identical(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
            (Value::Null, Value::Null) => true,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Str(x), Value::Str(y)) => x == y,
            _ => false,
        }
    }

    /// The spec's independent reference for one key: the present sites'
    /// accumulators in site order, reduced by the pairwise tree — the
    /// left subtree over the largest power of two below the count.
    fn reference_tree(layout: &AccLayout, leaves: &[Option<Vec<Value>>]) -> Option<Vec<Value>> {
        if leaves.len() < 2 {
            return leaves.first().cloned().flatten();
        }
        let split = 1 << (usize::BITS - 1 - (leaves.len() - 1).leading_zeros());
        let (left, right) = leaves.split_at(split);
        match (reference_tree(layout, left), reference_tree(layout, right)) {
            (Some(mut l), Some(r)) => {
                oracle::merge_all(layout, &mut l, &r).unwrap();
                Some(l)
            }
            (l, r) => l.or(r),
        }
    }

    /// The spec tests' operator over their detail schema: COUNT, Int SUM,
    /// Double SUM, a NULL-only SUM, AVG, VAR and string MIN/MAX; with the
    /// detail schema and the sub-result schema (`g` + the physical
    /// accumulators).
    fn spec_op() -> (Gmdj, Schema, Schema) {
        let detail = Schema::of(&[
            ("g", DataType::Int),
            ("i", DataType::Int),
            ("d", DataType::Double),
            ("n", DataType::Int),
            ("s", DataType::Str),
        ]);
        let op = Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![
                AggSpec::count("cnt"),
                AggSpec::sum("i", "sum_i"),
                AggSpec::sum("d", "sum_d"),
                AggSpec::sum("n", "sum_n"),
                AggSpec::avg("d", "avg_d"),
                AggSpec::var("d", "var_d"),
                AggSpec::min("s", "min_s"),
                AggSpec::max("s", "max_s"),
            ],
        );
        let mut h_fields = vec![skalla_relation::Field::new("g", DataType::Int)];
        h_fields.extend(op.layout().physical_fields(&detail).unwrap());
        (op, detail, Schema::new(h_fields).unwrap())
    }

    /// One generated merge: per site, per key, the site's accumulators if
    /// it has the key; each site's answer as row-blocked chunks; B over
    /// every key in a shuffled order, under a tag column.
    struct MergeCase {
        n_sites: usize,
        n_keys: usize,
        folded: bool,
        accs: Vec<Vec<Option<Vec<Value>>>>,
        chunks: Vec<Vec<Relation>>,
        b: Relation,
        b_keys: Vec<usize>,
    }

    /// Case `case` of the spec tests' generator: 1–7 sites, keys missing
    /// per site, empty answers, row-blocked chunks; key `k` is `key(k)`
    /// (distinct keys must be distinct values, of `h_schema`'s key type).
    /// The Double SUM runs over ±0.0 and two NaN payloads; an AVG's sum is
    /// present exactly where its count is positive, as a site's is.
    fn merge_case(rng: &mut StdRng, case: usize, h_schema: &Schema, key: impl Fn(usize) -> Value) -> MergeCase {
        let doubles = [-0.0, 0.0, 0.1, 3.0, 1e16, -1e16, nan(1), nan(0xabc)];
        let strings = [Value::Null, Value::str("a"), Value::str("ab"), Value::str("z")];
        let (n_sites, n_keys, folded) = (1 + case % 7, rng.gen_range(1..10usize), case.is_multiple_of(3));
        let dbl = |rng: &mut StdRng| Value::Double(cases::pick(rng, &doubles));
        let accs: Vec<Vec<Option<Vec<Value>>>> = (0..n_sites)
            .map(|_| {
                (0..n_keys)
                    .map(|_| {
                        (rng.gen_range(0..3) > 0).then(|| {
                            let avg_cnt = rng.gen_range(0..4i64);
                            let avg_sum = if avg_cnt > 0 { dbl(rng) } else { Value::Null };
                            vec![
                                Value::Int(rng.gen_range(0..4i64)),
                                Value::Int(i64::MAX - rng.gen_range(0..3i64)),
                                dbl(rng),
                                Value::Null,
                                avg_sum,
                                Value::Int(avg_cnt),
                                dbl(rng),
                                dbl(rng),
                                Value::Int(rng.gen_range(0..4i64)),
                                cases::pick(rng, &strings),
                                cases::pick(rng, &strings),
                            ]
                        })
                    })
                    .collect()
            })
            .collect();
        // Each site answers its keys in a shuffled order, cut into
        // row-blocked chunks at random points.
        let chunks = accs
            .iter()
            .map(|site| {
                let mut rows: Vec<Row> = site
                    .iter()
                    .enumerate()
                    .filter_map(|(k, a)| Some(Row::new([&[key(k)][..], a.as_ref()?].concat())))
                    .collect();
                for i in (1..rows.len()).rev() {
                    rows.swap(i, rng.gen_range(0..i + 1));
                }
                let mut chunks = Vec::new();
                loop {
                    let rest = rows.split_off(rng.gen_range(0..rows.len() + 1));
                    chunks.push(Relation::new(h_schema.clone(), rows).unwrap());
                    if rest.is_empty() {
                        break chunks;
                    }
                    rows = rest;
                }
            })
            .collect();
        let mut b_keys: Vec<usize> = (0..n_keys).collect();
        for i in (1..n_keys).rev() {
            b_keys.swap(i, rng.gen_range(0..i + 1));
        }
        let b = Relation::new(
            Schema::of(&[("tag", DataType::Str), ("g", h_schema.field(0).data_type())]),
            b_keys.iter().map(|&k| Row::new(vec![Value::str(format!("t{k}")), key(k)])).collect(),
        )
        .unwrap();
        MergeCase {
            n_sites,
            n_keys,
            folded,
            accs,
            chunks,
            b,
            b_keys,
        }
    }

    /// The engine's way into X: every chunk encoded into a `RESULT` frame
    /// and absorbed as it lands, the sites' chunks interleaved at random,
    /// each site's in order.
    fn absorb_interleaved(c: &MergeCase, op: &Gmdj, rng: &mut StdRng) -> MergeSync {
        let mut engine = MergeSync::new((!c.folded).then_some(&c.b), &key(), op).unwrap();
        let mut queues: Vec<_> = c.chunks.iter().map(|c| c.iter()).collect();
        let mut live: Vec<usize> = (0..c.n_sites).collect();
        while !live.is_empty() {
            let at = rng.gen_range(0..live.len());
            match queues[live[at]].next() {
                Some(chunk) => engine.absorb_frame(live[at], frame(chunk)).unwrap(),
                None => {
                    live.swap_remove(at);
                }
            }
        }
        engine
    }

    /// Both ways into X — the engine's (each chunk encoded into a `RESULT`
    /// frame and absorbed as it lands, `absorb_frame`, sites interleaved)
    /// and the layer walk's (`parallel_merge_tree` → `absorb`) — give,
    /// bit for bit, `X_init ⊕ tree` finalized (the tree alone when
    /// folded), over [`merge_case`]'s cases.
    #[test]
    fn merge_bits_match_the_pairwise_tree_reference() {
        let (op, detail, h_schema) = spec_op();
        let layout = op.layout();
        let key_schema = Schema::of(&[("g", DataType::Int)]);
        let mut case = 0;
        for_cases("merge_bits_match_the_pairwise_tree_reference", 400, |rng| {
            let c = merge_case(rng, case, &h_schema, |k| Value::Int(k as i64));
            let (n_sites, folded) = (c.n_sites, c.folded);
            let engine = absorb_interleaved(&c, &op, rng);
            // The layer walk's way: whole answers through the tree, then X.
            let mut walk = MergeSync::new((!folded).then_some(&c.b), &key(), &op).unwrap();
            let answers = c
                .chunks
                .iter()
                .map(|c| {
                    let rows = c.iter().flat_map(|r| r.rows().iter().cloned()).collect();
                    Relation::new(h_schema.clone(), rows).unwrap()
                })
                .collect();
            if let Some(m) = parallel_merge_tree(answers, 1, &op, 2).unwrap() {
                walk.absorb(&m).unwrap();
            }

            // The reference: per key, X_init ⊕ tree (the tree alone when
            // folded, where a group is first sighted, not initialized).
            let mut want = Vec::new();
            let order: Vec<usize> = if folded { (0..c.n_keys).collect() } else { c.b_keys.clone() };
            for k in order {
                let leaves: Vec<_> = c.accs.iter().map(|site| site[k].clone()).collect();
                let tree = reference_tree(&layout, &leaves);
                let x = match (folded, tree) {
                    (true, None) => continue,
                    (true, Some(t)) => t,
                    (false, tree) => {
                        let mut x = oracle::init_all(&layout);
                        if let Some(t) = tree {
                            oracle::merge_all(&layout, &mut x, &t).unwrap();
                        }
                        x
                    }
                };
                let mut vs = vec![Value::Int(k as i64)];
                if !folded {
                    vs.insert(0, Value::str(format!("t{k}")));
                }
                vs.extend(oracle::finalize_all(&layout, &x).unwrap());
                want.push(vs);
            }
            let in_schema = if folded { &key_schema } else { c.b.schema() };
            for (way, sync) in [("engine", engine), ("walk", walk)] {
                let got = sync.finish(in_schema, &op, &detail).unwrap();
                assert_eq!(got.len(), want.len(), "case {case}, {way}");
                for (g, w) in got.rows().iter().zip(&want) {
                    assert!(
                        g.values().iter().zip(w).all(|(a, b)| identical(a, b)),
                        "case {case} ({n_sites} sites, folded {folded}, {way}): {:?} vs {:?}",
                        bits(g.values()),
                        bits(w)
                    );
                }
            }
            case += 1;
        });
    }

    /// Each value's bits, for a readable failure.
    fn bits(vs: &[Value]) -> Vec<String> {
        let show = |v: &Value| match v {
            Value::Double(d) => format!("{:#x}", d.to_bits()),
            v => format!("{v:?}"),
        };
        vs.iter().map(show).collect()
    }

    /// [`MergeSync::finish`] as it was written before it built columns: a
    /// row per group, from the states' accumulator values (the values of
    /// [`AccStates::physical_columns`], X_init where no state holds the
    /// group) through the reference's [`oracle::finalize_all`], in B's row
    /// order — or, folded, sorted by the keys' `Value` order.
    fn finish_by_rows(mut x: MergeSync, b_in_schema: &Schema, op: &Gmdj, detail: &Schema) -> Relation {
        x.merge_tree().unwrap();
        let out_schema = op.output_schema(b_in_schema, detail).unwrap();
        let kl = x.key_len;
        let key = |g: usize| &x.keys[g * kl..(g + 1) * kl];
        let mut order: Vec<usize> = (0..x.index.len()).collect();
        if x.base.is_none() {
            order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        }
        let mut acc = Vec::new();
        let mut rows = Vec::new();
        for g in order {
            let mut vs = match &x.base {
                Some(b) => b.rows()[g].values().to_vec(),
                None => key(g).to_vec(),
            };
            acc.clear();
            match &x.states {
                Some(states) if x.present[g] => {
                    acc.extend(states.physical_columns(&[g as u32]).iter().map(|c| c.value(0)))
                }
                _ => acc.extend(oracle::init_all(&x.layout)),
            }
            vs.extend(oracle::finalize_all(&x.layout, &acc).unwrap());
            rows.push(Row::new(vs));
        }
        Relation::new(out_schema, rows).unwrap()
    }

    /// `MergeSync::finish`'s columns are, bit for bit, the row loop's
    /// answer ([`finish_by_rows`]) — its values, the columns
    /// `Columns::from_rows` makes of them, and so the frame that ships them —
    /// on folded and unfolded units over Int keys, Double keys with NaN
    /// and NULL, string keys with NULL, and Int keys with NULL around 2⁵³
    /// and at the ends of the range.
    #[test]
    fn finish_columns_match_the_row_loop() {
        let (op, detail, h_schema) = spec_op();
        let pools: [(DataType, Vec<Value>); 4] = [
            (DataType::Int, (0..9).map(|k| Value::Int(8 - 2 * k)).collect()),
            (
                DataType::Double,
                [nan(3), -0.0, 2.5, -1e300, 1e16, f64::INFINITY, 7.0, -3.25]
                    .into_iter()
                    .map(Value::Double)
                    .chain([Value::Null])
                    .collect(),
            ),
            (
                DataType::Str,
                [Value::Null, Value::str("b"), Value::str("a"), Value::str(""), Value::str("ab")]
                    .into_iter()
                    .chain((0..4).map(|k| Value::str(format!("k{k}"))))
                    .collect(),
            ),
            (
                DataType::Int,
                [5, -3, 1 << 53, (1 << 53) + 1, -(1 << 53) - 1, i64::MIN, i64::MAX, 0]
                    .into_iter()
                    .map(Value::Int)
                    .chain([Value::Null])
                    .collect(),
            ),
        ];
        let mut case = 0;
        for_cases("finish_columns_match_the_row_loop", 240, |rng| {
            let (ty, pool) = &pools[case % 4];
            let key_schema = Schema::of(&[("g", *ty)]);
            let mut fields = h_schema.fields().to_vec();
            fields[0] = skalla_relation::Field::new("g", *ty);
            let h_schema = Schema::new(fields).unwrap();
            let c = merge_case(rng, case, &h_schema, |k| pool[k].clone());
            // Two identical syncs, one per way to finish.
            let cols = absorb_interleaved(&c, &op, &mut rng.clone());
            let rows = absorb_interleaved(&c, &op, rng);
            let in_schema = if c.folded { &key_schema } else { c.b.schema() };
            let got = cols.finish(in_schema, &op, &detail).unwrap();
            let want = finish_by_rows(rows, in_schema, &op, &detail);
            let what = format!("case {case} ({} sites, folded {})", c.n_sites, c.folded);
            assert_eq!(got.len(), want.len(), "{what}");
            let rebuilt = Relation::new(want.schema().clone(), want.rows().to_vec()).unwrap();
            assert!(
                crate::protocol::result(1, &got).payload == crate::protocol::result(1, &rebuilt).payload,
                "{what}: frames differ"
            );
            for (g, w) in got.rows().iter().zip(want.rows()) {
                assert!(
                    g.values().iter().zip(w.values()).all(|(a, b)| identical(a, b)),
                    "{what}: {:?} vs {:?}",
                    bits(g.values()),
                    bits(w.values())
                );
            }
            case += 1;
        });
    }

    #[test]
    fn empty_aggregates_finalize_init() {
        let aggs = empty_aggregates(&[op()]).unwrap();
        assert_eq!(aggs, vec![Value::Int(0), Value::Null]);
        // Every function, over Int, Double, NULL-only and string inputs:
        // COUNT 0, NULL for the rest.
        let (spec, _, _) = spec_op();
        let aggs = empty_aggregates(&[spec, op()]).unwrap();
        let mut want = vec![Value::Int(0)];
        want.extend(vec![Value::Null; 7]);
        want.extend([Value::Int(0), Value::Null]);
        assert_eq!(aggs, want);
    }
}
