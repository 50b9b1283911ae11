//! Coordinator-side synchronization.
//!
//! The coordinator maintains the base-result structure X, indexed on the
//! key attributes K, and consolidates each site's sub-results into it
//! (paper Sect. 3.2). Three synchronizers cover the three stage shapes:
//!
//! * [`BaseSync`] — the base round's distinct groups (a key two rows
//!   share with other values is an error);
//! * [`MergeSync`] — super-aggregate merging of physical accumulators
//!   (Theorem 1), X growing from a folded unit's keyed answers (Prop 2);
//! * [`ChainSync`] — disjoint assembly of locally-finalized results from
//!   synchronization-reduced units (Thm 5 / Cor 1), which *verifies* the
//!   partition assumption by rejecting a key two rows share.
//!
//! **Three syncs, one merge.** A site answers every keyed round — the
//! base round, a folded unit, a folded chain — in key order, so each
//! answering site's answer is one sorted run, and all three take them
//! through one k-way pass over the runs (`Runs::pass`): it writes B_next's
//! keys in key order, each spelled as the lowest leaf spells it, and maps
//! each leaf's rows to B_next's ([`LeafRows`]), hashing no key and
//! sorting no row. The order is remote input, so the pass checks it, and a run
//! out of order fails the round.
//!
//! A site answers a unit against B by position ([`MergeSync::absorb_at`]):
//! its row `i` is its fragment's row `i` (its `i`-th survivor's under
//! Prop 1), whose B row the coordinator kept. A folded unit's keyed answers
//! ([`MergeSync::absorb_frame`]) wait for the pass, which places their
//! rows the same way. Either scatters each accumulator column into its
//! site's leaf of typed states ([`skalla_gmdj::state::AccStates`], the
//! kernel's own); [`MergeSync::finish`] runs the merge tree over whole
//! leaves and finalizes X column-wise. Nothing between a site's kernel and
//! the caller builds a row; allocation is per state growth and per output
//! column, never per absorbed row, tree level or output group.
//!
//! The state machine that drives them (Alg. GMDJDistribEval), and its
//! receive driver over a transport, are the crate-private `run`
//! sub-module.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

mod run;

pub(crate) use run::{finished_rounds, net_err, run_coordinator, Clock, CoordMachine};

use crate::protocol::ResultFrame;
use skalla_gmdj::agg::{AccLayout, AggFunc, AggSpec};
use skalla_gmdj::operator::Gmdj;
use skalla_gmdj::state::AccStates;
use skalla_relation::columns::{row_key_hash, IdTable};
use skalla_relation::{Column, ColumnBuilder, Columns, DataType, Error, Field, Relation, Result, Schema, Value};
use std::cmp::Ordering;
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

/// The row of B whose key columns `b_keys` (indexed by `index`) equal row
/// `i`'s leading columns in `cols`.
fn row_in(b_keys: &[&Column], index: &IdTable, cols: &Columns, i: usize) -> Option<usize> {
    let same = |g| b_keys.iter().enumerate().all(|(c, b)| cols.col(c).value_eq_at(i, b, g));
    index.find(cols.key_hash(b_keys.len(), i), same)
}

/// A row of a round's answers: its leaf and its row in the leaf's run.
type At = (u32, u32);

/// One round's keyed answers as k sorted runs, one per leaf (an answering
/// site).
#[derive(Debug, Default)]
struct Runs {
    /// Per leaf, its run: no column and no row for a leaf that sent none.
    runs: Vec<Columns>,
    /// The first run's column types, which every run must have.
    types: Vec<DataType>,
    /// Per leaf, the site it stands for in an error (else its number).
    sites: Vec<usize>,
}

impl Runs {
    /// The leaf count: one past the highest leaf absorbed.
    fn leaves(&self) -> usize {
        self.runs.len()
    }

    /// True if no run is in.
    fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Leaf `l`'s site, for an error.
    fn site(&self, l: usize) -> usize {
        self.sites.get(l).copied().unwrap_or(l)
    }

    /// Take leaf `leaf`'s run, typed as the first run; a second run for
    /// one leaf is an error.
    fn push(&mut self, leaf: usize, cols: Columns) -> Result<()> {
        let types = (0..cols.arity()).map(|c| cols.col(c).data_type());
        if self.runs.is_empty() {
            self.types = types.collect();
        } else if !types.clone().eq(self.types.iter().copied()) {
            let msg = format!("an answer typed {:?} beside one typed {:?}", types.collect::<Vec<_>>(), self.types);
            return Err(Error::SchemaMismatch(msg));
        }
        if leaf >= self.runs.len() {
            self.runs.resize(leaf + 1, Columns::from_shared(0, Vec::new()));
        } else if self.runs[leaf].arity() > 0 {
            return Err(Error::Execution(format!("site {} answered twice", self.site(leaf))));
        }
        self.runs[leaf] = cols;
        Ok(())
    }

    /// Row `at`'s values at `key`.
    fn key_of(&self, (l, r): At, key: &[usize]) -> Vec<Value> {
        key.iter().map(|&k| self.runs[l as usize].value(k, r as usize)).collect()
    }

    /// One k-way pass over the runs in the order of their columns at
    /// `key` ([`Column::cmp_at`], lexicographic), the lowest leaf first on
    /// a tie: per output row, the row that spells its key (the lowest
    /// leaf's first), as its index in the runs laid end to end in leaf
    /// order; and per leaf, its rows' output rows. `repeat(first, again)`
    /// sees every later row with a key. A row below its predecessor in its
    /// run fails the pass, naming its site.
    fn pass(&self, key: &[usize], mut repeat: impl FnMut(At, At) -> Result<()>) -> Result<(Vec<u32>, LeafRows)> {
        let n = self.runs.len();
        // Leaf `l`'s rows are `ends[l]..ends[l + 1]` of the runs laid end
        // to end, and `head[l]` is its next row.
        let mut ends = vec![0usize; n + 1];
        (0..n).for_each(|l| ends[l + 1] = ends[l] + self.runs[l].len());
        let mut head = vec![0usize; n];
        let at = |l: usize, r: usize| (l as u32, r as u32);
        let cmp = |(a, r): At, (b, s): At| {
            let (x, y) = (&self.runs[a as usize], &self.runs[b as usize]);
            let mut ord = key.iter().map(|&k| x.col(k).cmp_at(r as usize, y.col(k), s as usize));
            ord.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        };
        let (mut picks, mut rows, mut tied) = (Vec::with_capacity(ends[n]), vec![0u32; ends[n]], Vec::with_capacity(n));
        loop {
            // The leaves whose heads are lowest, the lowest leaf first.
            tied.clear();
            for l in (0..n).filter(|&l| head[l] < self.runs[l].len()) {
                match tied.first().map(|&m| cmp(at(l, head[l]), at(m, head[m]))) {
                    Some(Ordering::Greater) => {}
                    Some(Ordering::Equal) => tied.push(l),
                    None | Some(Ordering::Less) => {
                        tied.clear();
                        tied.push(l);
                    }
                }
            }
            let Some(first) = tied.first().map(|&l| at(l, head[l])) else { break };
            let g = picks.len() as u32;
            picks.push((ends[first.0 as usize] + first.1 as usize) as u32);
            // Each tied run's rows while they equal the head; one below
            // its predecessor, which does, is out of order.
            for &l in &tied {
                loop {
                    let i = at(l, head[l]);
                    if i != first {
                        repeat(first, i)?;
                    }
                    rows[ends[l] + head[l]] = g;
                    head[l] += 1;
                    match (head[l] < self.runs[l].len()).then(|| cmp(at(l, head[l]), first)) {
                        Some(Ordering::Equal) => {}
                        Some(Ordering::Less) => {
                            let (site, later, before) = (self.site(l), self.key_of(at(l, head[l]), key), self.key_of(i, key));
                            return Err(Error::Execution(format!("site {site} sent its keyed answer out of key order: {later:?} after {before:?}")));
                        }
                        _ => break,
                    }
                }
            }
        }
        Ok((picks, LeafRows { rows, ends }))
    }

    /// Column `c` of every run, in leaf order; refused unless the runs
    /// type it `declared`.
    fn parts(&self, c: usize, declared: DataType) -> Result<Vec<&Column>> {
        match self.types.get(c) {
            Some(&t) if t == declared => Ok(self.runs.iter().filter(|r| !r.is_empty()).map(|r| r.col(c)).collect()),
            None if self.runs.is_empty() => Ok(Vec::new()),
            t => Err(Error::SchemaMismatch(format!("an answer's column {c} is {t:?} where {declared} is declared"))),
        }
    }

    /// The columns `fields` declare, from the first on, at the rows
    /// `picks` of the runs laid end to end in leaf order.
    fn gather(&self, fields: &[Field], picks: &[u32]) -> Result<Vec<Arc<Column>>> {
        let column = |(c, f): (usize, &Field)| Ok(Arc::new(Column::concat(f.data_type(), &self.parts(c, f.data_type())?).gather(picks)));
        fields.iter().enumerate().map(column).collect()
    }
}

/// Synchronizer for the base round: merges the sites' distinct groups,
/// each site's fragment one sorted run.
#[derive(Debug, Default)]
pub struct BaseSync {
    runs: Runs,
    /// The first fragment's schema.
    schema: Option<Schema>,
}

impl BaseSync {
    /// Start with nothing collected.
    pub fn new() -> BaseSync {
        BaseSync::default()
    }

    /// Absorb one site's base fragment as the next leaf.
    pub fn absorb(&mut self, fragment: Relation) -> Result<()> {
        self.absorb_run(self.runs.leaves(), fragment)
    }

    /// Absorb site `leaf`'s fragment, sorted by the key.
    pub fn absorb_run(&mut self, leaf: usize, fragment: Relation) -> Result<()> {
        self.schema.get_or_insert_with(|| fragment.schema().clone());
        self.runs.push(leaf, fragment.columns().clone())
    }

    /// B₀: the fragments merged in key order, equal rows once, each group
    /// spelled as the lowest site spells it. A key two rows share with
    /// other values is an error. Key order makes B₀ — and every later
    /// round, and the final result — the same bits whatever order the
    /// fragments arrived in, over any worker count and transport.
    pub fn finish(self, key: &[String]) -> Result<Relation> {
        let schema = self.schema.ok_or_else(|| Error::Execution("no base fragments received".into()))?;
        let key = schema.indexes_of(&key.iter().map(String::as_str).collect::<Vec<_>>())?;
        let runs = &self.runs;
        let (picks, _) = runs.pass(&key, |a, b| {
            let (x, y) = (&runs.runs[a.0 as usize], &runs.runs[b.0 as usize]);
            match (0..x.arity()).all(|c| x.col(c).value_eq_at(a.1 as usize, y.col(c), b.1 as usize)) {
                true => Ok(()),
                false => Err(Error::Execution(format!("base-values relation has duplicate key {:?}", runs.key_of(a, &key)))),
            }
        })?;
        let cols = runs.gather(schema.fields(), &picks)?;
        Relation::from_columns(schema, Columns::from_shared(picks.len(), cols))
    }
}

/// Synchronizer for a single-operator unit: merges physical sub-aggregates
/// into X per Theorem 1.
///
/// X is B (a clone sharing its columns), group `g` being B's row `g`,
/// beside typed accumulator states; a folded unit's X is the keys of the
/// sites' answers, in key order (Prop 2). Each answering site is a leaf,
/// one typed state over X's groups with a presence bit per group, reached
/// by position ([`MergeSync::absorb_at`]) or, folded, through the pass
/// ([`MergeSync::absorb_frame`]: a key the leaf repeats merges in run
/// order). [`MergeSync::finish`] merges the leaves as a binary tree —
/// adjacent leaves pair level by level, each merge taking (left, right),
/// a leaf without the group passing its right neighbour's across — and
/// then the root into X_init (taken as is when folded). The tree's shape
/// depends only on the leaf count, so the bits do too, and Theorem 1's
/// associativity makes it equal to a left fold
/// (`parallel_merge_tree_equals_left_fold`).
#[derive(Debug)]
pub struct MergeSync {
    /// B: row `g` is group `g`'s base part (`None` when folded).
    base: Option<Relation>,
    /// B's key columns, in key order, and their index: what a keyed answer
    /// against B is looked up by (the layer walk's adapter).
    base_keys: Vec<Arc<Column>>,
    index: IdTable,
    key_len: usize,
    /// The operator's blocks, which an answer's schema lays out when no
    /// detail schema has ([`AccLayout::from_physical`]).
    blocks: Vec<Vec<AggSpec>>,
    /// The slots, from the detail schema ([`MergeSync::over`]) or, failing
    /// that, from the first answer's schema (`inferred`), which finish
    /// then holds to the detail schema's.
    layout: Option<AccLayout>,
    inferred: bool,
    /// A folded unit's keyed answers, placed by the pass at finish.
    runs: Runs,
    /// The tree's slots, in blocks of `cap` groups: block 0 is X, block
    /// `1 + l` is leaf `l`; `None` until an answer is placed.
    states: Option<AccStates>,
    /// Per slot: does it hold a sub-aggregate (in X's block: X_init's)?
    present: Vec<bool>,
    /// Slots per block: X's group count (a folded unit's, once placed).
    cap: usize,
    /// The tree's leaf count: one past the highest leaf absorbed.
    n_leaves: usize,
    /// Per row of the answer being placed: its group, then its slot; and
    /// whether it is its leaf's first row for its group.
    slots: Vec<usize>,
    first: Vec<bool>,
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
        self.ends.get(l..l + 2).map_or(&[], |e| &self.rows[e[0]..e[1]])
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

    /// [`MergeSync::new`] with `layout`, `op`'s slots over the unit's
    /// detail schema, so that no answer's schema is read for them.
    pub fn over(b_cur: Option<&Relation>, key: &[String], op: &Gmdj, layout: AccLayout) -> Result<MergeSync> {
        let mut x = MergeSync::new(b_cur, key, op)?;
        x.layout = Some(layout);
        Ok(x)
    }

    /// An empty X for a folded unit whose sub-results lead with `key_len`
    /// key columns.
    fn folded(key_len: usize, op: &Gmdj) -> MergeSync {
        MergeSync {
            base: None,
            base_keys: Vec::new(),
            index: IdTable::with_capacity(0),
            key_len,
            blocks: op.block_aggs(),
            layout: None,
            inferred: false,
            runs: Runs::default(),
            states: None,
            present: Vec::new(),
            cap: 0,
            n_leaves: 0,
            slots: Vec::new(),
            first: Vec::new(),
        }
    }

    /// Absorb one whole keyed answer as the next leaf: the key columns
    /// first, then the physical accumulator columns. Rows already merged
    /// across the sites ([`parallel_merge_tree`]) are one leaf, whose tree
    /// is that leaf.
    pub fn absorb(&mut self, h: &Relation) -> Result<()> {
        self.slots(h.schema().fields(), self.key_len)?;
        self.absorb_keyed(self.n_leaves, h.columns().clone())
    }

    /// Absorb leaf `leaf`'s keyed answer as it lands, straight from its
    /// decoded `RESULT` frame: the key columns first, then the physical
    /// accumulator columns, one run in key order. A leaf is one answering
    /// site, numbered in site order; the tree has a leaf for every number
    /// up to the highest one absorbed, so an empty answer still counts.
    pub fn absorb_frame(&mut self, leaf: usize, answer: ResultFrame) -> Result<()> {
        answer.refuse_survivors("a keyed answer")?;
        self.slots(answer.schema().fields(), self.key_len)?;
        self.absorb_keyed(leaf, answer.into_columns())
    }

    /// Absorb leaf `leaf`'s answer by position as it lands: its physical
    /// accumulator columns, no key. Its rows are its fragment's rows in
    /// order, or its survivors'; `fragment[i]` is the B row of fragment
    /// row `i` (`None`: the fragment is B). The answer must have exactly
    /// as many rows as it answers.
    pub fn absorb_at(&mut self, leaf: usize, fragment: Option<&[u32]>, answer: ResultFrame) -> Result<()> {
        let width = self.slots(answer.schema().fields(), 0)?.width();
        if answer.schema().len() != width {
            return Err(arity_error(answer.schema().len(), 0, width));
        }
        let err = |what: String| Err(Error::Execution(format!("a positional answer {what}")));
        let rows = fragment.map_or(self.cap, <[u32]>::len);
        let survivors = match &answer.survivors {
            Some(s) if s.fragment_rows != rows => {
                return err(format!("has survivors over {} rows for a {rows}-row fragment", s.fragment_rows))
            }
            s => s.as_ref().map(|s| &s.at[..]),
        };
        let answered = survivors.map_or(rows, <[u32]>::len);
        if answer.len() != answered {
            return err(format!("has {} accumulator rows for {answered} answered fragment rows", answer.len()));
        }
        self.prepare(leaf)?;
        self.slots.clear();
        self.slots.extend((0..answered).map(|r| {
            let r = survivors.map_or(r, |at| at[r] as usize);
            fragment.map_or(r, |f| f[r] as usize)
        }));
        self.scatter(leaf, answer.columns(), 0)
    }

    /// A keyed answer of leaf `leaf`: folded, kept as its run for the pass;
    /// against B, each row's group looked up by its key (one hash and
    /// probe of B's index) and its accumulators scattered at once. The
    /// slots are laid out ([`MergeSync::slots`]).
    fn absorb_keyed(&mut self, leaf: usize, cols: Columns) -> Result<()> {
        let (kl, width) = (self.key_len, self.layout.as_ref().map_or(0, AccLayout::width));
        if cols.arity() != kl + width {
            return Err(arity_error(cols.arity(), kl, width));
        }
        if self.base.is_none() {
            self.n_leaves = self.n_leaves.max(leaf + 1);
            return self.runs.push(leaf, cols);
        }
        self.prepare(leaf)?;
        let base_keys: Vec<&Column> = self.base_keys.iter().map(Arc::as_ref).collect();
        if self.index.len() < self.cap {
            self.index = index_columns(&base_keys, self.cap)?;
        }
        self.slots.clear();
        for i in 0..cols.len() {
            let Some(g) = row_in(&base_keys, &self.index, &cols, i) else {
                let key: Vec<Value> = (0..kl).map(|c| cols.value(c, i)).collect();
                return Err(Error::Execution(format!("site reported unknown group {key:?}")));
            };
            self.slots.push(g);
        }
        self.scatter(leaf, &cols, kl)
    }

    /// The slots: the detail schema's, or else those of the first answer,
    /// whose fields from `from` on lay them out.
    fn slots(&mut self, fields: &[Field], from: usize) -> Result<&AccLayout> {
        if self.layout.is_none() {
            let fields = fields.get(from..).ok_or_else(|| arity_error(fields.len(), from, 0))?;
            self.layout = Some(AccLayout::from_physical(&self.blocks, fields)?);
            self.inferred = true;
        }
        self.layout.as_ref().ok_or_else(|| Error::Execution("no accumulator layout".into()))
    }

    /// Make the states on the first answer, and give leaf `leaf` its
    /// block.
    fn prepare(&mut self, leaf: usize) -> Result<()> {
        if self.states.is_none() {
            let layout = self.layout.as_ref().ok_or_else(|| Error::Execution("no accumulator layout".into()))?;
            self.states = Some(AccStates::new(layout, self.cap));
            // X's block: X_init for each of B's groups.
            self.present = vec![self.base.is_some(); self.cap];
        }
        if leaf >= self.n_leaves {
            self.n_leaves = leaf + 1;
            let slots = (1 + self.n_leaves) * self.cap;
            self.present.resize(slots, false);
            if let Some(states) = &mut self.states {
                states.resize(slots);
            }
        }
        Ok(())
    }

    /// Scatter the answer's accumulator columns (`cols` from column `from`
    /// on) into leaf `leaf`'s states, row `i` into the group in `slots[i]`.
    fn scatter(&mut self, leaf: usize, cols: &Columns, from: usize) -> Result<()> {
        let block = (1 + leaf) * self.cap;
        self.first.clear();
        self.first.reserve(self.slots.len());
        for s in &mut self.slots {
            *s += block;
            self.first.push(!self.present[*s]);
            self.present[*s] = true;
        }
        let states = self.states.as_mut();
        states.map_or(Ok(()), |states| states.absorb(cols, from, &self.slots, &self.first))
    }

    /// A folded unit's runs placed in X: the pass gives X's key columns,
    /// declared by `key_fields`, and each leaf's rows' groups, by which each
    /// run's accumulators scatter into its leaf's block in run order.
    fn place_runs(&mut self, key_fields: &[Field]) -> Result<(Vec<Arc<Column>>, LeafRows)> {
        let runs = std::mem::take(&mut self.runs);
        let kl = self.key_len;
        let (picks, rows) = runs.pass(&(0..kl).collect::<Vec<_>>(), |_, _| Ok(()))?;
        let keys = runs.gather(key_fields, &picks)?;
        self.cap = picks.len();
        if let (false, Some(layout)) = (runs.is_empty(), &self.layout) {
            let slots = (1 + self.n_leaves) * self.cap;
            self.states = Some(AccStates::new(layout, slots));
            self.present = vec![false; slots];
        }
        for (leaf, cols) in runs.runs.iter().enumerate().filter(|(_, r)| !r.is_empty()) {
            self.slots.clear();
            self.slots.extend(rows.leaf(leaf).iter().map(|&g| g as usize));
            self.scatter(leaf, cols, kl)?;
        }
        Ok((keys, rows))
    }

    /// Merge the leaves as the tree, level by level over whole leaves, and
    /// the root into X: block 0 holds the answer for every group present
    /// there.
    fn merge_tree(&mut self) {
        let (n, cap) = (self.n_leaves, self.cap);
        let Some(states) = &mut self.states else { return };
        let mut step = |dst: usize, src: usize| {
            let (head, tail) = self.present.split_at_mut(src);
            let (dp, sp) = (&mut head[dst..dst + cap], &tail[..cap]);
            states.combine(dst, src, cap, dp, sp);
            dp.iter_mut().zip(sp).for_each(|(d, s)| *d |= *s);
        };
        let mut stride = 1;
        while stride < n {
            for left in (0..n - stride).step_by(2 * stride) {
                step((1 + left) * cap, (1 + left + stride) * cap);
            }
            stride *= 2;
        }
        if n > 0 {
            step(0, cap);
        }
    }

    /// Finalize X into B_next with the logical output schema, as columns:
    /// B's, shared, or a folded unit's keys in key order; then each
    /// aggregate finalized column-wise ([`AccStates::finalize_columns`]).
    pub fn finish(self, b_in_schema: &Schema, op: &Gmdj, detail: &Schema) -> Result<Relation> {
        self.finish_held(b_in_schema, op, detail).map(|(b, _)| b)
    }

    /// [`MergeSync::finish`], and the rows of B_next that each leaf's keyed
    /// answer held, in its order: after a folded unit, each site's own
    /// groups, which a later unit can leave at the site
    /// ([`crate::plan::SiteFilter::Resident`]). None against B.
    pub fn finish_held(mut self, b_in_schema: &Schema, op: &Gmdj, detail: &Schema) -> Result<(Relation, LeafRows)> {
        let out_schema = op.output_schema(b_in_schema, detail)?;
        let (mut cols, held) = match &self.base {
            Some(b) => ((0..b.schema().len()).map(|c| b.shared_column(c)).collect(), LeafRows::default()),
            None => self.place_runs(&out_schema.fields()[..self.key_len])?,
        };
        self.merge_tree();
        let groups = self.cap;
        // The detail schema's slots: those an answer's schema laid out
        // must merge as they do, or no answer of the unit's.
        let layout = match self.layout.take() {
            Some(layout) if !self.inferred => layout,
            inferred => {
                let layout = op.layout(detail)?;
                if inferred.is_some_and(|l| !l.merges_as(&layout)) {
                    return Err(Error::SchemaMismatch(format!("answers whose accumulators are not {op}'s over {detail}")));
                }
                layout
            }
        };
        // No answer arrived: every group is X_init.
        let states = match self.states.take() {
            Some(states) => states,
            None => {
                self.present = vec![false; groups];
                AccStates::new(&layout, groups)
            }
        };
        let order: Vec<u32> = (0..groups as u32).collect();
        cols.extend(states.finalize_columns(&order, &self.present));
        let b_next = Relation::from_columns(out_schema, Columns::from_shared(groups, cols))?;
        Ok((b_next, held))
    }
}

fn arity_error(arity: usize, key_len: usize, width: usize) -> Error {
    Error::Execution(format!("sub-result arity {arity} != key {key_len} + accumulators {width}"))
}

/// Synchronizer for a locally-chained unit: assembles disjoint finalized
/// results, column-wise, from the sites' answers as they arrived.
/// [`ChainSync::finish_against`] places each answer row at its group's row
/// of B; [`ChainSync::finish_folded`] takes the rows by the pass over the
/// sites' runs. Either refuses a key two rows share — the partition
/// assumption violated — and allocates per column, never per group.
#[derive(Debug)]
pub struct ChainSync {
    key_len: usize,
    runs: Runs,
}

impl ChainSync {
    /// A synchronizer expecting `key_len` leading key columns.
    pub fn new(key_len: usize) -> ChainSync {
        ChainSync { key_len, runs: Runs::default() }
    }

    /// Absorb one site's finalized result (key columns + logical
    /// aggregates) as the next leaf.
    pub fn absorb(&mut self, h: &Relation) -> Result<()> {
        self.absorb_run(self.runs.leaves(), h)
    }

    /// Absorb site `leaf`'s finalized result: folded, one run in key
    /// order. Its arity is checked at finish, against the schema.
    pub fn absorb_run(&mut self, leaf: usize, h: &Relation) -> Result<()> {
        self.runs.push(leaf, h.columns().clone())
    }

    /// Refuse answers of another arity than `arity`.
    fn check_arity(&self, arity: usize) -> Result<()> {
        match self.runs.types.len() {
            a if a == arity || self.runs.is_empty() => Ok(()),
            a => Err(Error::SchemaMismatch(format!("chained answer of arity {a} where {arity} is declared"))),
        }
    }

    /// The error for a key two answer rows share.
    fn twice(key: Vec<Value>) -> Error {
        Error::Execution(format!("two sites reported group {key:?}: partition attribute assumption violated"))
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
        // Per group of B: the row that answers it, or the empty row. Rows
        // are numbered in leaf order, across answers.
        let rows = self.runs.runs.iter().map(|c| c.len() as u32).sum();
        let mut from = vec![rows; b_cur.len()];
        let (mut unknown, mut start) = (0usize, 0u32);
        for cols in &self.runs.runs {
            for i in 0..cols.len() {
                match row_in(&b_keys, &b_index, cols, i) {
                    Some(g) if from[g] != rows => return Err(ChainSync::twice((0..self.key_len).map(|c| cols.value(c, i)).collect())),
                    Some(g) => from[g] = start + i as u32,
                    None => unknown += 1,
                }
            }
            start += cols.len() as u32;
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
            let tail = tail.finish();
            let mut parts = self.runs.parts(self.key_len + j, declared)?;
            parts.push(&tail);
            cols.push(Arc::new(Column::concat(declared, &parts).gather(&from)));
        }
        Relation::from_columns(out_schema, Columns::from_shared(b_cur.len(), cols))
    }

    /// Assemble B_next for a folded unit: the collected rows *are* the
    /// result, taken in key order by one pass over the sites' runs.
    pub fn finish_folded(self, out_schema: Schema) -> Result<Relation> {
        self.check_arity(out_schema.len())?;
        let runs = &self.runs;
        let key: Vec<usize> = (0..self.key_len.min(out_schema.len())).collect();
        let (picks, _) = runs.pass(&key, |at, _| Err(ChainSync::twice(runs.key_of(at, &key))))?;
        let cols = runs.gather(out_schema.fields(), &picks)?;
        Relation::from_columns(out_schema, Columns::from_shared(picks.len(), cols))
    }
}

/// Merge the sites' answers (key columns + physical accumulators) into one
/// still-physical relation without X: each answer is one leaf of
/// [`MergeSync`]'s tree, in order, and the output lists each key once, in
/// key order, with its tree's root. Absorbing that into X
/// ([`MergeSync::absorb`]) gives the bits that absorbing the answers
/// as they land ([`MergeSync::absorb_frame`]) gives. An answer
/// against a literal B, in B's order, is put in key order first.
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
    let mut tree = MergeSync::folded(key_len, op);
    if let Some(first) = answers.first() {
        let w = tree.slots(first.schema().fields(), key_len)?.width();
        if let Some(h) = answers.iter().find(|h| h.schema().len() != key_len + w) {
            return Err(arity_error(h.schema().len(), key_len, w));
        }
    }
    if answers.len() < 2 {
        return Ok(answers.pop());
    }
    for h in &answers {
        let names = h.schema().column_names();
        let (cols, key) = (h.columns(), &names[..key_len]);
        let sorted = (1..h.len()).all(|i| (0..key_len).map(|c| cols.col(c).cmp_rows(i - 1, i)).find(|o| o.is_ne()) != Some(Ordering::Greater));
        tree.absorb(&if sorted { h.clone() } else { h.sorted_by(key)? })?;
    }
    let schema = answers[0].schema();
    let (mut cols, _) = tree.place_runs(&schema.fields()[..key_len])?;
    tree.merge_tree();
    let groups = tree.cap;
    #[expect(clippy::expect_used, reason = "two answers placed make the states")]
    let states = tree.states.as_ref().expect("two answers absorbed");
    let at: Vec<u32> = (0..groups as u32).collect();
    cols.extend(states.physical_columns(&at));
    Relation::from_columns(schema.clone(), Columns::from_shared(groups, cols)).map(Some)
}

/// The finalize-of-nothing aggregate values for a run of operators: what a
/// group's outputs are when no detail tuple anywhere matches it — a COUNT
/// of 0, and NULL for every other aggregate, as X_init finalizes.
pub fn empty_aggregates(ops: &[Gmdj]) -> Result<Vec<Value>> {
    let empty = |a: &AggSpec| match a.func {
        AggFunc::Count => Value::Int(0),
        _ => Value::Null,
    };
    Ok(ops.iter().flat_map(Gmdj::all_aggs).map(empty).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_result_frame, result};
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
    fn frame(h: &Relation) -> ResultFrame {
        decode_result_frame(&result(1, h).payload).unwrap()
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

        // Arrival order does not show: two sites' sorted fragments, in
        // either order, give the same B₀, in key order.
        let frag = |keys: &[i64]| {
            let rows = keys.iter().map(|&g| row![g]).collect();
            Relation::new(Schema::of(&[("g", DataType::Int)]), rows).unwrap()
        };
        let finish = |answers: &[(usize, &[i64])]| {
            let mut s = BaseSync::new();
            answers.iter().for_each(|&(site, keys)| s.absorb_run(site, frag(keys)).unwrap());
            s.finish(&key())
        };
        let b = finish(&[(0, &[1, 3]), (1, &[1, 2])]).unwrap();
        assert_eq!(b, finish(&[(1, &[1, 2]), (0, &[1, 3])]).unwrap());
        assert_eq!(b.rows(), [row![1i64], row![2i64], row![3i64]]);
        // A fragment out of key order is refused, naming its site; so is a
        // second fragment from one site.
        let err = finish(&[(0, &[1, 3]), (1, &[3, 2])]).unwrap_err().to_string();
        assert!(err.contains("site 1 sent its keyed answer out of key order: [Int(2)] after [Int(3)]"), "{err}");
        let mut s = BaseSync::new();
        s.absorb_run(1, frag(&[1])).unwrap();
        let err = s.absorb_run(1, frag(&[2])).unwrap_err().to_string();
        assert!(err.contains("site 1 answered twice"), "{err}");
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
        // The same two errors for an answer as it lands.
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

    /// A key two sites report is the partition assumption violated,
    /// folded or against B; so is a folded site's run out of key order.
    #[test]
    fn chain_sync_rejects_duplicate_groups() {
        let schema = Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]);
        let answer = |keys: &[i64]| Relation::new(schema.clone(), keys.iter().map(|&g| row![g, 5i64]).collect()).unwrap();
        let twice = |a: &[i64], b: &[i64]| {
            let mut sync = ChainSync::new(1);
            sync.absorb(&answer(a)).unwrap();
            sync.absorb(&answer(b)).unwrap();
            sync
        };
        for (a, b) in [(&[1i64][..], &[1i64][..]), (&[1, 2], &[2]), (&[2, 2], &[])] {
            let err = twice(a, b).finish_folded(schema.clone()).unwrap_err().to_string();
            assert!(err.contains("two sites reported group [Int("), "{err}");
        }
        let err = twice(&[1], &[1]).finish_against(&b0(), &key(), &[Value::Int(0)], schema.clone()).unwrap_err();
        assert!(err.to_string().contains("two sites reported group [Int(1)]"), "{err}");
        let err = twice(&[1], &[3, 2]).finish_folded(schema.clone()).unwrap_err().to_string();
        assert!(err.contains("site 1 sent its keyed answer out of key order: [Int(2)] after [Int(3)]"), "{err}");
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
        let answers: Vec<Relation> = (0..7)
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
        let layout = op().layout(&detail_schema()).unwrap();
        let mut fold = vec![oracle::init_all(&layout), oracle::init_all(&layout)];
        for c in &answers {
            for (x, row) in fold.iter_mut().zip(c.rows()) {
                oracle::merge_all(&layout, x, &row.values()[1..]).unwrap();
            }
        }
        let fold_out: Vec<Row> = (1..=2)
            .zip(&fold)
            .map(|(g, x)| Row::new([vec![Value::Int(g)], oracle::finalize_all(&layout, x).unwrap()].concat()))
            .collect();

        let b = b0();
        let merged = parallel_merge_tree(answers, 1, &op(), 4).unwrap().unwrap();
        assert_eq!(merged.len(), 2, "groups merged in the tree");
        let mut sync = MergeSync::new(Some(&b), &key(), &op()).unwrap();
        sync.absorb(&merged).unwrap();
        let tree_out = sync.finish(b.schema(), &op(), &detail_schema()).unwrap();
        assert_eq!(tree_out.rows(), fold_out);
    }

    /// VAR and STDDEV of an `Int` input that no SUM, AVG, MIN or MAX
    /// types: an answer's schema lays out a `Double` SUM where the detail
    /// schema lays out a `SUM(v as f64)`, which keeps the same state, so
    /// the answers merge and finish from their own schema — folded,
    /// against B and through the merge tree — as from the detail schema.
    #[test]
    fn var_of_an_int_alone_merges_from_an_answer_s_schema() {
        let aggs = vec![AggSpec::var("v", "var"), AggSpec::stddev("v", "sd")];
        let op = Gmdj::new("t").block(ThetaBuilder::group_by(&["g"]).build(), aggs);
        let schema = Schema::of(&[
            ("g", DataType::Int),
            ("var__sum", DataType::Double),
            ("var__sumsq", DataType::Double),
            ("var__cnt", DataType::Int),
        ]);
        // Group 1 sees {2, 4} over two sites, group 2 sees {3}.
        let answers = [
            Relation::new(schema.clone(), vec![row![1i64, 2.0, 4.0, 1i64], row![2i64, 3.0, 9.0, 1i64]]).unwrap(),
            Relation::new(schema, vec![row![1i64, 4.0, 16.0, 1i64]]).unwrap(),
        ];
        let want = vec![row![1i64, 1.0, 1.0], row![2i64, 0.0, 0.0]];
        let (b, d) = (b0(), detail_schema());
        let finish = |mut sync: MergeSync, answers: &[Relation]| {
            answers.iter().for_each(|h| sync.absorb(h).unwrap());
            sync.finish(b.schema(), &op, &d).unwrap().rows().to_vec()
        };
        let layout = || op.layout(&d).unwrap();
        assert_eq!(finish(MergeSync::over(None, &key(), &op, layout()).unwrap(), &answers), want);
        assert_eq!(finish(MergeSync::new(None, &key(), &op).unwrap(), &answers), want);
        assert_eq!(finish(MergeSync::new(Some(&b), &key(), &op).unwrap(), &answers), want);
        let tree = parallel_merge_tree(answers.to_vec(), 1, &op, 2).unwrap().unwrap();
        assert_eq!(finish(MergeSync::new(Some(&b), &key(), &op).unwrap(), &[tree]), want);
        // An answer typed as no detail schema lays it out is still refused.
        let ints = Schema::of(&[
            ("g", DataType::Int),
            ("var__sum", DataType::Int),
            ("var__sumsq", DataType::Double),
            ("var__cnt", DataType::Int),
        ]);
        let h = Relation::new(ints, vec![row![1i64, 2i64, 4.0, 1i64]]).unwrap();
        assert!(MergeSync::new(None, &key(), &op).unwrap().absorb(&h).is_err());
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
    /// rows fold in run order before the tree merges them with the other
    /// sites', whichever site's answer lands first. Near 1e16 doubles are
    /// 2 apart, so a lone `+ 1.0` rounds away and the order shows.
    #[test]
    fn a_folded_site_repeating_a_key_merges_in_run_order() {
        let op = Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![AggSpec::sum("d", "s")],
        );
        let schema = Schema::of(&[("g", DataType::Int), ("s", DataType::Double)]);
        let detail = Schema::of(&[("g", DataType::Int), ("d", DataType::Double)]);
        // Answers as they land: (site's leaf, its rows' sums).
        let merged = |arrivals: &[(usize, &[f64])]| {
            let mut sync = MergeSync::new(None, &key(), &op).unwrap();
            for &(leaf, sums) in arrivals {
                let answer = Relation::new(schema.clone(), sums.iter().map(|&d| row![7i64, d]).collect()).unwrap();
                sync.absorb_frame(leaf, frame(&answer)).unwrap();
            }
            let out = sync.finish(&Schema::of(&[("g", DataType::Int)]), &op, &detail).unwrap();
            assert_eq!(out.len(), 1);
            out.rows()[0].get(1).clone()
        };
        assert_eq!(merged(&[(0, &[1e16, 1.0, 1.0])]), Value::Double(1e16));
        assert_eq!(merged(&[(0, &[1.0, 1.0, 1e16])]), Value::Double(1e16 + 2.0));
        // Site 1's rows meet each other first, then site 0's.
        assert_eq!(merged(&[(0, &[1e16]), (1, &[1.0, 1.0])]), Value::Double(1e16 + 2.0));
        assert_eq!(merged(&[(1, &[1.0, 1.0]), (0, &[1e16])]), Value::Double(1e16 + 2.0));
        assert_eq!(merged(&[(0, &[1e16, 1.0]), (1, &[1.0])]), Value::Double(1e16));
    }

    /// A folded site's run out of key order fails the merge naming the
    /// site (leaf 1 stands for site 5 here), whichever answer lands first,
    /// never a wrong answer; the same rows in key order merge.
    #[test]
    fn a_shuffled_folded_run_is_refused() {
        let h = |keys: &[i64]| Relation::new(h_schema(), keys.iter().map(|&g| row![g, 1i64, 10i64, 1i64]).collect()).unwrap();
        let merge = |answers: &[(usize, &[i64])]| {
            let mut sync = MergeSync::new(None, &key(), &op()).unwrap();
            sync.runs.sites = vec![0, 5];
            for &(leaf, keys) in answers {
                sync.absorb_frame(leaf, frame(&h(keys))).unwrap();
            }
            sync.finish(b0().schema(), &op(), &detail_schema())
        };
        for answers in [&[(0, &[1i64, 2][..]), (1, &[3, 2])][..], &[(1, &[3, 2]), (0, &[1, 2])]] {
            let err = merge(answers).unwrap_err().to_string();
            assert!(err.contains("site 5 sent its keyed answer out of key order: [Int(2)] after [Int(3)]"), "{err}");
        }
        let out = merge(&[(1, &[2, 3]), (0, &[1, 2])]).unwrap();
        assert_eq!(out.rows(), [row![1i64, 1i64, 10.0], row![2i64, 2i64, 10.0], row![3i64, 1i64, 10.0]]);
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
        h_fields.extend(op.layout(&detail).unwrap().fields());
        (op, detail, Schema::new(h_fields).unwrap())
    }

    /// One generated merge: per site, per key, the site's accumulators if
    /// it has the key; each site's answer; B over every key in a shuffled
    /// order, under a tag column.
    struct MergeCase {
        n_sites: usize,
        n_keys: usize,
        folded: bool,
        accs: Vec<Vec<Option<Vec<Value>>>>,
        answers: Vec<Relation>,
        b: Relation,
        b_keys: Vec<usize>,
    }

    /// Case `case` of the spec tests' generator: 1–7 sites, keys missing
    /// per site, empty answers; key `k` is `key(k)`
    /// (distinct keys must be distinct values, of `h_schema`'s key type).
    /// The Double SUM runs over ±0.0 and two NaN payloads, and, shared
    /// with AVG and VAR, is present exactly where their count is positive,
    /// as a site's is.
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
                            let d_cnt = rng.gen_range(0..4i64);
                            let d_sum = if d_cnt > 0 { dbl(rng) } else { Value::Null };
                            vec![
                                Value::Int(rng.gen_range(0..4i64)),
                                Value::Int(i64::MAX - rng.gen_range(0..3i64)),
                                d_sum,
                                Value::Null,
                                Value::Int(d_cnt),
                                dbl(rng),
                                cases::pick(rng, &strings),
                                cases::pick(rng, &strings),
                            ]
                        })
                    })
                    .collect()
            })
            .collect();
        // Each site answers its keys in a shuffled order — folded, sorted
        // by key, as a site must.
        let answers = accs
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
                if folded {
                    rows.sort_by(|a, b| a.get(0).cmp(b.get(0)));
                }
                Relation::new(h_schema.clone(), rows).unwrap()
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
            answers,
            b,
            b_keys,
        }
    }

    /// The engine's way into X: every site's answer encoded into a
    /// `RESULT` frame and absorbed as it lands, the sites in a random
    /// order.
    fn absorb_in_any_order(c: &MergeCase, op: &Gmdj, rng: &mut StdRng) -> MergeSync {
        let mut engine = MergeSync::new((!c.folded).then_some(&c.b), &key(), op).unwrap();
        let mut order: Vec<usize> = (0..c.n_sites).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        for site in order {
            engine.absorb_frame(site, frame(&c.answers[site])).unwrap();
        }
        engine
    }

    /// Both ways into X — the engine's (each answer encoded into a `RESULT`
    /// frame and absorbed as it lands, `absorb_frame`, sites in any order)
    /// and the layer walk's (`parallel_merge_tree` → `absorb`) — give,
    /// bit for bit, `X_init ⊕ tree` finalized (the tree alone when
    /// folded), over [`merge_case`]'s cases.
    #[test]
    fn merge_bits_match_the_pairwise_tree_reference() {
        let (op, detail, h_schema) = spec_op();
        let layout = op.layout(&detail).unwrap();
        let key_schema = Schema::of(&[("g", DataType::Int)]);
        let mut case = 0;
        for_cases("merge_bits_match_the_pairwise_tree_reference", 400, |rng| {
            let c = merge_case(rng, case, &h_schema, |k| Value::Int(k as i64));
            let (n_sites, folded) = (c.n_sites, c.folded);
            let engine = absorb_in_any_order(&c, &op, rng);
            // The layer walk's way: whole answers through the tree, then X.
            let mut walk = MergeSync::new((!folded).then_some(&c.b), &key(), &op).unwrap();
            if let Some(m) = parallel_merge_tree(c.answers.clone(), 1, &op, 2).unwrap() {
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

    /// [`MergeSync::finish`] as a row loop, sharing none of the pass's
    /// code: against B, a row per group of B, in B's order, from the
    /// states' accumulator values (the values of
    /// [`AccStates::physical_columns`], X_init where no state holds the
    /// group); folded, a row per key of the absorbed runs in the keys'
    /// `Value` order, spelled as the lowest leaf first spells it, each
    /// leaf's rows folded in run order ([`oracle::merge_all`]) and the
    /// leaves reduced by the pairwise tree ([`reference_tree`]); then
    /// through the reference's [`oracle::finalize_all`].
    fn finish_by_rows(mut x: MergeSync, b_in_schema: &Schema, op: &Gmdj, detail: &Schema) -> Relation {
        let out_schema = op.output_schema(b_in_schema, detail).unwrap();
        let layout = op.layout(detail).unwrap();
        let mut rows = Vec::new();
        if x.base.is_none() {
            let (kl, n) = (x.key_len, x.runs.leaves());
            let mut groups: std::collections::BTreeMap<Vec<Value>, Vec<Option<Vec<Value>>>> = Default::default();
            for leaf in 0..n {
                for r in x.runs.runs[leaf].to_rows() {
                    let (k, acc) = r.values().split_at(kl);
                    let leaves = groups.entry(k.to_vec()).or_insert_with(|| vec![None; n]);
                    match &mut leaves[leaf] {
                        Some(x) => oracle::merge_all(&layout, x, acc).unwrap(),
                        none => *none = Some(acc.to_vec()),
                    }
                }
            }
            for (k, leaves) in groups {
                let tree = reference_tree(&layout, &leaves).unwrap();
                rows.push(Row::new([k, oracle::finalize_all(&layout, &tree).unwrap()].concat()));
            }
            return Relation::new(out_schema, rows).unwrap();
        }
        x.merge_tree();
        let mut acc = Vec::new();
        for g in 0..x.cap {
            let mut vs = x.base.as_ref().unwrap().rows()[g].values().to_vec();
            acc.clear();
            match &x.states {
                Some(states) if x.present[g] => {
                    acc.extend(states.physical_columns(&[g as u32]).iter().map(|c| c.value(0)))
                }
                _ => acc.extend(oracle::init_all(&layout)),
            }
            vs.extend(oracle::finalize_all(&layout, &acc).unwrap());
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
            let cols = absorb_in_any_order(&c, &op, &mut rng.clone());
            let rows = absorb_in_any_order(&c, &op, rng);
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
