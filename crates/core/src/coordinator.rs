//! Coordinator-side synchronization.
//!
//! The coordinator maintains the base-result structure X, indexed on the
//! key attributes K, and consolidates each site's sub-results into it as
//! they arrive — O(|H|) per incoming relation (paper Sect. 3.2). Three
//! synchronizers cover the three stage shapes:
//!
//! * [`BaseSync`] — union + duplicate elimination of base fragments;
//! * [`MergeSync`] — super-aggregate merging of physical accumulators
//!   (Theorem 1), with insert-on-first-sight for folded units (Prop 2);
//! * [`ChainSync`] — disjoint assembly of locally-finalized results from
//!   synchronization-reduced units (Thm 5 / Cor 1), which *verifies* the
//!   partition assumption by rejecting duplicate keys.
//!
//! The stage loop that drives them over a transport (Alg.
//! GMDJDistribEval) is the crate-private `run` sub-module.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

mod run;

pub(crate) use run::{finished_rounds, net_err, run_coordinator};

use skalla_gmdj::agg::AccLayout;
use skalla_gmdj::operator::Gmdj;
use skalla_relation::{Error, Relation, Result, Row, Schema, Value};
use std::collections::HashMap;

/// Check that `key` column values are unique in `rel`; returns the key
/// column indexes.
pub fn verify_unique_key(rel: &Relation, key: &[String]) -> Result<Vec<usize>> {
    let idx = rel
        .schema()
        .indexes_of(&key.iter().map(String::as_str).collect::<Vec<_>>())?;
    let mut seen: HashMap<Vec<Value>, ()> = HashMap::with_capacity(rel.len());
    for row in rel {
        if seen.insert(row.key(&idx), ()).is_some() {
            return Err(Error::Execution(format!(
                "base-values relation has duplicate key {:?}",
                row.key(&idx)
            )));
        }
    }
    Ok(idx)
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
#[derive(Debug)]
pub struct MergeSync {
    /// Full current-B rows (or key rows when folded) with accumulator
    /// columns appended.
    rows: Vec<Row>,
    index: HashMap<Vec<Value>, usize>,
    key_idx: Vec<usize>,
    base_arity: usize,
    layout: AccLayout,
    fold: bool,
}

impl MergeSync {
    /// Build X from the current base structure (`None` for folded units,
    /// where X grows from the incoming sub-results).
    pub fn new(b_cur: Option<&Relation>, key: &[String], op: &Gmdj) -> Result<MergeSync> {
        let layout = op.layout();
        match b_cur {
            Some(b) => {
                let key_idx = verify_unique_key(b, key)?;
                let init = layout.init();
                let mut index = HashMap::with_capacity(b.len());
                let mut rows = Vec::with_capacity(b.len());
                for (i, row) in b.iter().enumerate() {
                    index.insert(row.key(&key_idx), i);
                    rows.push(row.extend(&init));
                }
                Ok(MergeSync {
                    rows,
                    index,
                    key_idx,
                    base_arity: b.schema().len(),
                    layout,
                    fold: false,
                })
            }
            None => Ok(MergeSync {
                rows: Vec::new(),
                index: HashMap::new(),
                key_idx: (0..key.len()).collect(),
                base_arity: key.len(),
                layout,
                fold: true,
            }),
        }
    }

    /// Absorb one site's sub-result. `h` has the key columns first, then
    /// the physical accumulator columns.
    pub fn absorb(&mut self, h: &Relation) -> Result<()> {
        let key_len = self.key_idx.len();
        let width = self.layout.width();
        if h.schema().len() != key_len + width {
            return Err(Error::Execution(format!(
                "sub-result arity {} != key {} + accumulators {}",
                h.schema().len(),
                key_len,
                width
            )));
        }
        for row in h {
            let key: Vec<Value> = row.values()[..key_len].to_vec();
            match self.index.get(&key) {
                Some(&pos) => {
                    let dst = &mut self.rows[pos];
                    let mut vals = dst.values().to_vec();
                    self.layout
                        .merge(&mut vals[self.base_arity..], &row.values()[key_len..])?;
                    *dst = Row::new(vals);
                }
                None if self.fold => {
                    // Prop 2: first sighting of this group — its base part
                    // is exactly its key.
                    self.index.insert(key, self.rows.len());
                    self.rows.push(row.clone());
                }
                None => {
                    return Err(Error::Execution(format!(
                        "site reported unknown group {key:?}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Finalize X into B_next with the logical output schema.
    pub fn finish(self, b_in_schema: &Schema, op: &Gmdj, detail: &Schema) -> Result<Relation> {
        let out_schema = op.output_schema(b_in_schema, detail)?;
        let mut rows = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let (base_part, acc_part) = row.values().split_at(self.base_arity);
            let logical = self.layout.finalize(acc_part)?;
            let mut vs = Vec::with_capacity(base_part.len() + logical.len());
            vs.extend_from_slice(base_part);
            vs.extend(logical);
            rows.push(Row::new(vs));
        }
        let rel = Relation::new(out_schema, rows)?;
        if !self.fold {
            return Ok(rel);
        }
        // Insertion order is site-arrival order; sort for determinism.
        let key_cols: Vec<&str> = (0..self.key_idx.len())
            .map(|i| rel.schema().field(i).name())
            .collect();
        rel.sorted_by(&key_cols)
    }
}

/// Synchronizer for a locally-chained unit: assembles disjoint finalized
/// results.
#[derive(Debug)]
pub struct ChainSync {
    /// key → logical aggregate values for the unit's operators.
    map: HashMap<Vec<Value>, Vec<Value>>,
    key_len: usize,
}

impl ChainSync {
    /// A synchronizer expecting `key_len` leading key columns.
    pub fn new(key_len: usize) -> ChainSync {
        ChainSync {
            map: HashMap::new(),
            key_len,
        }
    }

    /// Absorb one site's finalized result (key columns + logical
    /// aggregates). Duplicate keys mean the partition-attribute assumption
    /// was violated — an execution error, not silent wrong answers.
    pub fn absorb(&mut self, h: &Relation) -> Result<()> {
        for row in h {
            let (k, aggs) = row.values().split_at(self.key_len);
            if self.map.insert(k.to_vec(), aggs.to_vec()).is_some() {
                return Err(Error::Execution(format!(
                    "two sites reported group {k:?}: partition attribute assumption violated"
                )));
            }
        }
        Ok(())
    }

    /// Assemble B_next against the coordinator's current B (non-folded):
    /// every group of `b_cur` gets its site-computed aggregates, or
    /// `empty_aggs` when no site owned it.
    pub fn finish_against(
        mut self,
        b_cur: &Relation,
        key: &[String],
        empty_aggs: &[Value],
        out_schema: Schema,
    ) -> Result<Relation> {
        let key_idx = verify_unique_key(b_cur, key)?;
        let mut rows = Vec::with_capacity(b_cur.len());
        for row in b_cur {
            let k = row.key(&key_idx);
            let aggs = self.map.remove(&k).unwrap_or_else(|| empty_aggs.to_vec());
            rows.push(row.extend(&aggs));
        }
        if !self.map.is_empty() {
            return Err(Error::Execution(format!(
                "sites reported {} group(s) not in the base structure",
                self.map.len()
            )));
        }
        Relation::new(out_schema, rows)
    }

    /// Assemble B_next for a folded unit: the collected rows *are* the
    /// result, sorted by key — keys are unique, so the map's hash order
    /// never shows.
    pub fn finish_folded(self, out_schema: Schema) -> Result<Relation> {
        let key_len = self.key_len;
        let mut rows: Vec<Row> = self
            .map
            .into_iter()
            .map(|(mut vs, aggs)| {
                vs.extend(aggs);
                Row::new(vs)
            })
            .collect();
        rows.sort_by(|a, b| a.values()[..key_len].cmp(&b.values()[..key_len]));
        Relation::new(out_schema, rows)
    }
}

/// A *partial* merger of physical sub-aggregates that does **not**
/// finalize: it combines sub-results into one still-mergeable relation
/// (Theorem 1 applied recursively — merge is associative, so any
/// intermediate grouping of the partition is valid).
#[derive(Debug)]
pub(crate) struct PartialMerge {
    /// Merged rows (key columns + accumulators) in first-arrival order.
    rows: Vec<Vec<Value>>,
    /// key → index into `rows`.
    index: HashMap<Vec<Value>, usize>,
    key_len: usize,
    layout: AccLayout,
}

impl PartialMerge {
    /// A partial merger for sub-results of `op` keyed on `key_len` leading
    /// columns.
    pub(crate) fn new(key_len: usize, op: &Gmdj) -> PartialMerge {
        PartialMerge {
            rows: Vec::new(),
            index: HashMap::new(),
            key_len,
            layout: op.layout(),
        }
    }

    /// Merge one sub-result (key columns + physical accumulators).
    pub(crate) fn absorb(&mut self, h: &Relation) -> Result<()> {
        let width = self.layout.width();
        if h.schema().len() != self.key_len + width {
            return Err(Error::Execution(format!(
                "partial merge arity {} != key {} + accumulators {width}",
                h.schema().len(),
                self.key_len
            )));
        }
        for row in h {
            let (k, accs) = row.values().split_at(self.key_len);
            match self.index.get(k) {
                Some(&i) => self.layout.merge(&mut self.rows[i][self.key_len..], accs)?,
                None => {
                    self.index.insert(k.to_vec(), self.rows.len());
                    self.rows.push(row.values().to_vec());
                }
            }
        }
        Ok(())
    }

    /// The merged (still physical) relation, in first-arrival key order.
    pub(crate) fn into_relation(self, schema: skalla_relation::SchemaRef) -> Relation {
        Relation::from_shared(schema, self.rows.into_iter().map(Row::new).collect())
    }
}

/// Combine one pair (or a lone leftover) of sub-result chunks with a
/// [`PartialMerge`].
fn merge_pair(pair: &[Relation], key_len: usize, op: &Gmdj) -> Result<Relation> {
    if pair.len() == 1 {
        return Ok(pair[0].clone());
    }
    let mut pm = PartialMerge::new(key_len, op);
    pm.absorb(&pair[0])?;
    pm.absorb(&pair[1])?;
    Ok(pm.into_relation(pair[0].schema_ref()))
}

/// Merge sub-result chunks as a binary tree of partial (non-finalizing)
/// merges instead of a left fold, pairing adjacent chunks level by level
/// until one remains.
///
/// Levels with several pairs run them on scoped worker threads (up to
/// `parallelism`). The tree *shape* depends only on `chunks.len()`, and
/// within every merge accumulators merge in fixed (left, right)
/// order — so the result is deterministic regardless of thread count, and
/// equal to the left fold by merge associativity (Theorem 1, proven by
/// `partial_merge_is_associative_with_merge_sync`).
///
/// Returns `None` when `chunks` is empty.
pub fn parallel_merge_tree(
    mut chunks: Vec<Relation>,
    key_len: usize,
    op: &Gmdj,
    parallelism: usize,
) -> Result<Option<Relation>> {
    while chunks.len() > 1 {
        let pairs: Vec<&[Relation]> = chunks.chunks(2).collect();
        let merged: Vec<Result<Relation>> = if parallelism > 1 && pairs.len() > 1 {
            let workers = parallelism.min(pairs.len());
            let next = std::sync::atomic::AtomicUsize::new(0);
            let mut out: Vec<Option<Result<Relation>>> =
                (0..pairs.len()).map(|_| None).collect();
            std::thread::scope(|s| -> Result<()> {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let pairs = &pairs;
                        let next = &next;
                        s.spawn(move || {
                            let mut done = Vec::new();
                            loop {
                                let i = next
                                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                if i >= pairs.len() {
                                    break;
                                }
                                done.push((i, merge_pair(pairs[i], key_len, op)));
                            }
                            done
                        })
                    })
                    .collect();
                for h in handles {
                    let done = h
                        .join()
                        .map_err(|_| Error::Execution("a merge worker panicked".into()))?;
                    for (i, r) in done {
                        out[i] = Some(r);
                    }
                }
                Ok(())
            })?;
            let unmerged = || Err(Error::Execution("a chunk pair was never merged".into()));
            out.into_iter().map(|r| r.unwrap_or_else(unmerged)).collect()
        } else {
            pairs
                .iter()
                .map(|p| merge_pair(p, key_len, op))
                .collect()
        };
        chunks = merged.into_iter().collect::<Result<Vec<_>>>()?;
    }
    Ok(chunks.pop())
}

/// The finalize-of-nothing aggregate values for a run of operators: what a
/// group's outputs are when no detail tuple anywhere matches it.
pub fn empty_aggregates(ops: &[Gmdj]) -> Result<Vec<Value>> {
    let mut out = Vec::new();
    for op in ops {
        let layout = op.layout();
        out.extend(layout.finalize(&layout.init())?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_gmdj::agg::AggSpec;
    use skalla_gmdj::theta::ThetaBuilder;
    use skalla_relation::{row, DataType};

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
        let mut sync = MergeSync::new(Some(&b0()), &key(), &op()).unwrap();
        // h schema: g, cnt, avg__sum, avg__cnt.
        let h_schema = Schema::of(&[
            ("g", DataType::Int),
            ("cnt", DataType::Int),
            ("avg__sum", DataType::Int),
            ("avg__cnt", DataType::Int),
        ]);
        let h1 = Relation::new(
            h_schema.clone(),
            vec![row![1i64, 2i64, 30i64, 2i64], row![2i64, 1i64, 8i64, 1i64]],
        )
        .unwrap();
        let h2 = Relation::new(
            h_schema,
            vec![row![1i64, 1i64, 30i64, 1i64]],
        )
        .unwrap();
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
        let mut sync = MergeSync::new(Some(&b0()), &key(), &op()).unwrap();
        let h = Relation::new(
            Schema::of(&[
                ("g", DataType::Int),
                ("cnt", DataType::Int),
                ("avg__sum", DataType::Int),
                ("avg__cnt", DataType::Int),
            ]),
            vec![row![9i64, 1i64, 1i64, 1i64]],
        )
        .unwrap();
        assert!(sync.absorb(&h).is_err());
        let bad = Relation::new(
            Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]),
            vec![row![1i64, 1i64]],
        )
        .unwrap();
        assert!(sync.absorb(&bad).is_err());
    }

    #[test]
    fn merge_sync_folded_inserts_new_groups() {
        let mut sync = MergeSync::new(None, &key(), &op()).unwrap();
        let h_schema = Schema::of(&[
            ("g", DataType::Int),
            ("cnt", DataType::Int),
            ("avg__sum", DataType::Int),
            ("avg__cnt", DataType::Int),
        ]);
        sync.absorb(
            &Relation::new(h_schema.clone(), vec![row![2i64, 1i64, 8i64, 1i64]]).unwrap(),
        )
        .unwrap();
        sync.absorb(
            &Relation::new(
                h_schema,
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
    fn partial_merge_is_associative_with_merge_sync() {
        // Merging h1+h2 regionally and then into X must equal absorbing
        // them directly.
        let h_schema = Schema::of(&[
            ("g", DataType::Int),
            ("cnt", DataType::Int),
            ("avg__sum", DataType::Int),
            ("avg__cnt", DataType::Int),
        ]);
        let h1 = Relation::new(
            h_schema.clone(),
            vec![row![1i64, 2i64, 30i64, 2i64], row![2i64, 1i64, 8i64, 1i64]],
        )
        .unwrap();
        let h2 = Relation::new(h_schema.clone(), vec![row![1i64, 1i64, 30i64, 1i64]]).unwrap();

        // Direct path.
        let mut direct = MergeSync::new(Some(&b0()), &key(), &op()).unwrap();
        direct.absorb(&h1).unwrap();
        direct.absorb(&h2).unwrap();
        let direct_out = direct.finish(b0().schema(), &op(), &detail_schema()).unwrap();

        // Regional path.
        let mut region = PartialMerge::new(1, &op());
        region.absorb(&h1).unwrap();
        region.absorb(&h2).unwrap();
        let regional = region.into_relation(std::sync::Arc::new(h_schema));
        assert_eq!(regional.len(), 2, "groups merged regionally");
        let mut root = MergeSync::new(Some(&b0()), &key(), &op()).unwrap();
        root.absorb(&regional).unwrap();
        let tree_out = root.finish(b0().schema(), &op(), &detail_schema()).unwrap();

        assert_eq!(direct_out, tree_out);
    }

    #[test]
    fn parallel_merge_tree_equals_left_fold() {
        let h_schema = Schema::of(&[
            ("g", DataType::Int),
            ("cnt", DataType::Int),
            ("avg__sum", DataType::Int),
            ("avg__cnt", DataType::Int),
        ]);
        // 7 chunks (odd count exercises the lone-leftover path).
        let chunks: Vec<Relation> = (0..7)
            .map(|i| {
                Relation::new(
                    h_schema.clone(),
                    vec![
                        row![1i64, 1i64, 10 * (i + 1), 1i64],
                        row![2i64, 2i64, i, 2i64],
                    ],
                )
                .unwrap()
            })
            .collect();

        let mut fold = MergeSync::new(Some(&b0()), &key(), &op()).unwrap();
        for c in &chunks {
            fold.absorb(c).unwrap();
        }
        let fold_out = fold.finish(b0().schema(), &op(), &detail_schema()).unwrap();

        for parallelism in [1usize, 4] {
            let merged = parallel_merge_tree(chunks.clone(), 1, &op(), parallelism)
                .unwrap()
                .unwrap();
            let mut sync = MergeSync::new(Some(&b0()), &key(), &op()).unwrap();
            sync.absorb(&merged).unwrap();
            let tree_out = sync.finish(b0().schema(), &op(), &detail_schema()).unwrap();
            assert_eq!(tree_out, fold_out, "parallelism {parallelism}");
        }
    }

    #[test]
    fn parallel_merge_tree_empty_and_single() {
        assert!(parallel_merge_tree(Vec::new(), 1, &op(), 4)
            .unwrap()
            .is_none());
        let h_schema = Schema::of(&[
            ("g", DataType::Int),
            ("cnt", DataType::Int),
            ("avg__sum", DataType::Int),
            ("avg__cnt", DataType::Int),
        ]);
        let one = Relation::new(h_schema, vec![row![1i64, 1i64, 5i64, 1i64]]).unwrap();
        let out = parallel_merge_tree(vec![one.clone()], 1, &op(), 4)
            .unwrap()
            .unwrap();
        assert_eq!(out, one);
    }

    #[test]
    fn partial_merge_rejects_bad_arity() {
        let mut pm = PartialMerge::new(1, &op());
        let bad = Relation::new(
            Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]),
            vec![row![1i64, 1i64]],
        )
        .unwrap();
        assert!(pm.absorb(&bad).is_err());
    }

    #[test]
    fn empty_aggregates_finalize_init() {
        let aggs = empty_aggregates(&[op()]).unwrap();
        assert_eq!(aggs, vec![Value::Int(0), Value::Null]);
    }
}
