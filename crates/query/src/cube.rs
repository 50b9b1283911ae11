//! Distributed data cubes (Gray et al., the paper's reference \[12\])
//! served from the aggregation lattice.
//!
//! The paper lists data cubes among the OLAP queries GMDJ expressions
//! capture. A cube over dimensions `d₁…d_k` is the union of 2^k grouped
//! aggregations, one per grouping set, with `ALL` markers (here `NULL`)
//! on the rolled-up dimensions.
//!
//! Two serving strategies:
//!
//! * **Roll-up** (the default, [`cube`]): ONE distributed query computes
//!   the finest grouping set with its aggregates *decomposed into
//!   physical sub-aggregates*, one per distinct slot of their block (AVG →
//!   SUM + COUNT, VAR/STDDEV → SUM + SUM² + COUNT, shared between them
//!   and with SUM and COUNT — the same decomposition sites ship in
//!   Theorem 1).
//!   Every grouping set, down to the grand total, is then derived
//!   locally by merging those sub-aggregates along the lattice in the
//!   engine's typed accumulator states ([`AccStates`], the merge the
//!   coordinator runs over its sites' answers) and finalizing them — zero
//!   additional site traffic, and deterministic: finest groups merge in
//!   sorted key order, so the derived bits never depend on arrival
//!   order.
//! * **Direct** ([`cube_with_rollup`] with `rollup = false`): every
//!   grouping set runs as its own distributed GMDJ plan, each enjoying
//!   the full optimization suite (and, behind a [`Skalla`] engine, the
//!   semantic cache).
//!
//! Each level of the result records its provenance ([`LevelSource`]):
//! whether it was computed by a distributed query, served from the
//! semantic result cache, or rolled up locally from the finest level.
//!
//! [`Skalla`]: skalla_core::Skalla

use skalla_core::{ExecStats, OptFlags, Planner, Warehouse};
use skalla_gmdj::patterns::group_by;
use skalla_gmdj::state::AccStates;
use skalla_gmdj::agg::{Slot, SlotKind};
use skalla_gmdj::{AccLayout, AggFunc, AggSpec};
use skalla_relation::columns::{row_key_hash, IdTable};
use skalla_relation::{
    Column, Columns, DataType, Error, Expr, Field, Relation, Result, Row, Schema, Value,
};
use std::sync::Arc;

/// How one grouping set of a cube was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelSource {
    /// A distributed GMDJ query ran against the sites.
    Computed,
    /// The distributed query was answered by the semantic result cache
    /// without contacting any site.
    CacheHit,
    /// Derived locally by merging the finest level's sub-aggregates —
    /// no distributed query at all.
    RolledUp,
}

impl std::fmt::Display for LevelSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LevelSource::Computed => "computed",
            LevelSource::CacheHit => "cache-hit",
            LevelSource::RolledUp => "rolled-up",
        })
    }
}

/// One grouping set of a cube result, with provenance.
#[derive(Debug, Clone)]
pub struct CubeLevel {
    /// The grouping-set dimensions (empty for the grand total).
    pub dims: Vec<String>,
    /// How this level was produced.
    pub source: LevelSource,
    /// Rows this level contributed to [`CubeResult::relation`].
    pub rows: usize,
    /// Execution statistics of the distributed query that produced this
    /// level; `None` for rolled-up levels (they cost no site traffic).
    pub stats: Option<ExecStats>,
}

/// The result of a cube computation.
#[derive(Debug, Clone)]
pub struct CubeResult {
    /// Dimension columns (in the requested order) followed by aggregate
    /// columns; rolled-up dimensions are `NULL`.
    pub relation: Relation,
    /// Per-grouping-set provenance and statistics, finest first,
    /// grand total last.
    pub levels: Vec<CubeLevel>,
}

impl CubeResult {
    /// Total bytes moved across all distributed queries.
    pub fn total_bytes(&self) -> u64 {
        self.levels
            .iter()
            .filter_map(|l| l.stats.as_ref())
            .map(ExecStats::total_bytes)
            .sum()
    }

    /// Total synchronization rounds across all distributed queries.
    pub fn total_rounds(&self) -> usize {
        self.levels
            .iter()
            .filter_map(|l| l.stats.as_ref())
            .map(ExecStats::n_rounds)
            .sum()
    }

    /// Number of grouping sets served without any distributed query.
    pub fn rolled_up_levels(&self) -> usize {
        self.levels
            .iter()
            .filter(|l| l.source == LevelSource::RolledUp)
            .count()
    }
}

/// All subsets of `dims`, from the full set down to the empty (grand
/// total) set, in decreasing-size order.
fn grouping_sets(dims: &[&str]) -> Vec<Vec<String>> {
    let k = dims.len();
    let mut sets: Vec<Vec<String>> = (0..(1u32 << k))
        .map(|mask| {
            dims.iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, d)| d.to_string())
                .collect()
        })
        .collect();
    sets.sort_by_key(|s| std::cmp::Reverse(s.len()));
    sets
}

/// Compute `CUBE BY dims` of `aggs` over a distributed fact relation,
/// serving coarse grouping sets by local roll-up of the finest level
/// (see the module docs; use [`cube_with_rollup`] to ablate).
pub fn cube(
    warehouse: &(impl Warehouse + ?Sized),
    table: &str,
    dims: &[&str],
    aggs: &[AggSpec],
    flags: OptFlags,
) -> Result<CubeResult> {
    cube_with_rollup(warehouse, table, dims, aggs, flags, true)
}

/// [`cube`] with the roll-up strategy explicit: `rollup = true` derives
/// coarse grouping sets locally from the finest level's sub-aggregates;
/// `rollup = false` runs one distributed query per grouping set.
pub fn cube_with_rollup(
    warehouse: &(impl Warehouse + ?Sized),
    table: &str,
    dims: &[&str],
    aggs: &[AggSpec],
    flags: OptFlags,
    rollup: bool,
) -> Result<CubeResult> {
    if dims.is_empty() {
        return Err(Error::Plan("cube needs at least one dimension".into()));
    }
    if aggs.is_empty() {
        return Err(Error::Plan("cube needs at least one aggregate".into()));
    }

    // Output schema: dims (typed from the fact schema) ⊕ aggregates.
    let fact_schema = {
        let cat = warehouse.catalog();
        cat.get(table)
            .ok_or_else(|| Error::Plan(format!("unknown table {table:?}")))?
            .schema()
            .clone()
    };
    let mut fields: Vec<Field> = Vec::with_capacity(dims.len() + aggs.len());
    for d in dims {
        fields.push(fact_schema.field(fact_schema.index_of(d)?).clone());
    }
    for a in aggs {
        fields.push(a.logical_field(&fact_schema)?);
    }
    let out_schema = Schema::new(fields)?;

    if rollup {
        cube_rolled(warehouse, table, dims, aggs, flags, &fact_schema, out_schema)
    } else {
        cube_direct(warehouse, table, dims, aggs, flags, out_schema)
    }
}

/// The provenance of one distributed query's result.
fn query_source(stats: &ExecStats) -> LevelSource {
    if stats.is_cache_hit() {
        LevelSource::CacheHit
    } else {
        LevelSource::Computed
    }
}

/// Decompose each requested aggregate into the *physical* sub-aggregates
/// the finest-level query computes: one per slot of the aggregates'
/// layout ([`AccLayout`], one block) that it is the first to need, named
/// as the slot. `COUNT(*)`, `COUNT(x)`, `SUM(x)`, `MIN(x)` and `MAX(x)`
/// are computed as they are, `SUM(x as f64)` as `SUM(x * 1.0)` and
/// `SUM(x²)` as `SUM(x * x)`, an `Int` `x` taken as `x * 1.0`: in `f64`,
/// as the kernel sums them, so that a square or a sum past `i64` does
/// not wrap. That is the decomposition sites ship.
fn decompose(aggs: &[AggSpec], fact: &Schema) -> Result<Vec<Vec<AggSpec>>> {
    let layout = AccLayout::new(&[aggs.to_vec()], fact)?;
    let empty = Schema::of(&[]);
    // `x * 1.0` is `x as f64` ([`Value::as_f64`]) for an `Int` `x`.
    let in_f64 = |e: Expr| match e.infer_type(&empty, Some(fact)) {
        Ok(DataType::Int) => e.mul(Expr::lit(1.0)),
        _ => e,
    };
    let finest = |slot: &Slot| {
        let input = slot.input.clone();
        let (func, input) = match slot.kind {
            SlotKind::CountStar | SlotKind::Count => (AggFunc::Count, input),
            SlotKind::Sum => (AggFunc::Sum, input),
            SlotKind::SumF64 => (AggFunc::Sum, input.map(in_f64)),
            SlotKind::SumSq => (AggFunc::Sum, input.map(|e| in_f64(e.clone()).mul(in_f64(e)))),
            SlotKind::Min => (AggFunc::Min, input),
            SlotKind::Max => (AggFunc::Max, input),
        };
        AggSpec { func, input, name: slot.field.name().to_string() }
    };
    let specs = |new: Vec<usize>| new.into_iter().map(|s| finest(&layout.slots()[s])).collect();
    Ok(layout.first_needs().into_iter().map(specs).collect())
}

/// Roll-up serving: one distributed query at the finest level, every
/// coarser grouping set merged locally along the lattice.
fn cube_rolled(
    warehouse: &(impl Warehouse + ?Sized),
    table: &str,
    dims: &[&str],
    aggs: &[AggSpec],
    flags: OptFlags,
    fact_schema: &Schema,
    out_schema: Schema,
) -> Result<CubeResult> {
    let planner = Planner::new(warehouse.distribution());
    let phys = decompose(aggs, fact_schema)?;
    let expr = group_by(table, dims, phys.concat());
    let plan = planner.optimize(&expr, flags);
    let out = warehouse.execute(&plan)?;

    // Sorted finest groups: the lattice merges below run in this order,
    // so every derived bit is independent of site arrival order.
    let finest = out.relation.sorted_by(dims)?;
    let schema = finest.schema();
    let dim_cols: Vec<&Column> = dims
        .iter()
        .map(|d| Ok(finest.column(schema.index_of(d)?)))
        .collect::<Result<_>>()?;
    // Each slot's column: the finest query's column of its name; the sum
    // of squares, which the finest query computed as a SUM, 0.0 where it
    // is NULL over no value.
    let layout = AccLayout::new(&[aggs.to_vec()], fact_schema)?;
    let slot_column = |slot: &Slot| {
        let col = finest.shared_column(schema.index_of(slot.field.name())?);
        Ok(match slot.kind {
            SlotKind::SumSq => Arc::new(as_f64_or_zero(&col)),
            _ => col,
        })
    };
    let slots = layout.slots().iter().map(slot_column).collect::<Result<Vec<_>>>()?;
    let slots = Columns::from_shared(finest.len(), slots);

    let mut parts = Vec::new();
    let mut levels = Vec::new();
    for set in grouping_sets(dims) {
        let keep: Vec<bool> = dims.iter().map(|d| set.iter().any(|s| s == d)).collect();
        let finest_level = keep.iter().all(|&k| k);
        let (rows, cols) = roll_up(&dim_cols, &keep, &layout, &slots)?;
        levels.push(CubeLevel {
            dims: set,
            source: if finest_level {
                query_source(&out.stats)
            } else {
                LevelSource::RolledUp
            },
            rows,
            stats: finest_level.then(|| out.stats.clone()),
        });
        parts.push(cols);
    }

    if let Some(cache) = warehouse.semantic_cache() {
        // Every level but the finest rolled up.
        cache.tally_rollups(levels.len() as u64 - 1);
    }
    concat_levels(out_schema, &parts, levels)
}

/// The doubles of an Int or Double column, as [`Value::as_f64`] gives
/// them, with 0.0 for NULL.
fn as_f64_or_zero(col: &Column) -> Column {
    let data = (0..col.len())
        .map(|i| col.value(i).as_f64().unwrap_or(0.0))
        .collect();
    Column::Double { data, valid: None }
}

/// One grouping set of the cube: the finest groups merged into the groups
/// of the dimensions `keep` marks, as the output columns — kept
/// dimensions, `NULL` for the rolled-up ones, then the aggregates.
///
/// Each finest row takes its group's id from an [`IdTable`] over the kept
/// dimension columns, read in place; groups are numbered in first
/// occurrence order of the sorted finest level, so every finest group is
/// its own group when all dimensions are kept. Every row's slots merge
/// into its group's fresh position of the typed states, in row order, and
/// the positions finalize to the aggregate columns: X_init ⊕ row ⊕ row …,
/// fully deterministic. The grand total has one group even over an empty
/// finest level: X_init, COUNT 0 and NULL elsewhere, as an aggregate
/// over an empty range.
fn roll_up(
    dims: &[&Column],
    keep: &[bool],
    layout: &AccLayout,
    slots: &Columns,
) -> Result<(usize, Vec<Arc<Column>>)> {
    let kept: Vec<&Column> = dims.iter().zip(keep).filter(|(_, k)| **k).map(|(c, _)| *c).collect();
    let n = slots.len();
    let mut index = IdTable::with_capacity(n);
    let mut firsts: Vec<u32> = Vec::new();
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let h = row_key_hash(kept.iter().copied(), i);
        let same = |g: usize| kept.iter().all(|c| c.value_eq_at(firsts[g] as usize, c, i));
        let id = match index.find(h, same) {
            Some(g) => g,
            None => {
                firsts.push(i as u32);
                index.insert(h)
            }
        };
        ids.push(id);
    }
    let groups = firsts.len().max(usize::from(kept.is_empty()));
    let mut states = AccStates::new(layout, groups);
    states.absorb(slots, 0, &ids, &vec![false; n])?;

    let mut cols: Vec<Arc<Column>> = dims
        .iter()
        .zip(keep)
        .map(|(c, &k)| Arc::new(if k { c.gather(&firsts) } else { Column::nulls(c.data_type(), groups) }))
        .collect();
    let at: Vec<u32> = (0..groups as u32).collect();
    cols.extend(states.finalize_columns(&at, &vec![true; groups]));
    Ok((groups, cols))
}

/// The cube's relation: the levels' columns, one level after another.
fn concat_levels(out_schema: Schema, parts: &[Vec<Arc<Column>>], levels: Vec<CubeLevel>) -> Result<CubeResult> {
    let cols = (0..out_schema.len())
        .map(|c| {
            let level_cols: Vec<&Column> = parts.iter().map(|p| &*p[c]).collect();
            Arc::new(Column::concat(out_schema.field(c).data_type(), &level_cols))
        })
        .collect();
    let rows = levels.iter().map(|l| l.rows).sum();
    Ok(CubeResult {
        relation: Relation::from_columns(out_schema, Columns::from_shared(rows, cols))?,
        levels,
    })
}

/// Direct serving: one distributed GMDJ query per grouping set (the
/// pre-roll-up strategy, kept as an ablation and oracle).
fn cube_direct(
    warehouse: &(impl Warehouse + ?Sized),
    table: &str,
    dims: &[&str],
    aggs: &[AggSpec],
    flags: OptFlags,
    out_schema: Schema,
) -> Result<CubeResult> {
    let planner = Planner::new(warehouse.distribution());
    let mut parts = Vec::new();
    let mut levels = Vec::new();
    for set in grouping_sets(dims) {
        let set_refs: Vec<&str> = set.iter().map(String::as_str).collect();
        let expr = if set.is_empty() {
            // Grand total: a single all-NULL-free group via a literal
            // one-row base with a constant marker column that every detail
            // tuple matches.
            let base = Relation::new(
                Schema::of(&[("__all", DataType::Int)]),
                vec![Row::new(vec![Value::Int(0)])],
            )?;
            skalla_gmdj::GmdjExprBuilder::literal_base(base)
                .gmdj(skalla_gmdj::Gmdj::new(table).block(Expr::True, aggs.to_vec()))
                .build()
        } else {
            group_by(table, &set_refs, aggs.to_vec())
        };
        let plan = planner.optimize(&expr, flags);
        let out = warehouse.execute(&plan)?;

        // Reshape into the cube schema with NULL (ALL) markers.
        let res = &out.relation;
        let mut cols = Vec::with_capacity(out_schema.len());
        for (d, f) in dims.iter().zip(out_schema.fields()) {
            cols.push(match set.iter().any(|s| s == d) {
                true => res.shared_column(res.schema().index_of(d)?),
                false => Arc::new(Column::nulls(f.data_type(), res.len())),
            });
        }
        for a in aggs {
            cols.push(res.shared_column(res.schema().index_of(&a.name)?));
        }
        levels.push(CubeLevel {
            dims: set,
            source: query_source(&out.stats),
            rows: res.len(),
            stats: Some(out.stats.clone()),
        });
        parts.push(cols);
    }
    concat_levels(out_schema, &parts, levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_core::Cluster;
    use skalla_relation::{row, DataType, Domain, DomainMap};

    fn cluster() -> Cluster {
        let schema = Schema::of(&[
            ("g", DataType::Int),
            ("h", DataType::Str),
            ("v", DataType::Int),
        ]);
        let p0 = Relation::new(
            schema.clone(),
            vec![row![1i64, "a", 10i64], row![1i64, "b", 20i64]],
        )
        .unwrap();
        let p1 = Relation::new(
            schema,
            vec![row![2i64, "a", 5i64], row![2i64, "a", 15i64]],
        )
        .unwrap();
        Cluster::from_partitions(
            "t",
            vec![
                (p0, DomainMap::new().with("g", Domain::IntRange(1, 1))),
                (p1, DomainMap::new().with("g", Domain::IntRange(2, 2))),
            ],
        )
    }

    fn all_aggs() -> Vec<AggSpec> {
        vec![
            AggSpec::count("n"),
            AggSpec::sum("v", "s"),
            AggSpec::avg("v", "a"),
            AggSpec::min("v", "mn"),
            AggSpec::max("v", "mx"),
            AggSpec::var("v", "vr"),
            AggSpec::stddev("v", "sd"),
        ]
    }

    #[test]
    fn grouping_sets_enumerated_coarsening() {
        let sets = grouping_sets(&["a", "b"]);
        assert_eq!(sets.len(), 4);
        assert_eq!(sets[0], vec!["a".to_string(), "b".to_string()]);
        assert!(sets[3].is_empty());
    }

    #[test]
    fn two_dimensional_cube() {
        let c = cluster();
        let result = cube(
            &c,
            "t",
            &["g", "h"],
            &[AggSpec::count("n"), AggSpec::sum("v", "s")],
            OptFlags::all(),
        )
        .unwrap();
        let rel = result.relation.sorted_by(&["g", "h"]).unwrap();
        assert_eq!(rel.schema().column_names(), ["g", "h", "n", "s"]);
        // 2^2 grouping sets: (g,h) 3 groups, (g) 2, (h) 2, () 1 → 8 rows.
        assert_eq!(rel.len(), 8);

        let find = |g: Value, h: Value| {
            rel.rows()
                .iter()
                .find(|r| r.get(0) == &g && r.get(1) == &h)
                .cloned()
                .unwrap_or_else(|| panic!("row ({g}, {h}) missing in {rel}"))
        };
        // Finest level.
        assert_eq!(find(Value::Int(1), Value::str("a")).get(3), &Value::Int(10));
        // Roll-up on h.
        assert_eq!(find(Value::Int(1), Value::Null).get(3), &Value::Int(30));
        assert_eq!(find(Value::Int(2), Value::Null).get(3), &Value::Int(20));
        // Roll-up on g.
        assert_eq!(find(Value::Null, Value::str("a")).get(3), &Value::Int(30));
        // Grand total.
        let total = find(Value::Null, Value::Null);
        assert_eq!(total.get(2), &Value::Int(4));
        assert_eq!(total.get(3), &Value::Int(50));

        // Roll-up serving: only the finest level ran distributed.
        assert_eq!(result.levels.len(), 4);
        assert_eq!(result.levels[0].source, LevelSource::Computed);
        assert_eq!(result.rolled_up_levels(), 3);
        assert!(result.total_bytes() > 0);
        assert!(result.total_rounds() >= 1);
    }

    #[test]
    fn rollup_matches_direct_on_every_aggregate() {
        // Int inputs: every f64 in play is exactly representable, so the
        // rolled-up lattice must agree with per-level distributed
        // execution bit for bit — including AVG, VAR and STDDEV.
        let c = cluster();
        let rolled = cube_with_rollup(&c, "t", &["g", "h"], &all_aggs(), OptFlags::all(), true)
            .unwrap();
        let direct = cube_with_rollup(&c, "t", &["g", "h"], &all_aggs(), OptFlags::all(), false)
            .unwrap();
        let key = |r: &Relation| r.canonicalized();
        assert_eq!(key(&rolled.relation), key(&direct.relation));
        // Provenance: direct ran 4 distributed queries, rolled ran 1.
        assert_eq!(direct.rolled_up_levels(), 0);
        assert_eq!(rolled.rolled_up_levels(), 3);
        assert!(rolled.total_bytes() < direct.total_bytes());
        assert!(
            direct.levels.iter().all(|l| l.stats.is_some()),
            "direct levels all carry stats"
        );
    }

    #[test]
    fn cube_errors() {
        let c = cluster();
        assert!(cube(&c, "t", &[], &[AggSpec::count("n")], OptFlags::all()).is_err());
        assert!(cube(&c, "t", &["g"], &[], OptFlags::all()).is_err());
        assert!(cube(&c, "missing", &["g"], &[AggSpec::count("n")], OptFlags::all()).is_err());
        assert!(cube(&c, "t", &["nope"], &[AggSpec::count("n")], OptFlags::all()).is_err());
    }

    #[test]
    fn cube_matches_flag_free_run() {
        let c = cluster();
        let a = cube(&c, "t", &["g"], &[AggSpec::count("n")], OptFlags::all()).unwrap();
        let b = cube(&c, "t", &["g"], &[AggSpec::count("n")], OptFlags::none()).unwrap();
        assert!(a.relation.same_bag(&b.relation));
    }
}
