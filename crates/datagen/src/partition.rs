//! Horizontal partitioners.
//!
//! A partitioner splits a fact relation across `n` warehouse sites and —
//! crucially for the paper's distribution-aware optimizations — describes
//! each site's fragment with a φ predicate ([`DomainMap`]): what every
//! tuple stored there is guaranteed to satisfy. Partitioning by attribute
//! ranges or value sets yields a *partition attribute* (Definition 2);
//! hash/random partitioning yields no knowledge (`Domain::Any`), which
//! exercises the distribution-independent paths.
//!
//! Every partitioner reads the partitioned column in place and makes each
//! fragment a gather of the relation's columns ([`Relation::gather`]): no
//! row is built.

use skalla_relation::{Domain, DomainMap, Relation, Result, Value};
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// One site's fragment plus its φ description.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The tuples stored at the site.
    pub relation: Relation,
    /// Per-column guarantees about those tuples (φ_i). Empty for
    /// knowledge-free partitionings.
    pub domains: DomainMap,
}

impl From<Partition> for (Relation, DomainMap) {
    fn from(p: Partition) -> (Relation, DomainMap) {
        (p.relation, p.domains)
    }
}

/// Split on an integer column into `n` contiguous ranges of its *distinct
/// values* (balanced by distinct-value count, like assigning key ranges to
/// sites). The column becomes a partition attribute.
#[expect(
    clippy::expect_used,
    reason = "the panicking form for generators and tests, which name the column in source"
)]
pub fn partition_by_int_ranges(rel: &Relation, column: &str, n: usize) -> Vec<Partition> {
    try_partition_by_int_ranges(rel, column, n).expect("partition column exists and is Int")
}

/// Fallible form of [`partition_by_int_ranges`].
pub fn try_partition_by_int_ranges(
    rel: &Relation,
    column: &str,
    n: usize,
) -> Result<Vec<Partition>> {
    assert!(n > 0, "cannot partition across zero sites");
    let col = rel.schema().index_of(column)?;
    let mut distinct: Vec<i64> = rel
        .column_values(column)?
        .into_iter()
        .filter_map(|v| v.as_i64())
        .collect();
    distinct.sort_unstable();

    // Assign contiguous runs of distinct values to sites.
    let mut bounds: Vec<(i64, i64)> = Vec::with_capacity(n);
    if distinct.is_empty() {
        for _ in 0..n {
            bounds.push((0, -1)); // empty range
        }
    } else {
        let per = distinct.len().div_ceil(n);
        for i in 0..n {
            let lo_idx = (i * per).min(distinct.len().saturating_sub(1));
            let hi_idx = (((i + 1) * per).min(distinct.len())).saturating_sub(1);
            if i * per >= distinct.len() {
                // More sites than distinct values: empty sites at the end.
                bounds.push((distinct[distinct.len() - 1] + 1 + i as i64, distinct[distinct.len() - 1] + i as i64));
            } else {
                bounds.push((distinct[lo_idx], distinct[hi_idx]));
            }
        }
    }

    let col = rel.column(col);
    let mut at: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..rel.len() {
        let Some(v) = col.value(i).as_i64() else {
            // Non-integer values (NULL): keep at site 0; its φ must then be
            // weakened to Any for this column.
            at[0].push(i as u32);
            continue;
        };
        let site = bounds
            .iter()
            .position(|(lo, hi)| v >= *lo && v <= *hi)
            .unwrap_or(n - 1);
        at[site].push(i as u32);
    }

    let any_null = (0..rel.len()).any(|i| !col.is_valid(i));
    Ok(bounds
        .into_iter()
        .enumerate()
        .map(|(i, (lo, hi))| {
            let mut domains = DomainMap::new();
            if !(i == 0 && any_null) {
                domains.insert(column, Domain::IntRange(lo, hi));
            }
            Partition {
                relation: rel.gather(&at[i]),
                domains,
            }
        })
        .collect())
}

/// Split on any column by distributing its distinct values round-robin;
/// each site's φ is an explicit value set. Works for string keys (e.g.
/// `cust_name`). The column is a partition attribute.
#[expect(
    clippy::expect_used,
    reason = "the panicking form for generators and tests, which name the column in source"
)]
pub fn partition_by_value_sets(rel: &Relation, column: &str, n: usize) -> Vec<Partition> {
    try_partition_by_value_sets(rel, column, n).expect("partition column exists")
}

/// Fallible form of [`partition_by_value_sets`].
pub fn try_partition_by_value_sets(
    rel: &Relation,
    column: &str,
    n: usize,
) -> Result<Vec<Partition>> {
    assert!(n > 0, "cannot partition across zero sites");
    let col = rel.schema().index_of(column)?;
    let mut distinct = rel.column_values(column)?;
    distinct.sort();
    let mut assignment: HashMap<Value, usize> = HashMap::with_capacity(distinct.len());
    let mut sets: Vec<BTreeSet<Value>> = vec![BTreeSet::new(); n];
    for (i, v) in distinct.into_iter().enumerate() {
        sets[i % n].insert(v.clone());
        assignment.insert(v, i % n);
    }
    let col = rel.column(col);
    let mut at: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..rel.len() {
        #[expect(
            clippy::expect_used,
            reason = "`assignment` was built from this column's distinct values"
        )]
        let site = *assignment.get(&col.value(i)).expect("value seen in scan");
        at[site].push(i as u32);
    }
    Ok(sets
        .into_iter()
        .enumerate()
        .map(|(i, set)| Partition {
            relation: rel.gather(&at[i]),
            domains: DomainMap::new().with(column, Domain::Set(set)),
        })
        .collect())
}

/// Split by hashing a column: balanced, but the coordinator learns nothing
/// (φ = no constraints). The column is still a partition attribute in the
/// formal sense, but Skalla is not told so.
#[expect(
    clippy::expect_used,
    reason = "the panicking form for generators and tests, which name the column in source"
)]
pub fn partition_by_hash(rel: &Relation, column: &str, n: usize) -> Vec<Partition> {
    assert!(n > 0, "cannot partition across zero sites");
    let col = rel
        .schema()
        .index_of(column)
        .expect("partition column exists");
    let col = rel.column(col);
    let mut at: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..rel.len() {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        col.value(i).hash(&mut h);
        at[(h.finish() as usize) % n].push(i as u32);
    }
    at.iter()
        .map(|at| Partition {
            relation: rel.gather(at),
            domains: DomainMap::new(),
        })
        .collect()
}

/// Scatter tuples round-robin: no partition attribute exists at all (every
/// site may hold tuples of every group).
pub fn partition_round_robin(rel: &Relation, n: usize) -> Vec<Partition> {
    assert!(n > 0, "cannot partition across zero sites");
    (0..n as u32)
        .map(|site| Partition {
            relation: rel.gather(&(site..rel.len() as u32).step_by(n).collect::<Vec<_>>()),
            domains: DomainMap::new(),
        })
        .collect()
}

/// Augment each partition's φ with the *observed* min/max of the given
/// integer columns. Always sound (the range holds for every stored tuple);
/// the ranges are pairwise disjoint — and hence declare partition
/// attributes — exactly when the data is value-clustered on those columns
/// (e.g. `cust_key` under contiguous-nation TPCR partitioning).
pub fn observe_int_ranges(parts: &mut [Partition], columns: &[&str]) {
    for p in &mut parts.iter_mut() {
        for col in columns {
            let Ok(idx) = p.relation.schema().index_of(col) else {
                continue;
            };
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            let mut all_int = true;
            let values = p.relation.column(idx);
            for i in 0..p.relation.len() {
                match values.value(i).as_i64() {
                    Some(v) => {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    None => {
                        all_int = false;
                        break;
                    }
                }
            }
            if p.relation.is_empty() {
                // An empty fragment satisfies any φ; the empty set is
                // disjoint from every other site's domain, so declaring it
                // keeps the column a partition attribute.
                p.domains.insert(*col, Domain::of([]));
            } else if all_int && lo <= hi {
                p.domains.insert(*col, Domain::IntRange(lo, hi));
            }
        }
    }
}

/// Reassemble the union of partition fragments (test helper; the inverse
/// of any partitioner up to row order).
///
/// # Panics
/// Panics on an empty slice or on fragments of different schemas.
#[expect(
    clippy::expect_used,
    reason = "test helper over the output of one partitioner: never empty, one schema"
)]
pub fn reunite(parts: &[Partition]) -> Relation {
    let mut it = parts.iter();
    let first = it.next().expect("at least one partition");
    let mut acc = first.relation.clone();
    for p in it {
        acc = acc
            .union_all(&p.relation)
            .expect("fragments share a schema");
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_relation::{row, DataType, Schema};

    fn rel() -> Relation {
        Relation::new(
            Schema::of(&[("k", DataType::Int), ("name", DataType::Str)]),
            (0..20)
                .map(|i| row![i as i64, format!("n{}", i % 7)])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn int_ranges_cover_and_are_disjoint() {
        let r = rel();
        let parts = partition_by_int_ranges(&r, "k", 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|p| p.relation.len()).sum::<usize>(), 20);
        assert!(reunite(&parts).same_bag(&r));
        // φs are pairwise disjoint ranges (partition attribute).
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(parts[i]
                    .domains
                    .get("k")
                    .disjoint_from(parts[j].domains.get("k")));
            }
        }
        // Every stored tuple satisfies its site's φ.
        for p in &parts {
            let Domain::IntRange(lo, hi) = *p.domains.get("k") else {
                panic!("expected range domain");
            };
            for row in &p.relation {
                let v = row.get(0).as_i64().unwrap();
                assert!(v >= lo && v <= hi);
            }
        }
    }

    #[test]
    fn generated_fragments_reunite_to_the_relation() {
        // Fragments are gathers of the generated columns; together they
        // are the relation again, as a bag, whichever partitioner cut it.
        let tpcr = crate::generate_tpcr(&crate::TpcrConfig::small(2));
        let flows = crate::generate_flows(&crate::FlowConfig::small(2));
        for n in [1, 3, 8] {
            assert!(reunite(&partition_by_int_ranges(&tpcr, "nation_key", n)).same_bag(&tpcr));
            assert!(reunite(&partition_by_value_sets(&tpcr, "cust_name", n)).same_bag(&tpcr));
            assert!(reunite(&partition_by_int_ranges(&flows, "router_id", n)).same_bag(&flows));
            assert!(reunite(&partition_round_robin(&flows, n)).same_bag(&flows));
        }
    }

    #[test]
    fn more_sites_than_values() {
        let r = Relation::new(
            Schema::of(&[("k", DataType::Int)]),
            vec![row![1i64], row![2i64]],
        )
        .unwrap();
        let parts = partition_by_int_ranges(&r, "k", 5);
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().map(|p| p.relation.len()).sum::<usize>(), 2);
        // Trailing sites are empty with empty ranges.
        assert!(parts[4].relation.is_empty());
    }

    #[test]
    fn value_sets_partition_strings() {
        let r = rel();
        let parts = partition_by_value_sets(&r, "name", 3);
        assert!(reunite(&parts).same_bag(&r));
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert!(parts[i]
                    .domains
                    .get("name")
                    .disjoint_from(parts[j].domains.get("name")));
            }
        }
        // Tuples with the same name land at the same site.
        for p in &parts {
            let set = p.domains.get("name").as_set().unwrap().clone();
            for row in &p.relation {
                assert!(set.contains(row.get(1)));
            }
        }
    }

    #[test]
    fn hash_partitioning_has_no_knowledge() {
        let parts = partition_by_hash(&rel(), "k", 3);
        assert!(reunite(&parts).same_bag(&rel()));
        for p in &parts {
            assert_eq!(p.domains.constrained_columns().count(), 0);
        }
        // Same key always lands at the same site.
        let parts2 = partition_by_hash(&rel(), "name", 3);
        for p in &parts2 {
            let names = p.relation.column_values("name").unwrap();
            for q in &parts2 {
                if std::ptr::eq(p, q) {
                    continue;
                }
                let other = q.relation.column_values("name").unwrap();
                assert!(names.iter().all(|n| !other.contains(n)));
            }
        }
    }

    #[test]
    fn round_robin_scatters() {
        let parts = partition_round_robin(&rel(), 3);
        assert!(reunite(&parts).same_bag(&rel()));
        let sizes: Vec<usize> = parts.iter().map(|p| p.relation.len()).collect();
        assert_eq!(sizes, vec![7, 7, 6]);
    }

    #[test]
    fn observed_ranges_are_sound_and_disjoint_for_clustered_data() {
        let r = rel();
        let mut parts = partition_by_int_ranges(&r, "k", 3);
        // "name" is not clustered by k, "k" is; observe both.
        observe_int_ranges(&mut parts, &["k", "missing"]);
        for p in &parts {
            let Domain::IntRange(lo, hi) = *p.domains.get("k") else {
                panic!("expected observed range");
            };
            for row in &p.relation {
                let v = row.get(0).as_i64().unwrap();
                assert!(v >= lo && v <= hi);
            }
        }
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert!(parts[i]
                    .domains
                    .get("k")
                    .disjoint_from(parts[j].domains.get("k")));
            }
        }
    }

    #[test]
    fn observe_skips_non_int_and_empty() {
        let r = rel();
        let mut parts = partition_by_int_ranges(&r, "k", 3);
        observe_int_ranges(&mut parts, &["name"]);
        assert_eq!(parts[0].domains.get("name"), &Domain::Any);
    }

    #[test]
    fn unknown_column_errors() {
        assert!(try_partition_by_int_ranges(&rel(), "zzz", 2).is_err());
        assert!(try_partition_by_value_sets(&rel(), "zzz", 2).is_err());
    }
}
