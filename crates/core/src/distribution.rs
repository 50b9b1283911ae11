//! Distribution knowledge: what the coordinator knows about each site's
//! fragment of each fact relation.
//!
//! Each site *i*'s fragment of table *T* is described by a φ_i — a
//! [`DomainMap`] of per-column guarantees. From these the planner derives:
//!
//! * **¬ψ_i group-reduction filters** (Theorem 4), via
//!   [`skalla_relation::derive_base_constraint`];
//! * **partition attributes** (Definition 2): a column whose per-site
//!   domains are pairwise disjoint, enabling synchronization reduction
//!   (Theorem 5 / Corollary 1).

use skalla_relation::{Domain, DomainMap};
use std::collections::HashMap;

/// Per-site, per-table domain knowledge.
#[derive(Debug, Clone, Default)]
pub struct DistributionInfo {
    n_sites: usize,
    tables: HashMap<String, Vec<DomainMap>>,
}

impl DistributionInfo {
    /// Knowledge-free info for `n_sites` sites.
    pub fn new(n_sites: usize) -> DistributionInfo {
        DistributionInfo {
            n_sites,
            tables: HashMap::new(),
        }
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Record the per-site φ maps for a table.
    ///
    /// # Panics
    /// Panics if `per_site.len() != n_sites`.
    pub fn set_table(&mut self, table: impl Into<String>, per_site: Vec<DomainMap>) {
        assert_eq!(
            per_site.len(),
            self.n_sites,
            "one DomainMap per site required"
        );
        self.tables.insert(table.into(), per_site);
    }

    /// φ_i for `table` at `site` (empty map when nothing is known).
    pub fn domains(&self, table: &str, site: usize) -> DomainMap {
        self.tables
            .get(table)
            .and_then(|v| v.get(site))
            .cloned()
            .unwrap_or_default()
    }

    /// Is `column` a partition attribute of `table` (Definition 2)?
    ///
    /// True when every site constrains the column and the domains are
    /// pairwise disjoint. (A hash-partitioned column may *be* a partition
    /// attribute physically, but without declared domains Skalla cannot
    /// prove it — exactly the situation the distribution-independent
    /// optimizations are for.)
    pub fn is_partition_attribute(&self, table: &str, column: &str) -> bool {
        let Some(sites) = self.tables.get(table) else {
            return false;
        };
        if sites.len() != self.n_sites || self.n_sites == 0 {
            return false;
        }
        let domains: Vec<&Domain> = sites.iter().map(|m| m.get(column)).collect();
        if domains.iter().any(|d| matches!(d, Domain::Any)) {
            return false;
        }
        for i in 0..domains.len() {
            for j in (i + 1)..domains.len() {
                if !domains[i].disjoint_from(domains[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// Whether any knowledge is recorded for a table.
    pub fn knows_table(&self, table: &str) -> bool {
        self.tables.contains_key(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_relation::Value;

    fn info() -> DistributionInfo {
        let mut d = DistributionInfo::new(3);
        d.set_table(
            "t",
            vec![
                DomainMap::new()
                    .with("k", Domain::IntRange(0, 9))
                    .with("g", Domain::IntRange(0, 5)),
                DomainMap::new()
                    .with("k", Domain::IntRange(10, 19))
                    .with("g", Domain::IntRange(3, 8)),
                DomainMap::new()
                    .with("k", Domain::IntRange(20, 29))
                    .with("g", Domain::IntRange(9, 12)),
            ],
        );
        d
    }

    #[test]
    fn partition_attribute_requires_pairwise_disjoint() {
        let d = info();
        assert!(d.is_partition_attribute("t", "k"));
        // g overlaps between sites 0 and 1.
        assert!(!d.is_partition_attribute("t", "g"));
        // Unknown column: every site has Domain::Any.
        assert!(!d.is_partition_attribute("t", "other"));
        // Unknown table.
        assert!(!d.is_partition_attribute("u", "k"));
    }

    #[test]
    fn set_domains_count_as_partition_attribute() {
        let mut d = DistributionInfo::new(2);
        d.set_table(
            "t",
            vec![
                DomainMap::new().with("name", Domain::of([Value::str("a"), Value::str("b")])),
                DomainMap::new().with("name", Domain::of([Value::str("c")])),
            ],
        );
        assert!(d.is_partition_attribute("t", "name"));
    }

    #[test]
    fn domains_default_to_empty() {
        let d = info();
        assert_eq!(d.domains("nope", 0), DomainMap::new());
        assert_eq!(d.domains("t", 99), DomainMap::new());
        assert!(d.knows_table("t"));
        assert!(!d.knows_table("nope"));
    }

    #[test]
    #[should_panic(expected = "one DomainMap per site")]
    fn wrong_site_count_panics() {
        let mut d = DistributionInfo::new(3);
        d.set_table("t", vec![DomainMap::new()]);
    }
}
