//! The correctness gate: what every answer is compared with.

use crate::workloads::Workload;
use skalla_core::{Cluster, OptFlags};
use skalla_datagen::partition::reunite;
use skalla_gmdj::EvalOptions;
use skalla_relation::{DomainMap, Relation, Result, Value};
use std::collections::HashMap;

/// Relative tolerance on `Double` against the centralized reference: the
/// distributed plan sums per site and merges, the reference sums in one
/// pass, so the last bits differ.
const TOLERANCE: f64 = 1e-9;

/// Each item's answer computed without the distributed engine: the
/// queries by `GmdjExpr::eval_centralized` over the reunited relations,
/// the cube by one direct query per grouping set on a one-site cluster (so
/// it does not share the roll-up code it checks). In item order.
pub fn references(w: &Workload) -> Result<Vec<Relation>> {
    let catalog: HashMap<String, Relation> = w
        .tables
        .iter()
        .map(|t| (t.name.to_string(), reunite(&t.parts)))
        .collect();
    let mut out = Vec::with_capacity(w.items());
    for query in &w.queries {
        let expr = skalla_query::compile_text(&query.text)?;
        out.push(expr.eval_centralized(&catalog, EvalOptions::default())?);
    }
    if let Some(cube) = &w.cube {
        let whole = catalog[cube.table].clone();
        let single = Cluster::from_partitions(cube.table, vec![(whole, DomainMap::new())]);
        let direct = skalla_query::cube_with_rollup(
            &single,
            cube.table,
            cube.dims,
            &cube.aggs,
            OptFlags::all(),
            false,
        )?;
        out.push(direct.relation);
    }
    Ok(out)
}

fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            x.to_bits() == y.to_bits() || (x - y).abs() <= TOLERANCE * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

/// `None` when `got` has the reference's groups and, per group, its
/// values — exact on Int/Str/NULL, within [`TOLERANCE`] on Double;
/// otherwise what differs first. Key columns lead every row and are
/// unique, so sorting whole rows pairs the groups up.
pub fn mismatch(got: &Relation, reference: &Relation) -> Option<String> {
    let (got, reference) = (got.canonicalized(), reference.canonicalized());
    if got.schema() != reference.schema() {
        return Some(format!(
            "schema {} instead of {}",
            got.schema(),
            reference.schema()
        ));
    }
    if got.len() != reference.len() {
        return Some(format!(
            "{} groups instead of {}",
            got.len(),
            reference.len()
        ));
    }
    got.rows().iter().zip(reference.rows()).find_map(|(g, r)| {
        let col = g
            .values()
            .iter()
            .zip(r.values())
            .position(|(a, b)| !close(a, b))?;
        Some(format!(
            "column {:?} of group {} is {} instead of {}",
            got.schema().field(col).name(),
            g.get(0),
            g.get(col),
            r.get(col)
        ))
    })
}

/// Same rows in the same order, `Double`s compared by bit pattern.
pub fn bit_identical(a: &Relation, b: &Relation) -> bool {
    a.schema() == b.schema()
        && a.len() == b.len()
        && a.rows().iter().zip(b.rows()).all(|(ra, rb)| {
            ra.values()
                .iter()
                .zip(rb.values())
                .all(|(va, vb)| match (va, vb) {
                    (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
                    _ => va == vb,
                })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_relation::{row, DataType, Schema};

    fn rel(rows: Vec<skalla_relation::Row>) -> Relation {
        Relation::new(
            Schema::of(&[("k", DataType::Int), ("x", DataType::Double)]),
            rows,
        )
        .unwrap()
    }

    #[test]
    fn reference_match_tolerates_order_and_last_bits_only() {
        let a = rel(vec![row![1i64, 0.1 + 0.2], row![2i64, 5.0]]);
        let b = rel(vec![row![2i64, 5.0], row![1i64, 0.3]]);
        assert_eq!(mismatch(&a, &b), None);
        assert!(!bit_identical(&a, &b));
        let off = mismatch(&a, &rel(vec![row![1i64, 0.3001], row![2i64, 5.0]])).unwrap();
        assert!(off.contains("\"x\" of group 1"), "{off}");
        assert!(mismatch(&a, &rel(vec![row![1i64, 0.3]])).is_some());
    }

    #[test]
    fn bit_identity_tells_zero_signs_apart() {
        let a = rel(vec![row![1i64, 0.0]]);
        assert!(bit_identical(&a, &a.clone()));
        assert!(!bit_identical(&a, &rel(vec![row![1i64, -0.0]])));
    }
}
