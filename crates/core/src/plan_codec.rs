//! Binary codec for distributed plans.
//!
//! The coordinator broadcasts the encoded plan to every site at the start
//! of execution (message `TAG_PLAN`), so plan distribution crosses the
//! accounted transport like everything else. Plans are a few hundred
//! bytes — negligible next to the base-structure traffic, but now
//! measured instead of assumed.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::plan::{DistributedPlan, SiteFilter, Stage, StageKind, Unit};
use skalla_gmdj::codec::{get_gmdj_expr, put_gmdj_expr};
use skalla_gmdj::EvalOptions;
use skalla_relation::codec::{Decoder, Encoder};
use skalla_relation::{Error, Result};

fn put_strings(enc: &mut Encoder, v: &[String]) {
    enc.put_u32(v.len() as u32);
    for s in v {
        enc.put_str(s);
    }
}

fn get_strings(dec: &mut Decoder<'_>) -> Result<Vec<String>> {
    let n = dec.get_u32()? as usize;
    // Pre-sized from the wire count, capped by what the buffer could
    // possibly hold, so a corrupt length can't balloon the allocation.
    let mut out = Vec::with_capacity(n.min(dec.remaining()));
    for _ in 0..n {
        out.push(dec.get_str()?);
    }
    Ok(out)
}

fn put_unit(enc: &mut Encoder, u: &Unit) {
    enc.put_u32(u.ops.start as u32);
    enc.put_u32(u.ops.end as u32);
    enc.put_str(&u.table);
    enc.put_u8(u.fold_base as u8);
    enc.put_u8(u.local_chain as u8);
    match &u.ownership {
        Some((b, d)) => {
            enc.put_u8(1);
            enc.put_str(b);
            enc.put_str(d);
        }
        None => enc.put_u8(0),
    }
    put_strings(enc, &u.ship_columns);
    enc.put_u32(u.site_filters.len() as u32);
    for f in &u.site_filters {
        match f {
            SiteFilter::All => enc.put_u8(0),
            SiteFilter::Skip => enc.put_u8(1),
            SiteFilter::Predicate(p) => {
                enc.put_u8(2);
                enc.put_expr(p);
            }
            SiteFilter::Resident => enc.put_u8(3),
        }
    }
    enc.put_u8(u.site_reduce as u8);
}

fn get_unit(dec: &mut Decoder<'_>) -> Result<Unit> {
    let start = dec.get_u32()? as usize;
    let end = dec.get_u32()? as usize;
    let table = dec.get_str()?;
    let fold_base = dec.get_u8()? != 0;
    let local_chain = dec.get_u8()? != 0;
    let ownership = match dec.get_u8()? {
        0 => None,
        1 => Some((dec.get_str()?, dec.get_str()?)),
        t => return Err(Error::Codec(format!("bad ownership flag {t}"))),
    };
    let ship_columns = get_strings(dec)?;
    let n_filters = dec.get_u32()? as usize;
    let mut site_filters = Vec::with_capacity(n_filters);
    for _ in 0..n_filters {
        site_filters.push(match dec.get_u8()? {
            0 => SiteFilter::All,
            1 => SiteFilter::Skip,
            2 => SiteFilter::Predicate(dec.get_expr()?),
            3 => SiteFilter::Resident,
            t => return Err(Error::Codec(format!("bad site filter tag {t}"))),
        });
    }
    let site_reduce = dec.get_u8()? != 0;
    Ok(Unit {
        ops: start..end,
        table,
        fold_base,
        local_chain,
        ownership,
        ship_columns,
        site_filters,
        site_reduce,
    })
}

/// Destructures [`EvalOptions`] exhaustively (no `..`), as
/// [`get_eval_options`] rebuilds it: a field added to the struct without
/// a wire encoding is a compile error here.
fn put_eval_options(enc: &mut Encoder, opts: &EvalOptions) {
    let EvalOptions {
        parallelism,
        morsel_rows,
    } = *opts;
    enc.put_u32(parallelism as u32);
    enc.put_u32(morsel_rows.min(u32::MAX as usize) as u32);
}

fn get_eval_options(dec: &mut Decoder<'_>) -> Result<EvalOptions> {
    let parallelism = dec.get_u32()? as usize;
    let morsel_rows = (dec.get_u32()? as usize).max(1);
    Ok(EvalOptions {
        parallelism,
        morsel_rows,
    })
}

/// Encode the kernel options and then the plan — the `TAG_PLAN` payload
/// the coordinator broadcasts, so every site runs its kernel with the
/// cluster-configured knobs (what only the coordinator decides —
/// balancing, caching — stays off the wire).
pub fn encode_plan_with_options(plan: &DistributedPlan, opts: &EvalOptions) -> Vec<u8> {
    let mut enc = Encoder::new();
    put_eval_options(&mut enc, opts);
    let mut bytes = enc.finish();
    bytes.extend(encode_plan(plan));
    bytes
}

/// Decode a `TAG_PLAN` payload: evaluation options, then the plan.
pub fn decode_plan_with_options(bytes: &[u8]) -> Result<(DistributedPlan, EvalOptions)> {
    let mut dec = Decoder::new(bytes);
    let opts = get_eval_options(&mut dec)?;
    let consumed = bytes.len() - dec.remaining();
    Ok((decode_plan(&bytes[consumed..])?, opts))
}

/// Encode a distributed plan to bytes.
pub fn encode_plan(plan: &DistributedPlan) -> Vec<u8> {
    let mut enc = Encoder::new();
    put_gmdj_expr(&mut enc, &plan.expr);
    put_strings(&mut enc, &plan.key);
    enc.put_u32(plan.stages.len() as u32);
    for s in &plan.stages {
        enc.put_str(&s.label);
        match &s.kind {
            StageKind::Base => enc.put_u8(0),
            StageKind::Unit(u) => {
                enc.put_u8(1);
                put_unit(&mut enc, u);
            }
        }
    }
    enc.finish()
}

/// Decode a distributed plan, requiring full consumption.
pub fn decode_plan(bytes: &[u8]) -> Result<DistributedPlan> {
    let mut dec = Decoder::new(bytes);
    let expr = get_gmdj_expr(&mut dec)?;
    let key = get_strings(&mut dec)?;
    let n_stages = dec.get_u32()? as usize;
    let mut stages = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        let label = dec.get_str()?;
        let kind = match dec.get_u8()? {
            0 => StageKind::Base,
            1 => StageKind::Unit(get_unit(&mut dec)?),
            t => return Err(Error::Codec(format!("bad stage tag {t}"))),
        };
        stages.push(Stage { label, kind });
    }
    if dec.remaining() != 0 {
        return Err(Error::Codec(format!(
            "{} trailing bytes after plan",
            dec.remaining()
        )));
    }
    Ok(DistributedPlan { expr, key, stages })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionInfo;
    use crate::plan::{OptFlags, Planner};
    use skalla_gmdj::prelude::*;
    use skalla_relation::{Domain, DomainMap};

    fn planner_with_knowledge() -> Planner {
        let mut d = DistributionInfo::new(3);
        d.set_table(
            "t",
            (0..3)
                .map(|i| DomainMap::new().with("g", Domain::IntRange(10 * i, 10 * i + 9)))
                .collect(),
        );
        Planner::new(d)
    }

    fn expr() -> GmdjExpr {
        GmdjExprBuilder::distinct_base("t", &["g"])
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::count("c"), AggSpec::avg("v", "a")],
            ))
            .gmdj(
                Gmdj::new("t").block(
                    ThetaBuilder::group_by(&["g"])
                        .and(Expr::dcol("v").ge(Expr::bcol("a")))
                        .build(),
                    vec![AggSpec::count("above")],
                ),
            )
            .build()
    }

    #[test]
    fn plans_round_trip_under_every_flag_set() {
        let planner = planner_with_knowledge();
        for bits in 0..16u32 {
            let flags = OptFlags {
                coalesce: bits & 1 != 0,
                group_reduction_site: bits & 2 != 0,
                group_reduction_coord: bits & 4 != 0,
                sync_reduction: bits & 8 != 0,
            };
            let plan = planner.optimize(&expr(), flags);
            let bytes = encode_plan(&plan);
            let back = decode_plan(&bytes).unwrap_or_else(|e| panic!("{flags:?}: {e}"));
            assert_eq!(back, plan, "{flags:?}");
        }
    }

    #[test]
    fn plan_with_options_round_trips() {
        let plan = planner_with_knowledge().optimize(&expr(), OptFlags::all());
        for opts in [
            EvalOptions::default(),
            EvalOptions {
                parallelism: 7,
                morsel_rows: 256,
            },
        ] {
            let bytes = encode_plan_with_options(&plan, &opts);
            // The option block is 8 bytes (ARCHITECTURE.md, `PLAN` row).
            assert_eq!(bytes.len(), 8 + encode_plan(&plan).len());
            assert_eq!(decode_plan_with_options(&bytes).unwrap(), (plan.clone(), opts));
        }
    }

    #[test]
    fn truncation_rejected() {
        let plan = planner_with_knowledge().optimize(&expr(), OptFlags::all());
        let bytes = encode_plan(&plan);
        assert!(decode_plan(&bytes[..bytes.len() / 2]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_plan(&padded).is_err());
    }

    #[test]
    fn plan_size_is_small() {
        let plan = planner_with_knowledge().optimize(&expr(), OptFlags::all());
        let bytes = encode_plan(&plan);
        assert!(
            bytes.len() < 4096,
            "plans should be tiny, got {} bytes",
            bytes.len()
        );
    }
}
