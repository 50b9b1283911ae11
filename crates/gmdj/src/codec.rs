//! Binary codec for GMDJ algebra objects.
//!
//! Extends the `skalla-relation` codec to aggregate specs, operators and
//! complex GMDJ expressions, so distributed plans can travel in-band over
//! the accounted transport instead of being shared out-of-band.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::agg::{AggFunc, AggSpec};
use crate::chain::{BaseQuery, GmdjExpr};
use crate::operator::{Gmdj, GmdjBlock};
use skalla_relation::codec::{Decoder, Encoder};
use skalla_relation::{Error, Result};

fn agg_func_tag(f: AggFunc) -> u8 {
    match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Min => 2,
        AggFunc::Max => 3,
        AggFunc::Avg => 4,
        AggFunc::Var => 5,
        AggFunc::StdDev => 6,
    }
}

fn agg_func_from(tag: u8) -> Result<AggFunc> {
    Ok(match tag {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Min,
        3 => AggFunc::Max,
        4 => AggFunc::Avg,
        5 => AggFunc::Var,
        6 => AggFunc::StdDev,
        t => return Err(Error::Codec(format!("bad aggregate function tag {t}"))),
    })
}

/// Write an aggregate spec.
pub fn put_agg_spec(enc: &mut Encoder, a: &AggSpec) {
    enc.put_u8(agg_func_tag(a.func));
    match &a.input {
        Some(e) => {
            enc.put_u8(1);
            enc.put_expr(e);
        }
        None => enc.put_u8(0),
    }
    enc.put_str(&a.name);
}

/// Read an aggregate spec.
pub fn get_agg_spec(dec: &mut Decoder<'_>) -> Result<AggSpec> {
    let func = agg_func_from(dec.get_u8()?)?;
    let input = match dec.get_u8()? {
        0 => None,
        1 => Some(dec.get_expr()?),
        t => return Err(Error::Codec(format!("bad input flag {t}"))),
    };
    Ok(AggSpec {
        func,
        input,
        name: dec.get_str()?,
    })
}

/// Write a GMDJ operator.
pub fn put_gmdj(enc: &mut Encoder, op: &Gmdj) {
    enc.put_str(&op.detail);
    enc.put_u32(op.blocks.len() as u32);
    for b in &op.blocks {
        enc.put_expr(&b.theta);
        enc.put_u32(b.aggs.len() as u32);
        for a in &b.aggs {
            put_agg_spec(enc, a);
        }
    }
}

/// Read a GMDJ operator.
pub fn get_gmdj(dec: &mut Decoder<'_>) -> Result<Gmdj> {
    let detail = dec.get_str()?;
    let n_blocks = dec.get_u32()? as usize;
    let mut blocks = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        let theta = dec.get_expr()?;
        let n_aggs = dec.get_u32()? as usize;
        let mut aggs = Vec::with_capacity(n_aggs);
        for _ in 0..n_aggs {
            aggs.push(get_agg_spec(dec)?);
        }
        blocks.push(GmdjBlock { theta, aggs });
    }
    Ok(Gmdj { detail, blocks })
}

/// Write a base query.
pub fn put_base_query(enc: &mut Encoder, b: &BaseQuery) {
    match b {
        BaseQuery::DistinctProject { table, columns } => {
            enc.put_u8(0);
            enc.put_str(table);
            enc.put_u32(columns.len() as u32);
            for c in columns {
                enc.put_str(c);
            }
        }
        BaseQuery::Literal(rel) => {
            enc.put_u8(1);
            enc.put_relation(rel);
        }
    }
}

/// Read a base query.
pub fn get_base_query(dec: &mut Decoder<'_>) -> Result<BaseQuery> {
    Ok(match dec.get_u8()? {
        0 => {
            let table = dec.get_str()?;
            let n = dec.get_u32()? as usize;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                columns.push(dec.get_str()?);
            }
            BaseQuery::DistinctProject { table, columns }
        }
        1 => BaseQuery::Literal(dec.get_relation()?),
        t => return Err(Error::Codec(format!("bad base query tag {t}"))),
    })
}

/// Write a complex GMDJ expression.
pub fn put_gmdj_expr(enc: &mut Encoder, e: &GmdjExpr) {
    put_base_query(enc, &e.base);
    match &e.key {
        Some(key) => {
            enc.put_u8(1);
            enc.put_u32(key.len() as u32);
            for k in key {
                enc.put_str(k);
            }
        }
        None => enc.put_u8(0),
    }
    enc.put_u32(e.ops.len() as u32);
    for op in &e.ops {
        put_gmdj(enc, op);
    }
}

/// Read a complex GMDJ expression.
pub fn get_gmdj_expr(dec: &mut Decoder<'_>) -> Result<GmdjExpr> {
    let base = get_base_query(dec)?;
    let key = match dec.get_u8()? {
        0 => None,
        1 => {
            let n = dec.get_u32()? as usize;
            let mut key = Vec::with_capacity(n);
            for _ in 0..n {
                key.push(dec.get_str()?);
            }
            Some(key)
        }
        t => return Err(Error::Codec(format!("bad key flag {t}"))),
    };
    let n_ops = dec.get_u32()? as usize;
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        ops.push(get_gmdj(dec)?);
    }
    Ok(GmdjExpr { base, key, ops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::GmdjExprBuilder;
    use crate::theta::ThetaBuilder;
    use skalla_relation::{row, DataType, Expr, Relation, Schema};

    fn sample_expr() -> GmdjExpr {
        GmdjExprBuilder::distinct_base("flow", &["sas", "das"])
            .key(&["sas", "das"])
            .gmdj(
                Gmdj::new("flow")
                    .block(
                        ThetaBuilder::group_by(&["sas", "das"]).build(),
                        vec![
                            AggSpec::count("cnt1"),
                            AggSpec::avg("nb", "avg1"),
                            AggSpec::var("nb", "var1"),
                        ],
                    )
                    .block(
                        ThetaBuilder::group_by(&["sas"])
                            .and(Expr::dcol("port").in_list(vec![80i64.into()]))
                            .build(),
                        vec![AggSpec::over_expr(
                            AggFunc::Sum,
                            Expr::dcol("nb").mul(Expr::lit(8i64)),
                            "bits",
                        )],
                    ),
            )
            .gmdj(Gmdj::new("flow").block(
                ThetaBuilder::group_by(&["sas", "das"])
                    .and_detail_ge_base_expr("nb", "avg1")
                    .unwrap()
                    .build(),
                vec![AggSpec::count("cnt2")],
            ))
            .build()
    }

    #[test]
    fn gmdj_expr_round_trip() {
        let e = sample_expr();
        let mut enc = Encoder::new();
        put_gmdj_expr(&mut enc, &e);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(get_gmdj_expr(&mut dec).unwrap(), e);
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn literal_base_round_trip() {
        let base = Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            vec![row![1i64], row![2i64]],
        )
        .unwrap();
        let e = GmdjExprBuilder::literal_base(base)
            .gmdj(Gmdj::new("t").block(
                ThetaBuilder::group_by(&["g"]).build(),
                vec![AggSpec::min("v", "m")],
            ))
            .build();
        let mut enc = Encoder::new();
        put_gmdj_expr(&mut enc, &e);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(get_gmdj_expr(&mut dec).unwrap(), e);
    }

    #[test]
    fn all_agg_funcs_round_trip() {
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::Var,
            AggFunc::StdDev,
        ] {
            let a = if f == AggFunc::Count {
                AggSpec::count("c")
            } else {
                AggSpec::over_expr(f, Expr::dcol("v"), "x")
            };
            let mut enc = Encoder::new();
            put_agg_spec(&mut enc, &a);
            let bytes = enc.finish();
            assert_eq!(get_agg_spec(&mut Decoder::new(&bytes)).unwrap(), a);
        }
    }

    #[test]
    fn malformed_rejected() {
        assert!(get_agg_spec(&mut Decoder::new(&[9])).is_err());
        assert!(get_base_query(&mut Decoder::new(&[7])).is_err());
        let mut enc = Encoder::new();
        put_gmdj_expr(&mut enc, &sample_expr());
        let bytes = enc.finish();
        assert!(get_gmdj_expr(&mut Decoder::new(&bytes[..bytes.len() - 1])).is_err());
    }
}
