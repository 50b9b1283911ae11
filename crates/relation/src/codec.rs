//! Binary codec for values, rows, schemas and relations.
//!
//! Everything shipped between sites and the coordinator passes through this
//! codec, so the network layer's byte accounting reflects real serialized
//! sizes — the quantity the paper's Figure 2 (right) plots and that
//! Theorem 2 bounds. The format is a simple length-prefixed tag encoding
//! (little-endian), independent of platform.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::row::Row;
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_STR: u8 = 3;

/// A byte sink with primitive writers.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// An encoder pre-sized for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Encoder {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Finish, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian i64.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian f64.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a value.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(TAG_NULL),
            Value::Int(i) => {
                self.put_u8(TAG_INT);
                self.put_i64(*i);
            }
            Value::Double(d) => {
                self.put_u8(TAG_DOUBLE);
                self.put_f64(*d);
            }
            Value::Str(s) => {
                self.put_u8(TAG_STR);
                self.put_str(s);
            }
        }
    }

    /// Write a row (the reader must know the arity from the schema).
    pub fn put_row(&mut self, row: &Row) {
        for v in row.values() {
            self.put_value(v);
        }
    }

    /// Write a schema.
    pub fn put_schema(&mut self, schema: &Schema) {
        self.put_u32(schema.len() as u32);
        for f in schema.fields() {
            self.put_str(f.name());
            self.put_u8(match f.data_type() {
                DataType::Int => TAG_INT,
                DataType::Double => TAG_DOUBLE,
                DataType::Str => TAG_STR,
            });
        }
    }

    /// Write a whole relation (schema + row count + rows).
    pub fn put_relation(&mut self, rel: &Relation) {
        self.put_schema(rel.schema());
        self.put_u32(rel.len() as u32);
        for row in rel {
            self.put_row(row);
        }
    }

    /// Write the projection of `rel` onto the columns at `cols` as
    /// [`Encoder::put_relation`] writes it, without building it.
    pub fn put_relation_columns(&mut self, rel: &Relation, cols: &[usize]) -> Result<()> {
        self.put_schema(&rel.schema().project(cols)?);
        self.put_u32(rel.len() as u32);
        for row in rel {
            for &c in cols {
                self.put_value(row.get(c));
            }
        }
        Ok(())
    }
}

/// A byte source with primitive readers.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Codec(format!(
                "unexpected end of input: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian i64.
    pub fn get_i64(&mut self) -> Result<i64> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a little-endian f64.
    pub fn get_f64(&mut self) -> Result<f64> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let n = self.get_u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|e| Error::Codec(format!("invalid utf-8: {e}")))
    }

    /// Read a value.
    pub fn get_value(&mut self) -> Result<Value> {
        match self.get_u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_INT => Ok(Value::Int(self.get_i64()?)),
            TAG_DOUBLE => Ok(Value::Double(self.get_f64()?)),
            TAG_STR => Ok(Value::str(self.get_str()?)),
            t => Err(Error::Codec(format!("bad value tag {t}"))),
        }
    }

    /// Read a row of `arity` values.
    pub fn get_row(&mut self, arity: usize) -> Result<Row> {
        // Capacity capped by the bytes actually left, so a corrupt count
        // can't balloon the allocation before the decode fails.
        let mut vs = Vec::with_capacity(arity.min(self.remaining()));
        self.get_row_into(arity, &mut vs)?;
        Ok(Row::new(vs))
    }

    /// Read a row of `arity` values into `out`, replacing what it held: a
    /// buffer the caller reuses, so a row allocates nothing of its own.
    pub fn get_row_into(&mut self, arity: usize, out: &mut Vec<Value>) -> Result<()> {
        out.clear();
        for _ in 0..arity {
            out.push(self.get_value()?);
        }
        Ok(())
    }

    /// Read a schema.
    pub fn get_schema(&mut self) -> Result<Schema> {
        let n = self.get_u32()? as usize;
        let mut fields = Vec::with_capacity(n.min(self.remaining()));
        for _ in 0..n {
            let name = self.get_str()?;
            let ty = match self.get_u8()? {
                TAG_INT => DataType::Int,
                TAG_DOUBLE => DataType::Double,
                TAG_STR => DataType::Str,
                t => return Err(Error::Codec(format!("bad type tag {t}"))),
            };
            fields.push(Field::new(name, ty));
        }
        Schema::new(fields)
    }

    /// Read a relation.
    pub fn get_relation(&mut self) -> Result<Relation> {
        let schema = self.get_schema()?;
        let n = self.get_u32()? as usize;
        let arity = schema.len();
        let mut rows = Vec::with_capacity(n.min(self.remaining()));
        for _ in 0..n {
            rows.push(self.get_row(arity)?);
        }
        Relation::new(schema, rows)
    }
}

const EXPR_COL: u8 = 0;
const EXPR_LIT: u8 = 1;
const EXPR_CMP: u8 = 2;
const EXPR_ARITH: u8 = 3;
const EXPR_AND: u8 = 4;
const EXPR_OR: u8 = 5;
const EXPR_NOT: u8 = 6;
const EXPR_IN: u8 = 7;
const EXPR_TRUE: u8 = 8;

impl Encoder {
    /// Write an expression tree.
    pub fn put_expr(&mut self, e: &crate::Expr) {
        use crate::{ArithOp, CmpOp, Expr, Side};
        match e {
            Expr::Col(side, name) => {
                self.put_u8(EXPR_COL);
                self.put_u8(matches!(side, Side::Detail) as u8);
                self.put_str(name);
            }
            Expr::Lit(v) => {
                self.put_u8(EXPR_LIT);
                self.put_value(v);
            }
            Expr::Cmp(op, a, b) => {
                self.put_u8(EXPR_CMP);
                self.put_u8(match op {
                    CmpOp::Eq => 0,
                    CmpOp::Ne => 1,
                    CmpOp::Lt => 2,
                    CmpOp::Le => 3,
                    CmpOp::Gt => 4,
                    CmpOp::Ge => 5,
                });
                self.put_expr(a);
                self.put_expr(b);
            }
            Expr::Arith(op, a, b) => {
                self.put_u8(EXPR_ARITH);
                self.put_u8(match op {
                    ArithOp::Add => 0,
                    ArithOp::Sub => 1,
                    ArithOp::Mul => 2,
                    ArithOp::Div => 3,
                    ArithOp::Mod => 4,
                });
                self.put_expr(a);
                self.put_expr(b);
            }
            Expr::And(a, b) => {
                self.put_u8(EXPR_AND);
                self.put_expr(a);
                self.put_expr(b);
            }
            Expr::Or(a, b) => {
                self.put_u8(EXPR_OR);
                self.put_expr(a);
                self.put_expr(b);
            }
            Expr::Not(a) => {
                self.put_u8(EXPR_NOT);
                self.put_expr(a);
            }
            Expr::InList(a, vs) => {
                self.put_u8(EXPR_IN);
                self.put_expr(a);
                self.put_u32(vs.len() as u32);
                for v in vs {
                    self.put_value(v);
                }
            }
            Expr::True => self.put_u8(EXPR_TRUE),
        }
    }
}

impl Decoder<'_> {
    /// Read an expression tree.
    pub fn get_expr(&mut self) -> Result<crate::Expr> {
        use crate::{ArithOp, CmpOp, Expr, Side};
        Ok(match self.get_u8()? {
            EXPR_COL => {
                let side = if self.get_u8()? == 1 {
                    Side::Detail
                } else {
                    Side::Base
                };
                Expr::Col(side, self.get_str()?)
            }
            EXPR_LIT => Expr::Lit(self.get_value()?),
            EXPR_CMP => {
                let op = match self.get_u8()? {
                    0 => CmpOp::Eq,
                    1 => CmpOp::Ne,
                    2 => CmpOp::Lt,
                    3 => CmpOp::Le,
                    4 => CmpOp::Gt,
                    5 => CmpOp::Ge,
                    t => return Err(Error::Codec(format!("bad cmp op {t}"))),
                };
                Expr::Cmp(op, Box::new(self.get_expr()?), Box::new(self.get_expr()?))
            }
            EXPR_ARITH => {
                let op = match self.get_u8()? {
                    0 => ArithOp::Add,
                    1 => ArithOp::Sub,
                    2 => ArithOp::Mul,
                    3 => ArithOp::Div,
                    4 => ArithOp::Mod,
                    t => return Err(Error::Codec(format!("bad arith op {t}"))),
                };
                Expr::Arith(op, Box::new(self.get_expr()?), Box::new(self.get_expr()?))
            }
            EXPR_AND => Expr::And(Box::new(self.get_expr()?), Box::new(self.get_expr()?)),
            EXPR_OR => Expr::Or(Box::new(self.get_expr()?), Box::new(self.get_expr()?)),
            EXPR_NOT => Expr::Not(Box::new(self.get_expr()?)),
            EXPR_IN => {
                let inner = self.get_expr()?;
                let n = self.get_u32()? as usize;
                let mut vs = Vec::with_capacity(n.min(self.remaining()));
                for _ in 0..n {
                    vs.push(self.get_value()?);
                }
                Expr::InList(Box::new(inner), vs)
            }
            EXPR_TRUE => Expr::True,
            t => Err(Error::Codec(format!("bad expr tag {t}")))?,
        })
    }
}

/// Encode a relation to bytes.
pub fn encode_relation(rel: &Relation) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(rel.encoded_size());
    enc.put_relation(rel);
    enc.finish()
}

/// Decode a relation from bytes, requiring full consumption.
pub fn decode_relation(bytes: &[u8]) -> Result<Relation> {
    let mut dec = Decoder::new(bytes);
    let rel = dec.get_relation()?;
    if dec.remaining() != 0 {
        return Err(Error::Codec(format!(
            "{} trailing bytes after relation",
            dec.remaining()
        )));
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn sample() -> Relation {
        Relation::new(
            Schema::of(&[
                ("k", DataType::Int),
                ("name", DataType::Str),
                ("x", DataType::Double),
            ]),
            vec![
                row![1i64, "alpha", 1.5],
                Row::new(vec![Value::Int(-7), Value::Null, Value::Double(f64::MAX)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn relation_round_trip() {
        let r = sample();
        let bytes = encode_relation(&r);
        let back = decode_relation(&bytes).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn value_round_trip_all_kinds() {
        for v in [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Double(-0.0),
            Value::str("héllo"),
            Value::str(""),
        ] {
            let mut e = Encoder::new();
            e.put_value(&v);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            assert_eq!(d.get_value().unwrap(), v);
            assert_eq!(d.remaining(), 0);
        }
    }

    #[test]
    fn truncated_input_fails() {
        let bytes = encode_relation(&sample());
        for cut in [0usize, 1, 5, bytes.len() - 1] {
            assert!(decode_relation(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_garbage_fails() {
        let mut bytes = encode_relation(&sample());
        bytes.push(0);
        assert!(decode_relation(&bytes).is_err());
    }

    #[test]
    fn bad_tag_fails() {
        let mut d = Decoder::new(&[9u8]);
        assert!(d.get_value().is_err());
    }

    #[test]
    fn encoded_size_estimate_close_to_actual() {
        let r = sample();
        let actual = encode_relation(&r).len();
        let estimate = r.encoded_size();
        // The estimate is used for accounting; keep it within 20%.
        let diff = (actual as f64 - estimate as f64).abs() / actual as f64;
        assert!(diff < 0.2, "estimate {estimate} vs actual {actual}");
    }

    #[test]
    fn expr_round_trip() {
        use crate::{Expr, Side};
        let exprs = [
            Expr::True,
            Expr::bcol("sas").eq(Expr::dcol("sas")),
            Expr::dcol("nb")
                .ge(Expr::bcol("sum1").div(Expr::bcol("cnt1")))
                .and(Expr::dcol("p").in_list(vec![Value::Int(80), Value::str("x")]))
                .or(Expr::bcol("g").add(Expr::lit(2i64)).lt(Expr::lit(5.5)).not()),
            crate::parse_expr("b.a * 3 % 2 - 1 <> r.b", Side::Base).unwrap(),
        ];
        for e in exprs {
            let mut enc = Encoder::new();
            enc.put_expr(&e);
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(dec.get_expr().unwrap(), e);
            assert_eq!(dec.remaining(), 0);
        }
    }

    #[test]
    fn expr_bad_tags_rejected() {
        for bytes in [[99u8].as_slice(), &[2, 9], &[3, 9]] {
            assert!(Decoder::new(bytes).get_expr().is_err());
        }
    }

    #[test]
    fn empty_relation_round_trip() {
        let r = Relation::empty(Schema::of(&[("a", DataType::Int)]));
        assert_eq!(decode_relation(&encode_relation(&r)).unwrap(), r);
    }
}
