//! Binary codec for values, schemas, relations and expressions.
//!
//! Everything shipped between sites and the coordinator passes through this
//! codec, so the network layer's byte accounting reflects real serialized
//! sizes — the quantity the paper's Figure 2 (right) plots and that
//! Theorem 2 bounds. The format is length-prefixed and little-endian,
//! independent of platform.
//!
//! A relation travels as its schema, its row count and then its columns
//! ([`Column`]), each column on its own: one encoding byte, a validity
//! bitmap (`rows.div_ceil(8)` bytes, bit `i` set for a non-`NULL` row
//! `i`) only when the column holds a `NULL`, and then the non-`NULL`
//! rows' values in row order:
//!
//! * `Double`: one contiguous run of 8-byte words (exact bits, so `-0.0`
//!   and `NaN` payloads survive);
//! * `Int`: the same raw run, or — whichever is smaller, raw on a tie —
//!   frame-of-reference bit-packed: the values' minimum as an 8-byte
//!   word, one width byte `w` in `1..=64`, then each value's offset from
//!   the minimum in `w` bits, LSB-first, the last byte's unused bits
//!   clear. `w` is the offsets' bit length, but at least 1, so an
//!   all-equal column still takes a bit per row. The decoder refuses a
//!   width out of range, a short run, set padding bits, and an offset
//!   that carries the minimum past `i64`, so no value wraps into another;
//!   it does not insist on the encoder's choices (the least width, a
//!   minimum some row holds, packed only when smaller), which keep the
//!   encoder's own frames byte-deterministic;
//! * `Int` with no `NULL` whose values never decrease (a sorted key):
//!   also delta-coded (encoding byte 7) when that is strictly smaller
//!   than both of the above — the first value as an 8-byte word, then the
//!   gaps between neighbours packed as byte 6 packs values (the gaps'
//!   minimum, a width byte, each gap's offset from that minimum). The
//!   decoder refuses it with a validity bitmap, a short run, set padding
//!   bits, and a gap or a running sum past `i64` (Lemire & Boytsov, SPE
//!   2015; Abadi et al., SIGMOD 2006);
//! * `Str`: a dictionary (its length, then each string length-prefixed)
//!   and one code per row, 1, 2 or 4 bytes wide as the dictionary needs —
//!   or the strings themselves, length-prefixed, whichever is smaller.
//!
//! A column is of its field's type, so its encoding byte is too: the
//! decoder refuses a column encoded as another type than its field
//! declares. No column is written for an empty relation. A column's body
//! is never larger than one tagged cell per row ([`Encoder::put_value`])
//! would be, but for one byte in a one-row column holding `NULL`.

// No wall clock and no hash-order iteration here (docs/STATIC_ANALYSIS.md).
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::columns::{Bitmap, Column, Columns};
use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_STR: u8 = 3;

/// Column encodings: the byte that leads each column of a relation body.
const COL_INT: u8 = 1;
const COL_DOUBLE: u8 = 2;
const COL_STR_DICT: u8 = 3;
const COL_STR_PLAIN: u8 = 4;
/// A bit-packed `Int` column (5 was the retired tagged-cell column).
const COL_INT_PACKED: u8 = 6;
/// A delta-coded `Int` column: no `NULL`, values never decreasing.
const COL_INT_DELTA: u8 = 7;
/// Or-ed into a column's encoding byte: a validity bitmap follows.
const COL_NULLS: u8 = 0x80;

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

    /// Write `bytes` as they are.
    pub fn put_bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
        self.buf.extend(bytes);
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

    /// Write a whole relation: its schema, then its body
    /// ([`Encoder::put_columns`] over every column).
    pub fn put_relation(&mut self, rel: &Relation) {
        self.put_schema(rel.schema());
        let cols: Vec<&Column> = (0..rel.schema().len()).map(|c| rel.column(c)).collect();
        self.put_columns(rel.len(), &cols);
    }

    /// Write a relation body: the row count `len`, then each of `cols`
    /// (`len` rows each) in the layout the module docs give. The body's
    /// exact size is reserved up front, with the slack a packed run is
    /// written through, so the caller need not size the encoder for it.
    pub fn put_columns(&mut self, len: usize, cols: &[&Column]) {
        self.put_u32(len as u32);
        if len == 0 {
            return;
        }
        let forms: Vec<_> = cols.iter().map(|c| column_form(c)).collect();
        self.buf.reserve(forms.iter().map(|f| f.1).sum::<usize>() + 16);
        for (col, form) in cols.iter().zip(forms) {
            self.put_column(col, form);
        }
    }

    fn put_column(&mut self, col: &Column, (enc, _, packing): (u8, usize, Option<Packing>)) {
        self.put_u8(enc);
        let valid = valid_bits(col);
        if let Some(b) = valid {
            self.buf.extend(b.to_le_bytes());
        }
        let rows = || (0..col.len()).filter(|&i| valid.is_none_or(|b| b.get(i)));
        match col {
            Column::Int { data, .. } if let Some(Packing { min, width }) = packing => {
                if enc == COL_INT_DELTA {
                    // The first value, then the gaps packed from their minimum.
                    self.put_i64(data[0]);
                }
                self.put_i64(min);
                self.put_u8(width as u8);
                let offset = |v: i64| v.wrapping_sub(min) as u64;
                match valid {
                    _ if enc == COL_INT_DELTA => {
                        let gaps = data.windows(2).map(|w| offset(w[1].wrapping_sub(w[0])));
                        self.put_packed(gaps, data.len() - 1, width)
                    }
                    None => self.put_packed(data.iter().map(|&v| offset(v)), data.len(), width),
                    Some(b) => self.put_packed(rows().map(|i| offset(data[i])), b.count_ones(), width),
                }
            }
            Column::Int { data, .. } if valid.is_none() => self.put_words(data, i64::to_le_bytes),
            Column::Double { data, .. } if valid.is_none() => self.put_words(data, f64::to_le_bytes),
            Column::Int { data, .. } => {
                for i in rows() {
                    self.put_i64(data[i]);
                }
            }
            Column::Double { data, .. } => {
                for i in rows() {
                    self.put_f64(data[i]);
                }
            }
            Column::Str { codes, dict, .. } if enc & !COL_NULLS == COL_STR_DICT => {
                self.put_u32(dict.len() as u32);
                for s in dict {
                    self.put_str(s);
                }
                let width = code_width(dict.len());
                for i in rows() {
                    self.buf.extend_from_slice(&codes[i].to_le_bytes()[..width]);
                }
            }
            Column::Str { codes, dict, .. } => {
                for i in rows() {
                    self.put_str(&dict[codes[i] as usize]);
                }
            }
        }
    }

    /// Write every one of `data`'s 8-byte words, little-endian, as one
    /// run: the buffer grows once and each word is copied into its slot.
    fn put_words<T: Copy>(&mut self, data: &[T], le: impl Fn(T) -> [u8; 8]) {
        let start = self.buf.len();
        self.buf.resize(start + 8 * data.len(), 0);
        for (slot, &v) in self.buf[start..].chunks_exact_mut(8).zip(data) {
            slot.copy_from_slice(&le(v));
        }
    }

    /// Write `n` offsets, each below `2^width`, LSB-first in `width` bits
    /// apiece: `(n * width).div_ceil(8)` bytes. Each offset is or-ed into
    /// the one or two 64-bit words of the run its bits fall in, straight
    /// in the buffer and with no branch; the zero bytes past the run that
    /// the last word reaches (under 16) are cut off after.
    fn put_packed(&mut self, offsets: impl Iterator<Item = u64>, n: usize, width: usize) {
        let bits = n * width;
        let start = self.buf.len();
        self.buf.resize(start + 8 * (bits.div_ceil(64) + 1), 0);
        let run = &mut self.buf[start..];
        for (i, off) in offsets.enumerate() {
            let (k, s) = (8 * (i * width / 64), i * width % 64);
            let word = u64::from_le_bytes(le_word(&run[k..k + 8])) | off << s;
            run[k..k + 8].copy_from_slice(&word.to_le_bytes());
            // The bits past word k (none when s is 0: two shifts, as
            // `off >> 64` would overflow). No earlier offset reaches the
            // next word, so they are its first.
            run[k + 8..k + 16].copy_from_slice(&(off >> 1 >> (63 - s)).to_le_bytes());
        }
        self.buf.truncate(start + bits.div_ceil(8));
    }
}

/// The validity bitmap a column writes: its own, when it marks a `NULL`.
fn valid_bits(col: &Column) -> Option<&Bitmap> {
    col.validity().filter(|b| !b.all_set())
}

/// Bytes per dictionary code for a dictionary of `n` strings.
fn code_width(n: usize) -> usize {
    match n {
        0..=0x100 => 1,
        0x101..=0x1_0000 => 2,
        _ => 4,
    }
}

/// A packed `Int` column's frame of reference: its non-`NULL` values'
/// minimum, and the bits each offset from it takes — or, delta-coded, its
/// gaps' minimum (the word's bits) and the bits each gap's offset takes.
#[derive(Debug, Clone, Copy)]
struct Packing {
    min: i64,
    width: usize,
}

/// The bits `span` takes, but at least 1.
fn bit_width(span: u64) -> usize {
    (u64::BITS - span.leading_zeros()).max(1) as usize
}

impl Packing {
    /// The packing of the gaps between `data`'s neighbours; `None` unless
    /// there are two values or more and none is below the one before it.
    /// Each gap is exact as a `u64`.
    fn of_gaps(data: &[i64]) -> Option<Packing> {
        let (mut lo, mut hi) = (u64::MAX, 0);
        for w in data.windows(2) {
            if w[1] < w[0] {
                return None;
            }
            let gap = w[1].wrapping_sub(w[0]) as u64;
            (lo, hi) = (lo.min(gap), hi.max(gap));
        }
        (data.len() > 1).then(|| Packing { min: lo as i64, width: bit_width(hi - lo) })
    }

    /// The packing of `data`'s rows that `valid` marks (every row when
    /// `None`); `None` when there are none.
    fn of(data: &[i64], valid: Option<&Bitmap>) -> Option<Packing> {
        let span = |(lo, hi): (i64, i64), &v: &i64| (lo.min(v), hi.max(v));
        let (min, max) = match valid {
            None => data.iter().fold((i64::MAX, i64::MIN), span),
            Some(b) => (data.iter().enumerate())
                .filter(|&(i, _)| b.get(i))
                .map(|(_, v)| v)
                .fold((i64::MAX, i64::MIN), span),
        };
        (min <= max).then(|| Packing { min, width: bit_width(max.wrapping_sub(min) as u64) })
    }

    /// The packed body of `n` values: minimum, width byte and run.
    fn size(self, n: usize) -> usize {
        8 + 1 + (n * self.width).div_ceil(8)
    }
}

/// How a non-empty column is written: its encoding byte, its size in
/// bytes with that byte, and the frame of reference of a packed or
/// delta-coded `Int` column. An `Int` column is packed only when that is
/// smaller than its raw run, and delta-coded only when that is smaller
/// still; a `Str` column takes the smaller of dictionary and plain
/// strings.
fn column_form(col: &Column) -> (u8, usize, Option<Packing>) {
    let n = col.len();
    let valid = valid_bits(col);
    let (nulls, bitmap) = match valid {
        Some(_) => (COL_NULLS, n.div_ceil(8)),
        None => (0, 0),
    };
    let n_valid = valid.map_or(n, Bitmap::count_ones);
    let raw = 8 * n_valid;
    match col {
        Column::Int { data, .. } => {
            let packed = Packing::of(data, valid).filter(|p| p.size(n_valid) < raw);
            let best = packed.map_or(raw, |p| p.size(n_valid));
            let delta = valid.is_none().then(|| Packing::of_gaps(data)).flatten();
            match (delta.filter(|d| 8 + d.size(n - 1) < best), packed) {
                (Some(d), _) => (COL_INT_DELTA, 1 + 8 + d.size(n - 1), Some(d)),
                (None, Some(p)) => (COL_INT_PACKED | nulls, 1 + bitmap + best, Some(p)),
                (None, None) => (COL_INT | nulls, 1 + bitmap + raw, None),
            }
        }
        Column::Double { .. } => (COL_DOUBLE | nulls, 1 + bitmap + raw, None),
        Column::Str { codes, dict, .. } => {
            let in_dict = 4
                + dict.iter().map(|s| 4 + s.len()).sum::<usize>()
                + code_width(dict.len()) * n_valid;
            let plain: usize = (0..n)
                .filter(|&i| valid.is_none_or(|b| b.get(i)))
                .map(|i| 4 + dict[codes[i] as usize].len())
                .sum();
            if in_dict < plain {
                (COL_STR_DICT | nulls, 1 + bitmap + in_dict, None)
            } else {
                (COL_STR_PLAIN | nulls, 1 + bitmap + plain, None)
            }
        }
    }
}

/// The exact size of the body [`Encoder::put_columns`] writes for `len`
/// rows of `cols`.
pub fn body_size<'a>(len: usize, cols: impl IntoIterator<Item = &'a Column>) -> usize {
    match len {
        0 => 4,
        _ => 4 + cols.into_iter().map(|c| column_form(c).1).sum::<usize>(),
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

    /// Read the next `n` bytes as they are.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
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

    /// Read a length-prefixed UTF-8 string, borrowed from the input.
    fn get_str_ref(&mut self) -> Result<&'a str> {
        let n = self.get_u32()? as usize;
        let b = self.take(n)?;
        std::str::from_utf8(b).map_err(|e| Error::Codec(format!("invalid utf-8: {e}")))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        self.get_str_ref().map(str::to_string)
    }

    /// Read a value.
    pub fn get_value(&mut self) -> Result<Value> {
        match self.get_u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_INT => Ok(Value::Int(self.get_i64()?)),
            TAG_DOUBLE => Ok(Value::Double(self.get_f64()?)),
            TAG_STR => Ok(Value::Str(Arc::from(self.get_str_ref()?))),
            t => Err(Error::Codec(format!("bad value tag {t}"))),
        }
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

    /// Read a relation body of `schema`'s arity into its columns, as
    /// [`Encoder::put_columns`] wrote it. A row count the remaining bytes
    /// cannot hold fails before anything is allocated for it, and a column
    /// encoded as another type than its field fails before its body is
    /// read.
    pub fn get_columns(&mut self, schema: &Schema) -> Result<Columns> {
        let n = self.get_u32()? as usize;
        // Each column of a non-empty body takes its encoding byte and at
        // least one bit per row.
        if n > 0 && (1 + n.div_ceil(8)) * schema.len() > self.remaining() {
            return Err(Error::Codec(format!(
                "{n} rows of {} columns cannot fit in {} bytes",
                schema.len(),
                self.remaining()
            )));
        }
        let cols = schema
            .fields()
            .iter()
            .map(|f| match n {
                0 => Ok(Column::nulls(f.data_type(), 0)),
                _ => self.get_column(f, n),
            })
            .collect::<Result<_>>()?;
        Ok(Columns::new(n, cols))
    }

    fn get_column(&mut self, field: &Field, n: usize) -> Result<Column> {
        let enc = self.get_u8()?;
        let ty = match enc & !COL_NULLS {
            COL_INT | COL_INT_PACKED | COL_INT_DELTA => DataType::Int,
            COL_DOUBLE => DataType::Double,
            COL_STR_DICT | COL_STR_PLAIN => DataType::Str,
            _ => return Err(Error::Codec(format!("unknown column encoding {enc:#04x}"))),
        };
        if ty != field.data_type() {
            return Err(Error::Codec(format!(
                "a column encoded {ty} under {} field {}",
                field.data_type(),
                field.name()
            )));
        }
        if enc == COL_INT_DELTA | COL_NULLS {
            return Err(Error::Codec("a delta-coded column with a validity bitmap".into()));
        }
        let valid = match enc & COL_NULLS {
            0 => None,
            _ => Some(
                Bitmap::from_le_bytes(self.take(n.div_ceil(8))?, n).ok_or_else(|| {
                    Error::Codec("validity bitmap sets bits past the row count".into())
                })?,
            ),
        };
        let n_valid = valid.as_ref().map_or(n, Bitmap::count_ones);
        Ok(match enc & !COL_NULLS {
            COL_INT => {
                let run = self.take(8 * n_valid)?.chunks_exact(8);
                let data = scatter(run.map(le_word).map(i64::from_le_bytes), n, valid.as_ref());
                Column::Int { data, valid }
            }
            COL_INT_PACKED => {
                let data = self.get_packed(n, valid.as_ref(), n_valid)?;
                Column::Int { data, valid }
            }
            COL_INT_DELTA => Column::Int {
                data: self.get_delta(n)?,
                valid,
            },
            COL_DOUBLE => {
                let run = self.take(8 * n_valid)?.chunks_exact(8);
                let data = scatter(run.map(le_word).map(f64::from_le_bytes), n, valid.as_ref());
                Column::Double { data, valid }
            }
            COL_STR_DICT => {
                let k = self.get_u32()? as usize;
                if k > self.remaining() / 4 {
                    return Err(Error::Codec(format!(
                        "a dictionary of {k} strings cannot fit"
                    )));
                }
                let mut seen = HashSet::with_capacity(k);
                let mut dict: Vec<Arc<str>> = Vec::with_capacity(k);
                for _ in 0..k {
                    let s = self.get_str_ref()?;
                    if !seen.insert(s) {
                        return Err(Error::Codec(format!("dictionary repeats {s:?}")));
                    }
                    dict.push(Arc::from(s));
                }
                let width = code_width(k);
                let run = self.take(width * n_valid)?.chunks_exact(width);
                let codes: Vec<u32> = run
                    .map(|c| {
                        let mut le = [0u8; 4];
                        le[..width].copy_from_slice(c);
                        u32::from_le_bytes(le)
                    })
                    .collect();
                if let Some(&bad) = codes.iter().find(|&&c| c as usize >= k) {
                    return Err(Error::Codec(format!(
                        "dictionary code {bad} past a dictionary of {k}"
                    )));
                }
                let codes = scatter(codes.into_iter(), n, valid.as_ref());
                Column::Str { codes, dict, valid }
            }
            _ => {
                // COL_STR_PLAIN: every other byte was refused above.
                if 4 * n_valid > self.remaining() {
                    return Err(Error::Codec(format!("{n_valid} strings cannot fit")));
                }
                // Interned, so that the column's dictionary holds each
                // string once, as a relation's own columns do.
                let mut intern: HashMap<&str, u32> = HashMap::new();
                let mut dict: Vec<Arc<str>> = Vec::new();
                let mut codes = Vec::with_capacity(n_valid);
                for _ in 0..n_valid {
                    let s = self.get_str_ref()?;
                    codes.push(*intern.entry(s).or_insert_with(|| {
                        dict.push(Arc::from(s));
                        (dict.len() - 1) as u32
                    }));
                }
                let codes = scatter(codes.into_iter(), n, valid.as_ref());
                Column::Str { codes, dict, valid }
            }
        })
    }

    /// Read a packed run (minimum, width byte, offsets; see the module
    /// docs) of the `n_valid` rows `valid` marks among `n`. Each offset is
    /// read from the 16-byte window its bits start in, with no branch; a
    /// value past `i64` is flagged as it goes and refused once the run is
    /// read.
    fn get_packed(&mut self, n: usize, valid: Option<&Bitmap>, n_valid: usize) -> Result<Vec<i64>> {
        let min = self.get_i64()?;
        let run = self.get_offsets(n_valid)?;
        let mut overflow = false;
        let vals = (0..n_valid).map(|i| {
            let (v, over) = min.overflowing_add_unsigned(run.offset(i));
            overflow |= over;
            v
        });
        let data = scatter(vals, n, valid);
        match overflow {
            true => Err(Error::Codec(format!("packed offset carries {min} past i64"))),
            false => Ok(data),
        }
    }

    /// Read a delta-coded run of `n` values (first value, gaps' minimum,
    /// width byte, the `n - 1` gaps' offsets; see the module docs), each
    /// value its predecessor plus its gap. A gap or a running sum past
    /// `i64` is flagged as it goes and refused once the run is read.
    fn get_delta(&mut self, n: usize) -> Result<Vec<i64>> {
        let first = self.get_i64()?;
        let min = self.get_i64()? as u64;
        let run = self.get_offsets(n - 1)?;
        let mut data = Vec::with_capacity(n);
        data.push(first);
        let (mut prev, mut overflow) = (first, false);
        for i in 0..n - 1 {
            let (gap, over_gap) = min.overflowing_add(run.offset(i));
            let (v, over_sum) = prev.overflowing_add_unsigned(gap);
            overflow |= over_gap | over_sum;
            prev = v;
            data.push(v);
        }
        match overflow {
            true => Err(Error::Codec(format!("delta gaps carry {first} past i64"))),
            false => Ok(data),
        }
    }

    /// Read a width byte and a run of `n` offsets in that many bits each,
    /// refusing a width out of range, a short run and set padding bits.
    fn get_offsets(&mut self, n: usize) -> Result<Offsets> {
        let width = self.get_u8()? as usize;
        if !(1..=64).contains(&width) {
            return Err(Error::Codec(format!("packed width {width} outside 1..=64")));
        }
        let bits = n * width;
        let run = self.take(bits.div_ceil(8))?;
        // The last byte's top `pad` bits follow the last offset.
        let pad = 8 * run.len() - bits;
        if run.last().is_some_and(|&b| u16::from(b) >> (8 - pad) != 0) {
            return Err(Error::Codec("packed run sets bits past its last value".into()));
        }
        // Zero-padded, so that the last offset's window is whole.
        let mut padded = Vec::with_capacity(run.len() + 16);
        padded.extend_from_slice(run);
        padded.resize(run.len() + 16, 0);
        Ok(Offsets { padded, width, mask: u64::MAX >> (64 - width) })
    }

    /// Read a relation: its schema and its body, the decoded columns its
    /// layout ([`Relation::from_columns`]).
    pub fn get_relation(&mut self) -> Result<Relation> {
        let schema = self.get_schema()?;
        let cols = self.get_columns(&schema)?;
        Relation::from_columns(schema, cols)
    }
}

/// A packed run as read: its bytes, zero-padded by 16, and its width.
struct Offsets {
    padded: Vec<u8>,
    width: usize,
    mask: u64,
}

impl Offsets {
    /// Offset `i`, read from the 16-byte window its bits start in, with no
    /// branch.
    #[inline]
    fn offset(&self, i: usize) -> u64 {
        let (byte, s) = (i * self.width / 8, i * self.width % 8);
        let mut window = [0u8; 16];
        window.copy_from_slice(&self.padded[byte..byte + 16]);
        (u128::from_le_bytes(window) >> s) as u64 & self.mask
    }
}

/// An 8-byte chunk as an array (`chunks_exact(8)` yields only those).
fn le_word(c: &[u8]) -> [u8; 8] {
    let mut w = [0u8; 8];
    w.copy_from_slice(c);
    w
}

/// The values of the valid rows, in order, spread over `n` rows: a `NULL`
/// row holds the default.
fn scatter<T: Copy + Default>(
    vals: impl Iterator<Item = T>,
    n: usize,
    valid: Option<&Bitmap>,
) -> Vec<T> {
    let Some(valid) = valid else {
        return vals.collect();
    };
    let mut out = vec![T::default(); n];
    for (slot, v) in (0..n).filter(|&i| valid.get(i)).zip(vals) {
        out[slot] = v;
    }
    out
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
    let mut enc = Encoder::with_capacity(rel.schema().encoded_size() + 4);
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
    use crate::row::Row;

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

    /// One column of `n` rows, named `c`, declared `ty`.
    fn one_column(ty: DataType, cells: Vec<Value>) -> Relation {
        Relation::new(
            Schema::of(&[("c", ty)]),
            cells.into_iter().map(|v| Row::new(vec![v])).collect(),
        )
        .unwrap()
    }

    /// A body by hand: `schema`, the row count `n`, then `cols` as given.
    fn raw(schema: &Schema, n: u32, cols: &[u8]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_schema(schema);
        e.put_u32(n);
        let mut bytes = e.finish();
        bytes.extend_from_slice(cols);
        bytes
    }

    #[test]
    fn columns_travel_as_runs_dictionaries_and_bitmaps() {
        let schema_len = |r: &Relation| r.schema().encoded_size() + 4;
        // Three Ints in two bits each: the encoding byte, the minimum, the
        // width and one byte of offsets 0, 1, 2.
        let ints = one_column(DataType::Int, vec![1i64.into(), 2i64.into(), 3i64.into()]);
        let bytes = encode_relation(&ints);
        assert_eq!(
            &bytes[schema_len(&ints)..],
            [[COL_INT_PACKED].as_slice(), &1i64.to_le_bytes(), &[2, 0b10_01_00]].concat()
        );
        // Offsets that need all 64 bits go raw: one 8-byte run.
        let wide = one_column(DataType::Int, vec![i64::MIN.into(), i64::MAX.into()]);
        let bytes = encode_relation(&wide);
        assert_eq!(bytes.len(), schema_len(&wide) + 1 + 16);
        assert_eq!(bytes[schema_len(&wide)], COL_INT);
        // 63-bit offsets pack once there are enough of them, nearly every
        // one straddling two words of the run.
        let vals = (0..200).map(|i: i64| Value::Int((i % 3) << 61 | i));
        let wide63 = one_column(DataType::Int, vals.collect());
        let bytes = encode_relation(&wide63);
        assert_eq!(bytes.len(), schema_len(&wide63) + 1 + 8 + 1 + 1575);
        assert_eq!(bytes[schema_len(&wide63) + 9], 63);
        // Sorted, the same column goes delta-coded when that is strictly
        // smaller: first value, gaps' minimum, width, then the gaps' offsets
        // (31 gaps of 1, every fourth one 2: offsets 0 and 1 in one bit,
        // 4 bytes against 24 packed at 6 bits).
        let sorted = one_column(DataType::Int, (0..32).map(|i| Value::Int(700 + i + i / 4)).collect());
        let bytes = encode_relation(&sorted);
        assert_eq!(
            &bytes[schema_len(&sorted)..],
            [[COL_INT_DELTA].as_slice(), &700i64.to_le_bytes(), &1i64.to_le_bytes(), &[1, 0x88, 0x88, 0x88, 0x08]]
                .concat()
        );
        // Never where that would not be smaller: two values, or a gap
        // wider than the values' own packing.
        let short = one_column(DataType::Int, vec![1i64.into(), 2i64.into()]);
        assert_eq!(encode_relation(&short)[schema_len(&short)], COL_INT_PACKED);
        let steps = one_column(DataType::Int, (0..64).map(|i| Value::Int(i * 1000 + i % 2)).collect());
        assert_eq!(encode_relation(&steps)[schema_len(&steps)], COL_INT_DELTA);
        let ends = one_column(DataType::Int, (0..64).map(|i| Value::Int(if i < 32 { i64::MIN + i } else { i64::MAX - 64 + i })).collect());
        assert_eq!(encode_relation(&ends)[schema_len(&ends)], COL_INT);
        // A NULL adds the bitmap and drops its word.
        let nulls = one_column(
            DataType::Double,
            vec![1.5.into(), Value::Null, (-0.0).into()],
        );
        let bytes = encode_relation(&nulls);
        assert_eq!(
            &bytes[schema_len(&nulls)..schema_len(&nulls) + 2],
            [COL_DOUBLE | COL_NULLS, 0b101]
        );
        assert_eq!(bytes.len(), schema_len(&nulls) + 2 + 16);
        // Repeated strings go as a dictionary with one-byte codes...
        let repeated = one_column(DataType::Str, vec![Value::str("alpha"); 50]);
        let bytes = encode_relation(&repeated);
        assert_eq!(bytes[schema_len(&repeated)], COL_STR_DICT);
        assert_eq!(bytes.len(), schema_len(&repeated) + 1 + 4 + 9 + 50);
        // ...distinct ones plainly, and 300 distinct ones need two-byte codes.
        let distinct = one_column(DataType::Str, vec![Value::str("a"), Value::str("b")]);
        assert_eq!(
            encode_relation(&distinct)[schema_len(&distinct)],
            COL_STR_PLAIN
        );
        assert_eq!(
            (code_width(256), code_width(257), code_width(1 << 17)),
            (1, 2, 4)
        );
        // Every one of them is no larger than tagged cells, and round-trips.
        for r in [ints, wide, wide63, sorted, short, steps, ends, nulls, repeated, distinct] {
            let tagged: usize = r.iter().map(|row| row.get(0).encoded_size()).sum();
            assert!(encode_relation(&r).len() <= schema_len(&r) + tagged);
            assert_eq!(decode_relation(&encode_relation(&r)).unwrap(), r);
        }
    }

    #[test]
    fn malformed_columns_are_clean_errors() {
        let int = Schema::of(&[("c", DataType::Int)]);
        let dbl = Schema::of(&[("c", DataType::Double)]);
        let txt = Schema::of(&[("c", DataType::Str)]);
        let two = Schema::of(&[("c", DataType::Int), ("d", DataType::Int)]);
        let word = 7i64.to_le_bytes();
        // A packed column: the minimum `min`, the width byte, the run.
        let packed = |min: i64, width: u8, run: &[u8]| {
            [[COL_INT_PACKED].as_slice(), &min.to_le_bytes(), &[width], run].concat()
        };
        // A delta-coded column: the first value, the gaps' minimum (as
        // its word's bits), the width byte, the run.
        let delta = |first: i64, min: i64, width: u8, run: &[u8]| {
            [[COL_INT_DELTA].as_slice(), &first.to_le_bytes(), &min.to_le_bytes(), &[width], run].concat()
        };
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            (
                "unknown encoding",
                raw(&int, 1, &[0x42, 0, 0, 0, 0, 0, 0, 0, 0]),
                "unknown column encoding",
            ),
            (
                "encoding byte 5, the retired tagged-cell column",
                raw(&int, 1, &[5, 1, 1, 0, 0, 0, 0, 0, 0, 0]),
                "unknown column encoding 0x05",
            ),
            (
                "an Int column under a Double field",
                raw(&dbl, 1, &[[COL_INT].as_slice(), &word].concat()),
                "encoded INT under DOUBLE field c",
            ),
            (
                "a Str column under an Int field",
                raw(&int, 1, &[COL_STR_PLAIN, 1, 0, 0, 0, b'a']),
                "encoded STR under INT field c",
            ),
            (
                "short i64 run",
                raw(&int, 2, &[[COL_INT].as_slice(), &word].concat()),
                "unexpected end of input",
            ),
            (
                "short f64 run",
                raw(&dbl, 2, &[[COL_DOUBLE].as_slice(), &word, &[1, 2]].concat()),
                "unexpected end of input",
            ),
            (
                "short bitmap",
                raw(
                    &two,
                    9,
                    &[
                        [COL_INT | COL_NULLS, 1, 0].as_slice(),
                        &word,
                        &[COL_INT | COL_NULLS, 1],
                    ]
                    .concat(),
                ),
                "unexpected end of input",
            ),
            (
                "bitmap past the rows",
                raw(
                    &int,
                    2,
                    &[[COL_INT | COL_NULLS, 0b101].as_slice(), &word, &word].concat(),
                ),
                "past the row count",
            ),
            (
                "code past the dictionary",
                raw(&txt, 1, &[COL_STR_DICT, 1, 0, 0, 0, 1, 0, 0, 0, b'a', 1]),
                "dictionary code 1",
            ),
            (
                "dictionary too long",
                raw(&txt, 1, &[COL_STR_DICT, 0xFF, 0xFF, 0xFF, 0x7F, 0]),
                "cannot fit",
            ),
            (
                "dictionary repeats",
                raw(
                    &txt,
                    1,
                    &[
                        COL_STR_DICT,
                        2,
                        0,
                        0,
                        0,
                        1,
                        0,
                        0,
                        0,
                        b'a',
                        1,
                        0,
                        0,
                        0,
                        b'a',
                        0,
                    ],
                ),
                "repeats",
            ),
            (
                "rows far beyond the bytes",
                raw(&int, u32::MAX, &[COL_INT, 0, 0, 0]),
                "cannot fit",
            ),
            ("packed width 0", raw(&int, 2, &packed(0, 0, &[0])), "packed width 0"),
            ("packed width 65", raw(&int, 2, &packed(0, 65, &[0; 17])), "packed width 65"),
            ("short packed run", raw(&int, 9, &packed(0, 4, &[0; 4])), "unexpected end of input"),
            ("packed pad bits", raw(&int, 3, &packed(0, 2, &[0b0100_0000])), "past its last value"),
            (
                "packed offset past i64",
                raw(&int, 2, &packed(i64::MAX, 1, &[0b10])),
                "past i64",
            ),
            ("delta gap sum past i64", raw(&int, 3, &delta(i64::MAX - 1, 1, 1, &[0b00])), "past i64"),
            ("delta gap past u64", raw(&int, 2, &delta(0, -1, 1, &[0b1])), "past i64"),
            (
                "delta with a validity bitmap",
                raw(&int, 2, &[[COL_INT_DELTA | COL_NULLS, 0b01].as_slice(), &delta(0, 0, 1, &[0])[1..]].concat()),
                "delta-coded column with a validity bitmap",
            ),
            ("short delta run", raw(&int, 20, &delta(0, 0, 4, &[0; 4])), "unexpected end of input"),
            ("delta pad bits", raw(&int, 3, &delta(0, 0, 2, &[0b0001_0000])), "past its last value"),
            ("delta width 0", raw(&int, 3, &delta(0, 0, 0, &[0])), "packed width 0"),
        ];
        for (what, bytes, want) in cases {
            let err = decode_relation(&bytes).expect_err(what).to_string();
            assert!(err.contains(want), "{what}: {err}");
        }
        let mut trailing = encode_relation(&sample());
        trailing.extend_from_slice(&[COL_INT, 0]);
        assert!(decode_relation(&trailing)
            .unwrap_err()
            .to_string()
            .contains("trailing"));
    }

    #[test]
    fn encoded_size_estimate_close_to_actual() {
        // The estimate is used for accounting; keep it within 20%: the
        // mixed sample, a repeated-string column and a NULL-heavy one.
        let repeated = one_column(
            DataType::Str,
            (0..200)
                .map(|i| Value::str(["north", "south"][i % 2]))
                .collect(),
        );
        let sparse = one_column(
            DataType::Int,
            (0..200)
                .map(|i| {
                    if i % 10 == 0 {
                        Value::Int(i)
                    } else {
                        Value::Null
                    }
                })
                .collect(),
        );
        for r in [sample(), repeated, sparse] {
            let actual = encode_relation(&r).len();
            let estimate = r.encoded_size();
            let diff = (actual as f64 - estimate as f64).abs() / actual as f64;
            assert!(diff < 0.2, "estimate {estimate} vs actual {actual}");
        }
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
        assert_eq!(encode_relation(&r).len(), r.schema().encoded_size() + 4);
        assert_eq!(decode_relation(&encode_relation(&r)).unwrap(), r);
    }
}
