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
//! rows' values in row order, in one of three forms:
//!
//! * **numeric** (encoding byte 1), an `Int` or a `Double` column, a
//!   `Double` as its IEEE bits read as an `i64` (so NaN payloads, `-0.0`,
//!   infinities and subnormals survive): a width byte `w` in `1..=64`,
//!   the values' minimum as an 8-byte word when `w < 64`, then each
//!   value's offset from the minimum in `w` bits — frame-of-reference
//!   packing (Lemire & Boytsov, SPE 2015). `w` is the bit length of the
//!   values' span, but at least 1, raised to 64 exactly when the minimum
//!   and the offsets would take no less room than 8 bytes a value; at 64
//!   the words go as they are, with no minimum. A column with no value is
//!   `w = 64` and nothing more. An `Int` column with no `NULL` whose
//!   values never decrease (a sorted key) goes **delta-coded** instead
//!   (flag `0x40` on byte 1) where that is strictly smaller: the first
//!   value as an 8-byte word, then the gaps between neighbours in the
//!   numeric form (Abadi et al., SIGMOD 2006);
//! * **dictionary** (byte 3) or **plain** (byte 4), a `Str` column,
//!   whichever is smaller, plain on a tie: the dictionary's length, its
//!   strings, then each value's code in `max(1, bit length of k − 1)`
//!   bits for a dictionary of `k`; or each value's string. A string is
//!   length-prefixed. The dictionary is the column's own, in first
//!   occurrence order with no unused entry ([`crate::ColumnBuilder`]'s
//!   rule).
//!
//! 64 offsets or codes of `w` bits fill exactly `w` 64-bit words, LSB
//! first, so a run is a chain of `w`-word blocks, the last one cut short,
//! its last byte's unused bits clear. One routine per width, its shifts
//! constant, packs or unpacks a whole block; the last block goes through
//! a zero-padded copy.
//!
//! Every form is canonical: the decoder refuses a column the encoder
//! would not write, so every column it accepts re-encodes byte for byte.
//! Beyond short input, set padding bits and a value carried past `i64`,
//! it refuses a width other than the data's (wider than the offsets need,
//! over a minimum no value holds, below 64 where the words are no larger,
//! 64 where they are larger), codes out of first-occurrence order or
//! leaving an entry unused, the larger string form, delta coding that is
//! not strictly smaller and its absence where it is, and a form its
//! field's type cannot take.
//!
//! No column is written for an empty relation. From three rows on, a
//! column's body is never larger than one tagged cell per row
//! ([`Encoder::put_value`]) would be.

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

/// Column encodings: the byte that leads each column of a relation body
/// (2 and 5 to 8 were retired forms).
const COL_NUMERIC: u8 = 1;
const COL_STR_DICT: u8 = 3;
const COL_STR_PLAIN: u8 = 4;
/// Or-ed into a numeric column's encoding byte: delta-coded.
const COL_DELTA: u8 = 0x40;
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
    /// exact size is reserved up front, so the caller need not size the
    /// encoder for it.
    pub fn put_columns(&mut self, len: usize, cols: &[&Column]) {
        self.put_u32(len as u32);
        if len == 0 {
            return;
        }
        let forms: Vec<_> = cols.iter().map(|c| column_form(c)).collect();
        self.buf.reserve(forms.iter().map(|f| f.1).sum::<usize>());
        for (col, form) in cols.iter().zip(forms) {
            self.put_column(col, form);
        }
    }

    fn put_column(&mut self, col: &Column, (enc, _, packing): (u8, usize, Packing)) {
        self.put_u8(enc);
        let valid = valid_bits(col);
        if let Some(b) = valid {
            self.buf.extend(b.to_le_bytes());
        }
        let rows = || (0..col.len()).filter(|&i| valid.is_none_or(|b| b.get(i)));
        match col {
            Column::Int { data, .. } if enc & COL_DELTA != 0 => {
                // The first value, then the gaps in the numeric form.
                self.put_i64(data[0]);
                self.put_header(packing);
                self.put_packed(data.len() - 1, packing.width, |first, block| {
                    for (off, w) in block.iter_mut().zip(data[first..].windows(2)) {
                        *off = w[1].wrapping_sub(w[0]).wrapping_sub(packing.min) as u64;
                    }
                })
            }
            Column::Int { data, .. } => {
                self.put_header(packing);
                self.put_offsets(data, valid, |v| v, packing)
            }
            Column::Double { data, .. } => {
                self.put_header(packing);
                self.put_offsets(data, valid, f64_word, packing)
            }
            Column::Str { codes, dict, .. } if enc & !COL_NULLS == COL_STR_DICT => {
                debug_assert_eq!(
                    first_occurrence(rows().map(|i| u64::from(codes[i])), 0),
                    Some(dict.len() as u64),
                    "a dictionary out of first-occurrence order or with an unused entry"
                );
                self.put_u32(dict.len() as u32);
                for s in dict {
                    self.put_str(s);
                }
                self.put_offsets(codes, valid, i64::from, packing)
            }
            Column::Str { codes, dict, .. } => {
                for i in rows() {
                    self.put_str(&dict[codes[i] as usize]);
                }
            }
        }
    }

    /// Write a numeric run's header: the width byte, then the minimum
    /// below width 64.
    fn put_header(&mut self, Packing { min, width }: Packing) {
        self.put_u8(width as u8);
        if width < 64 {
            self.put_i64(min);
        }
    }

    /// Write the offsets from `min` of the words of `data`'s rows that
    /// `valid` marks (every row when `None`), in `width` bits each.
    fn put_offsets<T: Copy>(&mut self, data: &[T], valid: Option<&Bitmap>, word: impl Fn(T) -> i64, p: Packing) {
        let Packing { min, width } = p;
        let offset = |v: T| word(v).wrapping_sub(min) as u64;
        match valid {
            None => self.put_packed(data.len(), width, |first, block| {
                for (off, &v) in block.iter_mut().zip(&data[first..]) {
                    *off = offset(v);
                }
            }),
            Some(b) => {
                let mut offsets = valid_values(data, b).map(offset);
                self.put_packed(b.count_ones(), width, |_, block| {
                    for (off, v) in block.iter_mut().zip(&mut offsets) {
                        *off = v;
                    }
                })
            }
        }
    }

    /// Write `n` offsets, each below `2^width`, LSB-first in `width` bits
    /// apiece: `(n * width).div_ceil(8)` bytes. `fill(first, block)` sets
    /// `block` to the offsets from the `first`-th on, 64 but for the last
    /// block. The width's own routine packs each block of 64 straight into
    /// its `width` words of the run, and the last block, zero-padded, into
    /// a stack buffer whose bytes that hold its bits are copied after.
    fn put_packed(&mut self, n: usize, width: usize, mut fill: impl FnMut(usize, &mut [u64])) {
        let kernel = PACK[width - 1];
        let mut block = [0u64; 64];
        let start = self.buf.len();
        self.buf.resize(start + (n * width).div_ceil(8), 0);
        let (whole, rest) = self.buf[start..].split_at_mut(8 * width * (n / 64));
        for (b, words) in whole.chunks_exact_mut(8 * width).enumerate() {
            fill(64 * b, &mut block);
            kernel(&block, words);
        }
        let tail = n % 64;
        if tail > 0 {
            fill(n - tail, &mut block[..tail]);
            block[tail..].fill(0);
            let mut padded = [0u8; 8 * 64];
            kernel(&block, &mut padded);
            rest.copy_from_slice(&padded[..rest.len()]);
        }
    }
}

/// The validity bitmap a column writes: its own, when it marks a `NULL`.
fn valid_bits(col: &Column) -> Option<&Bitmap> {
    col.validity().filter(|b| !b.all_set())
}

/// The values of `data`'s rows that `valid` marks, in row order.
fn valid_values<'a, T: Copy>(data: &'a [T], valid: &'a Bitmap) -> impl Iterator<Item = T> + 'a {
    (data.iter().enumerate()).filter(|&(i, _)| valid.get(i)).map(|(_, &v)| v)
}

/// The word a `Double` packs as: its IEEE bits read as an `i64`.
fn f64_word(v: f64) -> i64 {
    v.to_bits() as i64
}

/// Whether `codes` are in first-occurrence order, each at most one past
/// the greatest before it, counting on from `seen` codes seen so far:
/// how many have been seen after them, or `None` if one runs ahead.
fn first_occurrence(codes: impl IntoIterator<Item = u64>, seen: u64) -> Option<u64> {
    codes.into_iter().try_fold(seen, |seen, c| (c <= seen).then(|| seen.max(c + 1)))
}

/// A run's frame of reference: the minimum its offsets count from and
/// their width in bits. At width 64 the minimum is 0: the words go as
/// they are.
#[derive(Debug, Clone, Copy)]
struct Packing {
    min: i64,
    width: usize,
}

/// The bits `span` takes, but at least 1.
fn bit_width(span: u64) -> usize {
    (u64::BITS - span.leading_zeros()).max(1) as usize
}

/// Whether `n` words go as they are rather than as offsets of `width`
/// bits after their minimum: exactly when those would take no less room.
/// It depends on `n` and `width` alone, so a run's width is a function
/// of its words.
fn goes_raw(n: usize, width: usize) -> bool {
    8 + (n * width).div_ceil(8) >= 8 * n
}

impl Packing {
    /// The packing of `n` words whose least is `min` and whose greatest
    /// is `span` above it: offsets in the span's bit length, at least 1,
    /// or width 64 where [`goes_raw`].
    fn new(n: usize, min: i64, span: u64) -> Packing {
        let width = bit_width(span);
        if goes_raw(n, width) { Packing { min: 0, width: 64 } } else { Packing { min, width } }
    }

    /// The packing of the words of `data`'s rows that `valid` marks
    /// (every row when `None`); width 64 when there are none.
    /// The bounds are folded 64 words at a time, and only until a
    /// prefix's span is wide enough that the words go as they are: a
    /// wider span only makes [`goes_raw`] surer.
    fn of<T: Copy>(data: &[T], valid: Option<&Bitmap>, word: impl Fn(T) -> i64) -> Packing {
        let n = valid.map_or(data.len(), Bitmap::count_ones);
        let raw = Packing { min: 0, width: 64 };
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        let mut fold = |words: &mut dyn Iterator<Item = i64>| {
            for w in words {
                (lo, hi) = (lo.min(w), hi.max(w));
            }
            goes_raw(n, bit_width(hi.wrapping_sub(lo) as u64))
        };
        let wide = match valid {
            None => data.chunks(64).any(|c| fold(&mut c.iter().map(|&v| word(v)))),
            Some(b) => {
                let mut words = valid_values(data, b).map(&word).peekable();
                std::iter::from_fn(|| words.peek().is_some().then(|| fold(&mut words.by_ref().take(64)))).any(|w| w)
            }
        };
        if wide {
            return raw;
        }
        Packing::new(n, lo, hi.wrapping_sub(lo) as u64)
    }

    /// The packing of the gaps between `data`'s neighbours, each exact as
    /// a `u64` (the minimum is the least gap's bits); `None` unless there
    /// are two values or more and none is below the one before it.
    fn of_gaps(data: &[i64]) -> Option<Packing> {
        let (mut lo, mut hi) = (u64::MAX, 0);
        for w in data.windows(2) {
            if w[1] < w[0] {
                return None;
            }
            let gap = w[1].wrapping_sub(w[0]) as u64;
            (lo, hi) = (lo.min(gap), hi.max(gap));
        }
        (data.len() > 1).then(|| Packing::new(data.len() - 1, lo as i64, hi - lo))
    }

    /// The codes of a dictionary of `k` strings: from 0, in the bits the
    /// greatest, `k - 1`, takes.
    fn codes(k: usize) -> Packing {
        Packing { min: 0, width: bit_width(k.saturating_sub(1) as u64) }
    }

    /// The numeric form of `n` words: width byte, minimum below width 64,
    /// and the run.
    fn size(self, n: usize) -> usize {
        1 + 8 * usize::from(self.width < 64) + (n * self.width).div_ceil(8)
    }
}

/// A dictionary column's body after its bitmap: the dictionary `dict`
/// and `n` codes.
fn dict_size(dict: &[Arc<str>], n: usize) -> usize {
    4 + dict.iter().map(|s| 4 + s.len()).sum::<usize>() + (n * Packing::codes(dict.len()).width).div_ceil(8)
}

/// How a non-empty column is written: its encoding byte, its size in
/// bytes with that byte, and the packing of its run — its values', its
/// gaps' when delta-coded, its codes' when a dictionary. An `Int` column
/// is delta-coded only when that is strictly smaller; a `Str` column
/// takes the smaller of dictionary and plain strings, plain on a tie.
fn column_form(col: &Column) -> (u8, usize, Packing) {
    let n = col.len();
    let valid = valid_bits(col);
    let (nulls, bitmap) = match valid {
        Some(_) => (COL_NULLS, n.div_ceil(8)),
        None => (0, 0),
    };
    let n_valid = valid.map_or(n, Bitmap::count_ones);
    match col {
        Column::Int { data, .. } => {
            let p = Packing::of(data, valid, |v| v);
            match valid.is_none().then(|| Packing::of_gaps(data)).flatten() {
                Some(d) if 8 + d.size(n - 1) < p.size(n) => (COL_NUMERIC | COL_DELTA, 1 + 8 + d.size(n - 1), d),
                _ => (COL_NUMERIC | nulls, 1 + bitmap + p.size(n_valid), p),
            }
        }
        Column::Double { data, .. } => {
            let p = Packing::of(data, valid, f64_word);
            (COL_NUMERIC | nulls, 1 + bitmap + p.size(n_valid), p)
        }
        Column::Str { codes, dict, .. } => {
            let in_dict = dict_size(dict, n_valid);
            let plain: usize = (0..n)
                .filter(|&i| valid.is_none_or(|b| b.get(i)))
                .map(|i| 4 + dict[codes[i] as usize].len())
                .sum();
            let enc = if in_dict < plain { COL_STR_DICT } else { COL_STR_PLAIN };
            (enc | nulls, 1 + bitmap + in_dict.min(plain), Packing::codes(dict.len()))
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
    /// in a form its field's type cannot take fails before its body is
    /// read.
    pub fn get_columns(&mut self, schema: &Schema) -> Result<Columns> {
        let n = self.get_u32()? as usize;
        // Each column of a non-empty body takes its encoding byte and at
        // least one bit per row (its bitmap's, or its width's of 1 or more).
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
        let ty = field.data_type();
        let (form, fits) = match (enc & !(COL_NULLS | COL_DELTA), enc & COL_DELTA != 0) {
            (COL_NUMERIC, false) => ("numeric", ty != DataType::Str),
            (COL_NUMERIC, true) => ("delta-coded", ty == DataType::Int),
            (COL_STR_DICT | COL_STR_PLAIN, false) => ("string", ty == DataType::Str),
            _ => return Err(Error::Codec(format!("unknown column encoding {enc:#04x}"))),
        };
        if !fits {
            return Err(Error::Codec(format!("a {form} column under {ty} field {}", field.name())));
        }
        if enc == COL_NUMERIC | COL_DELTA | COL_NULLS {
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
        Ok(match ty {
            DataType::Int if enc & COL_DELTA != 0 => Column::Int { data: self.get_delta(n)?, valid },
            DataType::Int => {
                let start = self.pos;
                let data = self.get_numeric(n, valid.as_ref(), |w| w)?;
                // The encoder delta-codes a sorted column with no NULL
                // wherever that is strictly smaller.
                let delta = valid.is_none().then(|| Packing::of_gaps(&data)).flatten();
                if delta.is_some_and(|d| 8 + d.size(n - 1) < self.pos - start) {
                    return Err(Error::Codec("a numeric column that delta coding makes smaller".into()));
                }
                Column::Int { data, valid }
            }
            DataType::Double => {
                let data = self.get_numeric(n, valid.as_ref(), |w| f64::from_bits(w as u64))?;
                Column::Double { data, valid }
            }
            DataType::Str => {
                let n_valid = valid.as_ref().map_or(n, Bitmap::count_ones);
                let (codes, dict) = match enc & !COL_NULLS {
                    COL_STR_DICT => self.get_dict(n_valid)?,
                    _ => self.get_plain(n_valid)?,
                };
                Column::Str { codes: spread(codes, n, valid.as_ref()), dict, valid }
            }
        })
    }

    /// Read a numeric column's body after its bitmap (see the module
    /// docs): the rows `valid` marks among `n`, each row's value `of` its
    /// word. The run is unpacked a block at a time, and a word past `i64`
    /// or a width other than the words' is refused once the run is read.
    fn get_numeric<T: Copy + Default>(&mut self, n: usize, valid: Option<&Bitmap>, of: impl Fn(i64) -> T) -> Result<Vec<T>> {
        let n_valid = valid.map_or(n, Bitmap::count_ones);
        let (Packing { min, width }, run) = self.get_run(n_valid)?;
        let mut data = Vec::with_capacity(n);
        // Words that go as they are must span too many bits to pack: their
        // bounds are folded only until they do, mostly within a block.
        let (mut lo, mut hi, mut wide) = (i64::MAX, i64::MIN, width < 64 || goes_raw(n_valid, 1));
        if width == 64 {
            // The words as they are: read straight into the column.
            for words in run.chunks(8 * 64) {
                let block = words.chunks_exact(8).map(|w| i64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]));
                if !wide {
                    (lo, hi) = block.clone().fold((lo, hi), |(lo, hi), w| (lo.min(w), hi.max(w)));
                    wide = goes_raw(n_valid, bit_width(hi.wrapping_sub(lo) as u64));
                }
                data.extend(block.map(&of));
            }
            if !wide {
                return Err(Error::Codec(format!("{n_valid} words as they are where packing them is smaller")));
            }
            return Ok(spread(data, n, valid));
        }
        let span = unpack(run, n_valid, width, |block| {
            if !wide {
                (lo, hi) = (block.iter()).fold((lo, hi), |(lo, hi), &w| (lo.min(w as i64), hi.max(w as i64)));
                wide = goes_raw(n_valid, bit_width(hi.wrapping_sub(lo) as u64));
            }
            data.extend(block.iter().map(|&off| of(min.wrapping_add_unsigned(off))))
        });
        if !wide {
            return Err(Error::Codec(format!("{n_valid} words as they are where packing them is smaller")));
        }
        if width < 64 {
            if span.exceeds(i64::MAX.wrapping_sub(min) as u64, run, n_valid, width) {
                return Err(Error::Codec(format!("packed offset carries {min} past i64")));
            }
            span.canonical(width)?;
        }
        Ok(spread(data, n, valid))
    }

    /// Read a delta-coded run of `n` values (the first value, then the
    /// `n - 1` gaps in the numeric form; see the module docs), each value
    /// its predecessor plus its gap. A gap or a running sum past `i64`, or
    /// a form the encoder would not write, is refused once the run is
    /// read.
    fn get_delta(&mut self, n: usize) -> Result<Vec<i64>> {
        let start = self.pos;
        let first = self.get_i64()?;
        let (Packing { min, width }, run) = self.get_run(n - 1)?;
        let min = min as u64;
        let mut data = Vec::with_capacity(n);
        data.push(first);
        let (mut last, mut overflow) = (first, false);
        let span = unpack(run, n - 1, width, |block| {
            for &off in block {
                let (v, over) = last.overflowing_add_unsigned(min.wrapping_add(off));
                overflow |= over;
                last = v;
                data.push(v);
            }
        });
        if overflow || span.exceeds(u64::MAX - min, run, n - 1, width) {
            return Err(Error::Codec(format!("delta gaps carry {first} past i64")));
        }
        // Gaps at width 64 are never smaller than the values' own form.
        if width < 64 {
            span.canonical(width)?;
        }
        if self.pos - start >= Packing::new(n, first, last.wrapping_sub(first) as u64).size(n) {
            return Err(Error::Codec("a delta-coded column not smaller than its numeric form".into()));
        }
        Ok(data)
    }

    /// Read a numeric run's header and its `n` offsets, refusing a width
    /// out of range, or below 64 where the words would be no larger.
    fn get_run(&mut self, n: usize) -> Result<(Packing, &'a [u8])> {
        let width = self.get_u8()? as usize;
        if !(1..=64).contains(&width) {
            return Err(Error::Codec(format!("packed width {width} outside 1..=64")));
        }
        if width < 64 && goes_raw(n, width) {
            return Err(Error::Codec(format!("{n} words packed in {width} bits, no smaller than as they are")));
        }
        let min = if width < 64 { self.get_i64()? } else { 0 };
        Ok((Packing { min, width }, self.get_bits(n, width)?))
    }

    /// Read a run of `n` offsets in `width` bits each, refusing a short
    /// run and set padding bits.
    fn get_bits(&mut self, n: usize, width: usize) -> Result<&'a [u8]> {
        let bits = n * width;
        let run = self.take(bits.div_ceil(8))?;
        // The last byte's top `pad` bits follow the last offset.
        let pad = 8 * run.len() - bits;
        if run.last().is_some_and(|&b| u16::from(b) >> (8 - pad) != 0) {
            return Err(Error::Codec("packed run sets bits past its last value".into()));
        }
        Ok(run)
    }

    /// Read a dictionary column's body after its bitmap: the dictionary,
    /// then `n` codes. Refuses a repeated string, codes out of
    /// first-occurrence order or leaving an entry unused, and a dictionary
    /// no smaller than the plain strings.
    fn get_dict(&mut self, n: usize) -> Result<(Vec<u32>, Vec<Arc<str>>)> {
        let start = self.pos;
        let k = self.get_u32()? as usize;
        if k > self.remaining() / 4 {
            return Err(Error::Codec(format!("a dictionary of {k} strings cannot fit")));
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
        let width = Packing::codes(k).width;
        let run = self.get_bits(n, width)?;
        let mut codes = Vec::with_capacity(n);
        let mut used = Some(0);
        unpack(run, n, width, |block| {
            used = used.and_then(|seen| first_occurrence(block.iter().copied(), seen));
            codes.extend(block.iter().map(|&c| c as u32));
        });
        match used {
            Some(used) if used == k as u64 => {}
            None => return Err(Error::Codec("dictionary codes out of first-occurrence order".into())),
            Some(used) => return Err(Error::Codec(format!("a dictionary of {k} strings whose codes use {used}"))),
        }
        let plain: usize = codes.iter().map(|&c| 4 + dict[c as usize].len()).sum();
        if self.pos - start >= plain {
            return Err(Error::Codec("a dictionary no smaller than its plain strings".into()));
        }
        Ok((codes, dict))
    }

    /// Read `n` plain strings, interned into the column's dictionary in
    /// first-occurrence order; refuses them where that dictionary would
    /// be smaller.
    fn get_plain(&mut self, n: usize) -> Result<(Vec<u32>, Vec<Arc<str>>)> {
        if 4 * n > self.remaining() {
            return Err(Error::Codec(format!("{n} strings cannot fit")));
        }
        let start = self.pos;
        let mut intern: HashMap<&str, u32> = HashMap::new();
        let mut dict: Vec<Arc<str>> = Vec::new();
        let mut codes = Vec::with_capacity(n);
        for _ in 0..n {
            let s = self.get_str_ref()?;
            codes.push(*intern.entry(s).or_insert_with(|| {
                dict.push(Arc::from(s));
                (dict.len() - 1) as u32
            }));
        }
        if dict_size(&dict, n) < self.pos - start {
            return Err(Error::Codec("plain strings that a dictionary makes smaller".into()));
        }
        Ok((codes, dict))
    }

    /// Read a relation: its schema and its body, the decoded columns its
    /// layout ([`Relation::from_columns`]).
    pub fn get_relation(&mut self) -> Result<Relation> {
        let schema = self.get_schema()?;
        let cols = self.get_columns(&schema)?;
        Relation::from_columns(schema, cols)
    }
}

/// What the decoder needs to know of a packed run's offsets, folded as
/// they are unpacked: all of their bits or-ed, and whether one is 0.
#[derive(Debug, Clone, Copy)]
struct Span {
    bits: u64,
    zero: bool,
}

impl Span {
    /// Refuse a run the encoder would not have written: its minimum is one
    /// of its values (an offset is 0), and its width the least that holds
    /// every offset (the bit length of the greatest, which is that of all
    /// their bits or-ed).
    fn canonical(self, width: usize) -> Result<()> {
        if !self.zero {
            return Err(Error::Codec("packed minimum held by no value: no offset is 0".into()));
        }
        if width != bit_width(self.bits) {
            return Err(Error::Codec(format!(
                "packed width {width} where {} bits hold every offset",
                bit_width(self.bits)
            )));
        }
        Ok(())
    }

    /// Whether an offset is above `limit`. Only a run whose offsets' bits
    /// reach past it can hold one, and only then is the greatest found,
    /// unpacking `run` (`n` offsets of `width` bits) again.
    fn exceeds(self, limit: u64, run: &[u8], n: usize, width: usize) -> bool {
        if self.bits <= limit {
            return false;
        }
        let mut greatest = 0;
        unpack(run, n, width, |block| greatest = block.iter().fold(greatest, |g, &v| g.max(v)));
        greatest > limit
    }
}

/// Unpack a run of `n` offsets of `width` bits (its length and padding
/// checked) a block of 64 at a time, with the width's own routine, and
/// hand each block in order to `sink`, the last one cut to its offsets,
/// which are read through a zero-padded copy. Returns the offsets' [`Span`],
/// folded over each block as it is unpacked.
fn unpack(run: &[u8], n: usize, width: usize, mut sink: impl FnMut(&[u64])) -> Span {
    let kernel = UNPACK[width - 1];
    let mut block = [0u64; 64];
    let (mut bits, mut nonzero) = (0, u64::MAX);
    let (whole, rest) = run.split_at(8 * width * (n / 64));
    for words in whole.chunks_exact(8 * width) {
        let (b, z) = kernel(words, &mut block);
        (bits, nonzero) = (bits | b, nonzero & z);
        sink(&block);
    }
    let tail = n % 64;
    if tail > 0 {
        let mut padded = [0u8; 8 * 64];
        padded[..rest.len()].copy_from_slice(rest);
        kernel(&padded, &mut block);
        let (b, z) = fold(&block[..tail]);
        (bits, nonzero) = (bits | b, nonzero & z);
        sink(&block[..tail]);
    }
    Span { bits, zero: nonzero >> 63 == 0 }
}

/// A block routine of one width `W`: unpack the first `W` little-endian
/// words of a run into 64 offsets (and fold them, see [`Span`]), or pack
/// 64 offsets into the first `W` words of a run.
type Unpack = fn(&[u8], &mut [u64; 64]) -> (u64, u64);
type Pack = fn(&[u64; 64], &mut [u8]);

/// `$body` once for each lane `$i` of a block, `0..64`, written out, so
/// that every shift and word index in it is a constant.
macro_rules! each_lane {
    ($i:ident => $body:block) => {
        each_lane!(@ $i $body; 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25
            26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54
            55 56 57 58 59 60 61 62 63)
    };
    (@ $i:ident $body:block; $($lane:literal)*) => {
        $({
            let $i: usize = $lane;
            $body
        })*
    };
}

/// Unpack one block: 64 offsets of `W` bits from the first `W` words of
/// `run`, LSB-first, into `out`, and [`fold`] them. Only an offset that
/// straddles two words reads the second.
fn unpack_block<const W: usize>(run: &[u8], out: &mut [u64; 64]) -> (u64, u64) {
    let run = &run[..8 * W];
    let word = |k: usize| u64::from_le_bytes(le_word(&run[8 * k..8 * k + 8]));
    let mask = u64::MAX >> (64 - W);
    each_lane!(i => {
        let (k, s) = (i * W / 64, i * W % 64);
        out[i] = match s + W > 64 {
            true => (word(k) >> s | word(k + 1) << (64 - s)) & mask,
            false => word(k) >> s & mask,
        };
    });
    fold(out)
}

/// All of `offsets`' bits or-ed, and every offset or-ed with its
/// negation and-ed: the latter's top bit is clear just when an offset is
/// 0. Both fold with no compare, so the fold vectorizes.
fn fold(offsets: &[u64]) -> (u64, u64) {
    (offsets.iter()).fold((0, u64::MAX), |(bits, nonzero), &v| (bits | v, nonzero & (v | v.wrapping_neg())))
}

/// Pack one block: 64 offsets, each below `2^W`, into the first `W`
/// words of `run`, LSB-first. Each word is gathered in a register and
/// stored once, when the offset that ends it is in.
fn pack_block<const W: usize>(offsets: &[u64; 64], run: &mut [u8]) {
    let run = &mut run[..8 * W];
    let mut word = 0;
    each_lane!(i => {
        let (k, s) = (i * W / 64, i * W % 64);
        word |= offsets[i] << s;
        if s + W >= 64 {
            run[8 * k..8 * k + 8].copy_from_slice(&word.to_le_bytes());
            // The offset's bits past word k (none when s is 0: two
            // shifts, as `>> 64` would overflow).
            word = offsets[i] >> 1 >> (63 - s);
        }
    });
    // The last offset ends the last word: nothing carries past the block.
    debug_assert_eq!(word, 0);
}

/// One routine per width `1..=64`, index `width - 1`.
macro_rules! per_width {
    ($kernel:ident) => {
        per_width!($kernel; 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27
            28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56
            57 58 59 60 61 62 63 64)
    };
    ($kernel:ident; $($w:literal)*) => {
        [$($kernel::<$w>),*]
    };
}
const UNPACK: [Unpack; 64] = per_width!(unpack_block);
const PACK: [Pack; 64] = per_width!(pack_block);

/// An 8-byte chunk as an array.
fn le_word(c: &[u8]) -> [u8; 8] {
    let mut w = [0u8; 8];
    w.copy_from_slice(c);
    w
}

/// `data`, the values of the rows `valid` marks in order, spread in place
/// over `n` rows, a `NULL` row holding the default; as it is when `valid`
/// is `None`. From the last row back, each value moves to its own row,
/// never before its place in `data`.
fn spread<T: Copy + Default>(mut data: Vec<T>, n: usize, valid: Option<&Bitmap>) -> Vec<T> {
    let Some(valid) = valid else {
        return data;
    };
    let mut next = data.len();
    data.resize(n, T::default());
    for i in (0..n).rev() {
        data[i] = match valid.get(i) {
            true => {
                next -= 1;
                data[next]
            }
            false => T::default(),
        };
    }
    data
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
        // Three Ints in two bits each: the encoding byte, the width, the
        // minimum and one byte of offsets 0, 1, 2.
        let ints = one_column(DataType::Int, vec![1i64.into(), 2i64.into(), 3i64.into()]);
        let bytes = encode_relation(&ints);
        assert_eq!(
            &bytes[schema_len(&ints)..],
            [[COL_NUMERIC, 2].as_slice(), &1i64.to_le_bytes(), &[0b10_01_00]].concat()
        );
        // Offsets that need all 64 bits go as words: width 64, no minimum.
        let wide = one_column(DataType::Int, vec![i64::MIN.into(), i64::MAX.into()]);
        let bytes = encode_relation(&wide);
        assert_eq!(
            &bytes[schema_len(&wide)..],
            [[COL_NUMERIC, 64].as_slice(), &i64::MIN.to_le_bytes(), &i64::MAX.to_le_bytes()].concat()
        );
        // 63-bit offsets pack once there are enough of them, nearly every
        // one straddling two words of the run.
        let vals = (0..200).map(|i: i64| Value::Int((i % 3) << 61 | i));
        let wide63 = one_column(DataType::Int, vals.collect());
        let bytes = encode_relation(&wide63);
        assert_eq!(bytes.len(), schema_len(&wide63) + 1 + 1 + 8 + 1575);
        assert_eq!(bytes[schema_len(&wide63) + 1], 63);
        // Sorted, the same column goes delta-coded when that is strictly
        // smaller: first value, then the gaps' width, minimum and offsets
        // (31 gaps of 1, every fourth one 2: offsets 0 and 1 in one bit,
        // 4 bytes against 24 packed at 6 bits).
        let sorted = one_column(DataType::Int, (0..32).map(|i| Value::Int(700 + i + i / 4)).collect());
        let bytes = encode_relation(&sorted);
        assert_eq!(
            &bytes[schema_len(&sorted)..],
            [[COL_NUMERIC | COL_DELTA].as_slice(), &700i64.to_le_bytes(), &[1], &1i64.to_le_bytes(), &[0x88, 0x88, 0x88, 0x08]]
                .concat()
        );
        // Never where that would not be smaller: two values, or a gap
        // wider than the values' own packing.
        let short = one_column(DataType::Int, vec![1i64.into(), 2i64.into()]);
        assert_eq!(encode_relation(&short)[schema_len(&short)], COL_NUMERIC);
        let steps = one_column(DataType::Int, (0..64).map(|i| Value::Int(i * 1000 + i % 2)).collect());
        assert_eq!(encode_relation(&steps)[schema_len(&steps)], COL_NUMERIC | COL_DELTA);
        let ends = one_column(DataType::Int, (0..64).map(|i| Value::Int(if i < 32 { i64::MIN + i } else { i64::MAX - 64 + i })).collect());
        assert_eq!(encode_relation(&ends)[schema_len(&ends)..][..2], [COL_NUMERIC, 64]);
        // Offsets 0, 2 and 5 from i64::MAX - 5: their bits or-ed (7) pass
        // the room left below i64::MAX (5), so the decoder looks for the
        // greatest offset, which fits.
        let near_max = one_column(DataType::Int, [5, 3, 0].map(|d| Value::Int(i64::MAX - d)).to_vec());
        assert_eq!(encode_relation(&near_max)[schema_len(&near_max)..][..2], [COL_NUMERIC, 3]);
        // Doubles pack on their IEEE bits: eight equal ones in a bit each
        // (encoding byte, the width, the bits as the minimum, one byte)...
        let halves = one_column(DataType::Double, vec![2.5.into(); 8]);
        assert_eq!(
            &encode_relation(&halves)[schema_len(&halves)..],
            [[COL_NUMERIC, 1].as_slice(), &2.5f64.to_bits().to_le_bytes(), &[0]].concat()
        );
        // ...but a column that mixes signs spans about 2^64 and goes as words.
        let signs = one_column(DataType::Double, (0..40).map(|i| Value::Double(i as f64 - 20.5)).collect());
        assert_eq!(encode_relation(&signs)[schema_len(&signs)..][..2], [COL_NUMERIC, 64]);
        // A NULL adds the bitmap and drops its word.
        let nulls = one_column(
            DataType::Double,
            vec![1.5.into(), Value::Null, (-0.0).into()],
        );
        let bytes = encode_relation(&nulls);
        assert_eq!(
            &bytes[schema_len(&nulls)..schema_len(&nulls) + 3],
            [COL_NUMERIC | COL_NULLS, 0b101, 64]
        );
        assert_eq!(bytes.len(), schema_len(&nulls) + 3 + 16);
        // Repeated strings go as a dictionary, a one-string dictionary's
        // codes in a bit each...
        let repeated = one_column(DataType::Str, vec![Value::str("alpha"); 50]);
        let bytes = encode_relation(&repeated);
        assert_eq!(
            &bytes[schema_len(&repeated)..],
            [[COL_STR_DICT, 1, 0, 0, 0, 5, 0, 0, 0].as_slice(), b"alpha", &[0; 7]].concat()
        );
        // ...distinct ones plainly, and a dictionary of k strings takes
        // the bits of k - 1.
        let distinct = one_column(DataType::Str, vec![Value::str("a"), Value::str("b")]);
        assert_eq!(encode_relation(&distinct)[schema_len(&distinct)], COL_STR_PLAIN);
        let widths = [0, 1, 2, 3, 256, 257, 1 << 17].map(|k| Packing::codes(k).width);
        assert_eq!(widths, [1, 1, 1, 2, 8, 9, 17]);
        // Every one of them is no larger than tagged cells, and round-trips.
        for r in [ints, wide, wide63, sorted, short, steps, ends, near_max, halves, signs, nulls, repeated, distinct] {
            let tagged: usize = r.iter().map(|row| row.get(0).encoded_size()).sum();
            assert!(encode_relation(&r).len() <= schema_len(&r) + tagged);
            assert_eq!(decode_relation(&encode_relation(&r)).unwrap(), r);
        }
    }

    /// One named case per refusal: every malformed column, and every
    /// well-formed one the encoder would not write.
    #[test]
    fn malformed_columns_are_clean_errors() {
        let int = Schema::of(&[("c", DataType::Int)]);
        let dbl = Schema::of(&[("c", DataType::Double)]);
        let txt = Schema::of(&[("c", DataType::Str)]);
        let two = Schema::of(&[("c", DataType::Int), ("d", DataType::Int)]);
        let word = 7i64.to_le_bytes();
        // A numeric run's header and run: the width byte, the minimum
        // below width 64, the offsets.
        let run = |width: u8, min: i64, run: &[u8]| {
            let min = if width < 64 { min.to_le_bytes().to_vec() } else { vec![] };
            [[width].as_slice(), &min, run].concat()
        };
        let numeric = |width: u8, min: i64, offsets: &[u8]| [[COL_NUMERIC].as_slice(), &run(width, min, offsets)].concat();
        // A delta-coded column: the first value, then the gaps' run.
        let delta = |first: i64, width: u8, min: i64, offsets: &[u8]| {
            [[COL_NUMERIC | COL_DELTA].as_slice(), &first.to_le_bytes(), &run(width, min, offsets)].concat()
        };
        // A dictionary column (no NULL): the strings, then the codes' run.
        let dict = |strings: &[&str], codes: &[u8]| {
            let mut e = Encoder::new();
            e.put_u8(COL_STR_DICT);
            e.put_u32(strings.len() as u32);
            strings.iter().for_each(|s| e.put_str(s));
            e.put_bytes(codes.iter().copied());
            e.finish()
        };
        let plain = |strings: &[&str]| {
            let mut e = Encoder::new();
            e.put_u8(COL_STR_PLAIN);
            strings.iter().for_each(|s| e.put_str(s));
            e.finish()
        };
        let bits = |v: f64| v.to_bits() as i64;
        // 32 sorted values 700 + i + i / 4, packed in 6 bits each: delta
        // coding takes 1 bit a gap, so the encoder delta-codes them.
        let sorted_offsets: Vec<u64> = (0..32).map(|i| i + i / 4).collect();
        let sorted_run = reference_pack(&sorted_offsets, 6);
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            ("unknown encoding", raw(&int, 1, &[0x42, 0, 0, 0, 0, 0, 0, 0, 0]), "unknown column encoding"),
            ("encoding byte 5, the retired tagged-cell column", raw(&int, 1, &[5, 1, 1, 0, 0, 0, 0, 0, 0, 0]), "unknown column encoding 0x05"),
            ("encoding byte 2, the retired raw Double run", raw(&dbl, 1, &[[2].as_slice(), &word].concat()), "unknown column encoding 0x02"),
            ("encoding byte 6, the retired packed Int run", raw(&int, 2, &[6, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0b10]), "unknown column encoding 0x06"),
            ("encoding byte 7, the retired delta-coded run", raw(&int, 2, &[7, 0, 0, 0, 0, 0, 0, 0, 0, 1]), "unknown column encoding 0x07"),
            ("encoding byte 8, the retired packed Double run", raw(&dbl, 8, &[8, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0]), "unknown column encoding 0x08"),
            ("the delta flag on a dictionary", raw(&txt, 1, &[COL_STR_DICT | COL_DELTA, 0, 0, 0, 0]), "unknown column encoding 0x43"),
            ("a numeric column under a Str field", raw(&txt, 1, &numeric(64, 0, &word)), "a numeric column under STR field c"),
            ("a string column under an Int field", raw(&int, 1, &plain(&["a"])), "a string column under INT field c"),
            ("a string column under a Double field", raw(&dbl, 1, &plain(&["a"])), "a string column under DOUBLE field c"),
            ("a delta-coded column under a Double field", raw(&dbl, 3, &delta(0, 1, 1, &[0b01])), "a delta-coded column under DOUBLE field c"),
            ("short i64 run", raw(&int, 2, &numeric(64, 0, &word)), "unexpected end of input"),
            ("short f64 run", raw(&dbl, 2, &[numeric(64, 0, &word).as_slice(), &[1, 2]].concat()), "unexpected end of input"),
            (
                "short bitmap",
                raw(&two, 9, &[[COL_NUMERIC | COL_NULLS, 1, 0, 64].as_slice(), &word, &[COL_NUMERIC | COL_NULLS, 1]].concat()),
                "unexpected end of input",
            ),
            ("bitmap past the rows", raw(&int, 2, &[[COL_NUMERIC | COL_NULLS, 0b101, 64].as_slice(), &word, &word].concat()), "past the row count"),
            // The row-count guard: every form takes at least a bit a row.
            ("rows far beyond the bytes", raw(&int, u32::MAX, &[COL_NUMERIC, 0, 0, 0]), "cannot fit"),
            ("u32::MAX rows under a width-1 header", raw(&int, u32::MAX, &numeric(1, 0, &[0; 8])), "cannot fit"),
            ("u32::MAX rows under a one-string dictionary", raw(&txt, u32::MAX, &dict(&["a"], &[0; 8])), "cannot fit"),
            ("u32::MAX rows of NULLs at width 64", raw(&int, u32::MAX, &[COL_NUMERIC | COL_NULLS, 0, 0, 0, 0, 64]), "cannot fit"),
            ("packed width 0", raw(&int, 2, &numeric(0, 0, &[0])), "packed width 0"),
            ("packed width 65", raw(&int, 2, &numeric(65, 0, &[0; 17])), "packed width 65"),
            ("short packed run", raw(&int, 9, &numeric(4, 0, &[0; 4])), "unexpected end of input"),
            ("packed pad bits", raw(&int, 3, &numeric(2, 0, &[0b0100_0000])), "past its last value"),
            ("packed offset past i64", raw(&int, 2, &numeric(1, i64::MAX, &[0b10])), "past i64"),
            ("packed Double past i64", raw(&dbl, 8, &numeric(1, i64::MAX, &[0b10])), "past i64"),
            ("delta gap sum past i64", raw(&int, 3, &delta(i64::MAX - 1, 1, 1, &[0b00])), "past i64"),
            ("delta gap past u64", raw(&int, 3, &delta(0, 1, -1, &[0b10])), "past i64"),
            (
                "delta with a validity bitmap",
                raw(&int, 3, &[[COL_NUMERIC | COL_DELTA | COL_NULLS, 0b011].as_slice(), &delta(0, 1, 1, &[0])[1..]].concat()),
                "delta-coded column with a validity bitmap",
            ),
            ("short delta run", raw(&int, 20, &delta(0, 4, 0, &[0; 4])), "unexpected end of input"),
            ("delta pad bits", raw(&int, 3, &delta(0, 2, 0, &[0b0001_0000])), "past its last value"),
            ("delta width 0", raw(&int, 3, &delta(0, 0, 0, &[0])), "packed width 0"),
            ("dictionary too long", raw(&txt, 1, &[COL_STR_DICT, 0xFF, 0xFF, 0xFF, 0x7F, 0]), "cannot fit"),
            ("dictionary repeats", raw(&txt, 2, &dict(&["a", "a"], &[0b10])), "repeats"),
            // Canonical forms: whatever the encoder would not write.
            ("packed wider than its offsets need", raw(&int, 2, &numeric(2, 0, &[0b01_00])), "packed width 2 where 1 bits"),
            ("packed minimum no row holds", raw(&int, 2, &numeric(1, 0, &[0b11])), "held by no value"),
            ("packed no smaller than its words", raw(&int, 1, &numeric(1, 5, &[0])), "1 words packed in 1 bits"),
            ("packed at width 63 where words are no larger", raw(&int, 2, &numeric(63, 0, &[0; 16])), "2 words packed in 63 bits"),
            (
                "a column of NULLs below width 64",
                raw(&int, 2, &[[COL_NUMERIC | COL_NULLS, 0].as_slice(), &run(1, 0, &[])].concat()),
                "0 words packed in 1 bits",
            ),
            ("words where packing is smaller", raw(&int, 2, &numeric(64, 0, &[5i64.to_le_bytes(), 6i64.to_le_bytes()].concat())), "where packing them is smaller"),
            ("Double words where packing is smaller", raw(&dbl, 8, &numeric(64, 0, &2.5f64.to_le_bytes().repeat(8))), "where packing them is smaller"),
            ("packed Double wider than needed", raw(&dbl, 8, &numeric(2, bits(2.5), &[0; 2])), "packed width 2 where 1 bits"),
            ("packed Double minimum no row holds", raw(&dbl, 8, &numeric(1, bits(2.5), &[0xFF])), "held by no value"),
            ("packed where delta coding is smaller", raw(&int, 32, &numeric(6, 700, &sorted_run)), "delta coding makes smaller"),
            ("delta wider than its gaps need", raw(&int, 3, &delta(0, 2, 1, &[0])), "packed width 2 where 1 bits"),
            ("delta gap minimum no gap holds", raw(&int, 3, &delta(0, 1, 1, &[0b11])), "held by no value"),
            ("delta no smaller than numeric", raw(&int, 3, &delta(0, 1, 1, &[0b10])), "not smaller than its numeric form"),
            ("delta gaps as words", raw(&int, 2, &delta(0, 64, 0, &5i64.to_le_bytes())), "not smaller than its numeric form"),
            ("code past a one-string dictionary", raw(&txt, 1, &dict(&["a"], &[0b1])), "out of first-occurrence order"),
            ("dictionary entries out of first occurrence", raw(&txt, 3, &dict(&["alpha", "beta"], &[0b001])), "out of first-occurrence order"),
            ("dictionary entry unused", raw(&txt, 3, &dict(&["alpha", "beta"], &[0b000])), "a dictionary of 2 strings whose codes use 1"),
            ("code past the dictionary, in order", raw(&txt, 3, &dict(&["alpha"], &[0b110])), "a dictionary of 1 strings whose codes use 2"),
            ("dictionary no smaller than plain", raw(&txt, 2, &dict(&["a", "b"], &[0b10])), "no smaller than its plain strings"),
            ("plain where a dictionary is smaller", raw(&txt, 50, &plain(&["alpha"; 50])), "a dictionary makes smaller"),
            (
                "dictionary of NULLs only",
                raw(&txt, 2, &[COL_STR_DICT | COL_NULLS, 0, 0, 0, 0, 0]),
                "no smaller than its plain strings",
            ),
        ];
        for (what, bytes, want) in cases {
            let err = decode_relation(&bytes).expect_err(what).to_string();
            assert!(err.contains(want), "{what}: {err}");
        }
        let mut trailing = encode_relation(&sample());
        trailing.extend_from_slice(&[COL_NUMERIC, 0]);
        assert!(decode_relation(&trailing)
            .unwrap_err()
            .to_string()
            .contains("trailing"));
    }

    /// The scalar reference writer: each offset's bits set one at a time,
    /// LSB-first, `width` bits apiece.
    fn reference_pack(offsets: &[u64], width: usize) -> Vec<u8> {
        let mut run = vec![0u8; (offsets.len() * width).div_ceil(8)];
        for (i, &off) in offsets.iter().enumerate() {
            for b in (0..width).filter(|&b| off >> b & 1 == 1) {
                let bit = i * width + b;
                run[bit / 8] |= 1 << (bit % 8);
            }
        }
        run
    }

    /// The scalar reference reader: offset `i` gathered bit by bit.
    fn reference_unpack(run: &[u8], n: usize, width: usize) -> Vec<u64> {
        (0..n)
            .map(|i| (0..width).fold(0, |v, b| v | u64::from(run[(i * width + b) / 8] >> ((i * width + b) % 8) & 1) << b))
            .collect()
    }

    /// Every width's block routines against the bit-by-bit reference, at
    /// lengths around the 64-offset block: the same bytes packed, the same
    /// offsets unpacked, and the fold's bits and zero exact.
    #[test]
    fn block_kernels_match_a_bit_by_bit_reference() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for width in 1..=64 {
            let mask = u64::MAX >> (64 - width);
            for n in [0, 1, 63, 64, 65, 127, 128, 129] {
                let offsets: Vec<u64> = (0..n)
                    .map(|i| match (i + width) % 7 {
                        0 => mask,
                        1 if n > 64 => 0,
                        _ => {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            (state & mask).max(1)
                        }
                    })
                    .collect();
                let what = format!("width {width}, {n} offsets");
                let want = reference_pack(&offsets, width);
                let mut enc = Encoder::new();
                enc.put_packed(n, width, |first, block| block.copy_from_slice(&offsets[first..first + block.len()]));
                assert_eq!(enc.finish(), want, "{what}");
                assert_eq!(reference_unpack(&want, n, width), offsets, "{what}");
                let mut got = Vec::new();
                let span = unpack(&want, n, width, |block| got.extend_from_slice(block));
                assert_eq!(got, offsets, "{what}");
                assert_eq!(span.bits, offsets.iter().fold(0, |a, &b| a | b), "{what}");
                assert_eq!(span.zero, offsets.contains(&0), "{what}");
            }
        }
    }

    #[test]
    fn encoded_size_is_exact() {
        // The size is the body's own (`body_size`): the mixed sample, a
        // repeated-string column and a NULL-heavy one.
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
            assert_eq!(r.encoded_size(), encode_relation(&r).len(), "of\n{r}");
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
