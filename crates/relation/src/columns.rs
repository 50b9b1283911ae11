//! Columnar physical layout for relations.
//!
//! A [`Columns`] store holds one typed vector per column — `Vec<i64>` for
//! integer columns, `Vec<f64>` for doubles, dictionary-encoded `u32` codes
//! plus an interned string table for strings, each with an optional
//! validity [`Bitmap`] marking non-`NULL` rows. A column holds exactly its
//! field's declared type: a relation refuses a value or column of another
//! type at construction ([`crate::Relation::new`]), so no layer needs a
//! representation for columns that mix types.
//!
//! It is every relation's store ([`crate::Relation::columns`]), and the
//! relational operators work on it: a projection shares columns, a
//! selection, a sort or a distinct gathers them ([`Column::gather`]), a
//! union concatenates them ([`Column::concat`]). Rows are the API edge's
//! view: [`Columns::from_rows`] is the one path from rows to columns and
//! [`Columns::to_rows`] its inverse, lossless both ways (`NaN` bit
//! patterns, `-0.0`, `NULL`s and shared `Str` handles all survive). The
//! wire codec ships a relation as these columns ([`crate::codec`]), and
//! decodes a frame back into them.
//!
//! The vectorized GMDJ kernel consumes this layout: aggregate inner loops
//! run over `&[i64]` / `&[f64]` slices. Grouping compares *canonical
//! keys* ([`canon_i64`] / [`canon_f64`] plus dictionary codes) instead of
//! [`Value`] enums: a relation's local groups
//! ([`crate::Relation::groups`]) and the kernel's map from those groups
//! to base tuples both index ids by [`canon_hash`] in an [`IdTable`].

use crate::row::Row;
use crate::schema::Schema;
use crate::value::{f64_is_i64, total_f64_cmp, DataType, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A fixed-length bitmap (one bit per row). Used as a validity mask:
/// a set bit means the row holds a real value, a clear bit means `NULL`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-clear bitmap of `len` bits.
    pub fn new(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// The validity of `len` rows, row `i` valid where `valid(i)`: `None`
    /// when every row is (a column without `NULL`s has no bitmap).
    pub fn of(len: usize, valid: impl Fn(usize) -> bool) -> Option<Bitmap> {
        let mut b = Bitmap::new(len);
        let mut all = true;
        for (w, word) in b.words.iter_mut().enumerate() {
            let lo = w * 64;
            for i in lo..(lo + 64).min(len) {
                *word |= (valid(i) as u64) << (i - lo);
            }
            all &= *word == u64::MAX >> (64 - (len - lo).min(64));
        }
        (!all).then_some(b)
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// The bits as `len.div_ceil(8)` little-endian bytes, bit `i` at bit
    /// `i % 8` of byte `i / 8` (the codec's validity bitmap).
    pub fn to_le_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .take(self.len.div_ceil(8))
    }

    /// The inverse of [`Bitmap::to_le_bytes`]: `None` unless `bytes` is
    /// `len.div_ceil(8)` long with every bit past `len` clear.
    pub fn from_le_bytes(bytes: &[u8], len: usize) -> Option<Bitmap> {
        if bytes.len() != len.div_ceil(8) {
            return None;
        }
        let mut b = Bitmap::new(len);
        for (w, chunk) in b.words.iter_mut().zip(bytes.chunks(8)) {
            let mut le = [0u8; 8];
            le[..chunk.len()].copy_from_slice(chunk);
            *w = u64::from_le_bytes(le);
        }
        let tail = len % 64;
        match b.words.last() {
            Some(&last) if tail != 0 && last >> tail != 0 => None,
            _ => Some(b),
        }
    }
}

/// One physical column: a typed vector with an optional validity bitmap
/// (`None` ⇒ no `NULL`s).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// An `INT` column. `data[i]` is meaningful only where
    /// `valid` is set (or everywhere when `valid` is `None`).
    Int {
        /// The integer values (0 at `NULL` rows).
        data: Vec<i64>,
        /// Validity mask; `None` means no `NULL`s.
        valid: Option<Bitmap>,
    },
    /// A `DOUBLE` column. Bit patterns are preserved
    /// exactly (`NaN` payloads, `-0.0`).
    Double {
        /// The double values (0.0 at `NULL` rows).
        data: Vec<f64>,
        /// Validity mask; `None` means no `NULL`s.
        valid: Option<Bitmap>,
    },
    /// A `STR` column, dictionary-encoded: `codes[i]`
    /// indexes `dict`, which holds each distinct string once, in first
    /// occurrence order ([`ColumnBuilder`]'s rule; [`crate::codec`] refuses
    /// any other). Rows sharing a string share one `Arc`.
    Str {
        /// Per-row dictionary codes (0 at `NULL` rows).
        codes: Vec<u32>,
        /// The interned string table.
        dict: Vec<Arc<str>>,
        /// Validity mask; `None` means no `NULL`s.
        valid: Option<Bitmap>,
    },
}

impl Column {
    /// The value at row `i` (clones are cheap: `Str` shares the interned
    /// `Arc`).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int { data, valid } => match valid {
                Some(v) if !v.get(i) => Value::Null,
                _ => Value::Int(data[i]),
            },
            Column::Double { data, valid } => match valid {
                Some(v) if !v.get(i) => Value::Null,
                _ => Value::Double(data[i]),
            },
            Column::Str { codes, dict, valid } => match valid {
                Some(v) if !v.get(i) => Value::Null,
                _ => Value::Str(Arc::clone(&dict[codes[i] as usize])),
            },
        }
    }

    /// The column's type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int { .. } => DataType::Int,
            Column::Double { .. } => DataType::Double,
            Column::Str { .. } => DataType::Str,
        }
    }

    /// The validity mask (`None`: no `NULL`s).
    #[inline]
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::Int { valid, .. } | Column::Double { valid, .. } | Column::Str { valid, .. } => {
                valid.as_ref()
            }
        }
    }

    /// Is row `i` non-`NULL`?
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity().is_none_or(|v| v.get(i))
    }

    /// Push row `i`'s value onto `rows[i]`, for every row.
    fn push_values(&self, rows: &mut [Vec<Value>]) {
        fn fill<T: Copy>(rows: &mut [Vec<Value>], data: &[T], valid: &Option<Bitmap>, v: impl Fn(T) -> Value) {
            match valid {
                None => rows.iter_mut().zip(data).for_each(|(r, &x)| r.push(v(x))),
                Some(b) => {
                    for (i, (r, &x)) in rows.iter_mut().zip(data).enumerate() {
                        r.push(if b.get(i) { v(x) } else { Value::Null });
                    }
                }
            }
        }
        match self {
            Column::Int { data, valid } => fill(rows, data, valid, Value::Int),
            Column::Double { data, valid } => fill(rows, data, valid, Value::Double),
            Column::Str { codes, dict, valid } => {
                fill(rows, codes, valid, |k| Value::Str(Arc::clone(&dict[k as usize])))
            }
        }
    }

    /// Is row `i` [`Value`]-equal to `v`? Compares in place, without
    /// building the row's value.
    #[inline]
    pub fn value_eq(&self, i: usize, v: &Value) -> bool {
        if !self.is_valid(i) {
            return v.is_null();
        }
        match self {
            Column::Int { data, .. } => *v == Value::Int(data[i]),
            Column::Double { data, .. } => *v == Value::Double(data[i]),
            Column::Str { codes, dict, .. } => v.as_str() == Some(&*dict[codes[i] as usize]),
        }
    }

    /// The canonical `(tag, word)` [`row_key_hash`] mixes in for row `i`:
    /// strings by content, so it needs no interner.
    #[inline]
    fn key_word(&self, i: usize) -> (u8, u64) {
        if !self.is_valid(i) {
            return CANON_NULL;
        }
        match self {
            Column::Int { data, .. } => canon_i64(data[i]),
            Column::Double { data, .. } => canon_f64(data[i]),
            Column::Str { codes, dict, .. } => (CANON_STR_TAG, str_word(&dict[codes[i] as usize])),
        }
    }

    /// The dictionary codes, string table and validity, if this is a
    /// `Str` column.
    pub fn as_str_dict(&self) -> Option<StrDictView<'_>> {
        match self {
            Column::Str { codes, dict, valid } => Some((codes, dict, valid.as_ref())),
            _ => None,
        }
    }
}

/// Borrowed view of a dictionary-encoded string column: `(codes, dict,
/// validity)`.
pub type StrDictView<'a> = (&'a [u32], &'a [Arc<str>], Option<&'a Bitmap>);

/// The columnar store of one relation: `arity` typed columns of equal
/// length, each shared with whatever else holds it (a projection, a
/// clone, a relation made of other relations' columns).
#[derive(Debug, Clone, PartialEq)]
pub struct Columns {
    len: usize,
    cols: Vec<Arc<Column>>,
}

impl Columns {
    /// Build the columnar store from row-major data, every column in one
    /// pass: each the typed vector of its declared type
    /// ([`ColumnBuilder`]'s rule). The one path from rows to columns.
    ///
    /// # Panics
    /// If a value is neither `NULL` nor of its field's type.
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> Columns {
        let cols = (schema.fields().iter().enumerate())
            .map(|(c, f)| {
                let mut b = ColumnBuilder::new(f.data_type(), rows.len());
                b.extend(rows.iter().map(|r| r.get(c)));
                Arc::new(b.finish())
            })
            .collect();
        Columns::from_shared(rows.len(), cols)
    }

    /// The view over already-built columns of `len` rows each, shared
    /// with whatever else holds them.
    pub fn from_shared(len: usize, cols: Vec<Arc<Column>>) -> Columns {
        debug_assert!(cols.iter().all(|c| c.len() == len));
        Columns { len, cols }
    }

    /// The shared columns.
    pub(crate) fn shared(&self) -> &[Arc<Column>] {
        &self.cols
    }

    /// The store of `cols`, each `len` rows long (a decoded frame body).
    pub fn new(len: usize, cols: Vec<Column>) -> Columns {
        Columns::from_shared(len, cols.into_iter().map(Arc::new).collect())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> &Column {
        &self.cols[c]
    }

    /// The value at (`c`, `row`).
    #[inline]
    pub fn value(&self, c: usize, row: usize) -> Value {
        self.cols[c].value(row)
    }

    /// [`row_key_hash`] of row `i`'s values in the leading `key_len` columns,
    /// read in place.
    #[inline]
    pub fn key_hash(&self, key_len: usize, i: usize) -> u64 {
        row_key_hash(self.cols[..key_len].iter().map(|c| &**c), i)
    }

    /// Materialize all rows (the inverse of [`Columns::from_rows`]),
    /// filled a column at a time.
    pub fn to_rows(&self) -> Vec<Row> {
        let mut rows: Vec<Vec<Value>> =
            (0..self.len).map(|_| Vec::with_capacity(self.cols.len())).collect();
        for c in &self.cols {
            c.push_values(&mut rows);
        }
        rows.into_iter().map(Row::new).collect()
    }
}

/// A column of one declared type, built one value at a time under the
/// **representation rule** every path that makes a [`Column`] keeps —
/// rows ([`Columns::from_rows`]), a gather ([`Column::gather`]), a
/// concatenation ([`Column::concat`]), the generators, the kernel's typed
/// states and the codec alike:
///
/// - the column is its declared type's vector, with a validity bitmap
///   only when it holds a `NULL`, and 0 (or code 0) at its `NULL` rows;
/// - a string column's dictionary holds each string once, in first
///   occurrence order.
///
/// So a column's layout is a function of its values and declared type
/// alone, and the codec's bytes ([`crate::codec`]) are too, whichever
/// path built it.
#[derive(Debug)]
pub struct ColumnBuilder {
    len: usize,
    /// Rows pushed so far.
    at: usize,
    form: Form,
}

/// The vector a [`ColumnBuilder`] fills: its declared type's.
#[derive(Debug)]
enum Form {
    Int(Vec<i64>, Option<Bitmap>),
    Double(Vec<f64>, Option<Bitmap>),
    Str {
        codes: Vec<u32>,
        dict: Vec<Arc<str>>,
        intern: HashMap<Arc<str>, u32>,
        valid: Option<Bitmap>,
    },
}

impl ColumnBuilder {
    /// A builder for a column of exactly `len` values of declared type
    /// `declared`.
    pub fn new(declared: DataType, len: usize) -> ColumnBuilder {
        let form = match declared {
            DataType::Int => Form::Int(vec![0; len], None),
            DataType::Double => Form::Double(vec![0.0; len], None),
            DataType::Str => Form::Str {
                codes: vec![0; len],
                dict: Vec::new(),
                intern: HashMap::new(),
                valid: None,
            },
        };
        ColumnBuilder { len, at: 0, form }
    }

    /// Append the next value.
    ///
    /// # Panics
    /// As [`ColumnBuilder::extend`].
    #[inline]
    pub fn push(&mut self, v: &Value) {
        self.extend(std::iter::once(v));
    }

    /// Append `values`, in order, as [`ColumnBuilder::push`] would one at
    /// a time: one tight loop, left only where a first `NULL` makes the
    /// bitmap.
    ///
    /// # Panics
    /// On a value that is neither `NULL` nor of the declared type (a
    /// relation refuses those at construction), and may panic past `len`
    /// values in all.
    #[inline]
    pub fn extend<'a>(&mut self, values: impl IntoIterator<Item = &'a Value>) {
        let mut values = values.into_iter();
        while let Some(v) = self.run(&mut values) {
            self.first_null(v);
        }
    }

    /// The layout's loop over `values`, up to the first value it cannot
    /// take, which it returns.
    #[inline]
    fn run<'a>(&mut self, values: &mut impl Iterator<Item = &'a Value>) -> Option<&'a Value> {
        let at = &mut self.at;
        match &mut self.form {
            Form::Int(data, valid) => typed_run(data, valid.as_mut(), at, values, |v| match v {
                Value::Int(x) => Some(*x),
                _ => None,
            }),
            Form::Double(data, valid) => typed_run(data, valid.as_mut(), at, values, |v| match v {
                Value::Double(x) => Some(*x),
                _ => None,
            }),
            Form::Str {
                codes,
                dict,
                intern,
                valid,
            } => typed_run(codes, valid.as_mut(), at, values, |v| match v {
                Value::Str(x) => Some(*intern.entry(Arc::clone(x)).or_insert_with(|| {
                    dict.push(Arc::clone(x));
                    (dict.len() - 1) as u32
                })),
                _ => None,
            }),
        }
    }

    /// The next row holds `v`, which the loop did not take: a first
    /// `NULL`, which makes the bitmap (every earlier row valid).
    #[cold]
    #[inline(never)]
    fn first_null(&mut self, v: &Value) {
        assert!(v.is_null(), "{v:?} in a column of another type");
        let (Form::Int(_, valid) | Form::Double(_, valid) | Form::Str { valid, .. }) = &mut self.form;
        let mut b = Bitmap::new(self.len);
        (0..self.at).for_each(|j| b.set(j));
        *valid = Some(b);
        self.at += 1;
    }

    /// The column.
    ///
    /// # Panics
    /// Debug-asserts that exactly `len` values were pushed.
    pub fn finish(self) -> Column {
        debug_assert_eq!(self.at, self.len, "fewer values than the builder's length");
        match self.form {
            Form::Int(data, valid) => Column::Int { data, valid },
            Form::Double(data, valid) => Column::Double { data, valid },
            Form::Str {
                codes, dict, valid, ..
            } => Column::Str { codes, dict, valid },
        }
    }
}

/// One typed layout's loop: each value `word` maps to a word is written
/// at the next row (its bit set, if the column has a bitmap); a `NULL`
/// leaves its row 0 (and clear). Returns the first value `word` rejects,
/// or a first `NULL` while there is no bitmap yet, without taking it.
#[inline]
fn typed_run<'a, T>(
    data: &mut [T],
    mut valid: Option<&mut Bitmap>,
    at: &mut usize,
    values: &mut impl Iterator<Item = &'a Value>,
    mut word: impl FnMut(&Value) -> Option<T>,
) -> Option<&'a Value> {
    let mut i = *at;
    let stop = loop {
        let Some(v) = values.next() else { break None };
        if v.is_null() {
            if valid.is_none() {
                break Some(v);
            }
        } else {
            let Some(x) = word(v) else { break Some(v) };
            data[i] = x;
            if let Some(b) = &mut valid {
                b.set(i);
            }
        }
        i += 1;
    };
    *at = i;
    stop
}

impl Column {
    /// `len` `NULL`s of type `declared`: the rule's column of no value.
    pub fn nulls(declared: DataType, len: usize) -> Column {
        let valid = (len > 0).then(|| Bitmap::new(len));
        match declared {
            DataType::Int => Column::Int {
                data: vec![0; len],
                valid,
            },
            DataType::Double => Column::Double {
                data: vec![0.0; len],
                valid,
            },
            DataType::Str => Column::Str {
                codes: vec![0; len],
                dict: Vec::new(),
                valid,
            },
        }
    }

    /// Rows `at` of this column, in that order, as the column of their
    /// values ([`ColumnBuilder`]'s rule: typed vectors are gathered, and a
    /// string dictionary is renumbered in first occurrence order).
    pub fn gather(&self, at: &[u32]) -> Column {
        let n = at.len();
        let valid = self
            .validity()
            .and_then(|b| Bitmap::of(n, |k| b.get(at[k] as usize)));
        match self {
            Column::Int { data, .. } => Column::Int {
                data: at.iter().map(|&i| data[i as usize]).collect(),
                valid,
            },
            Column::Double { data, .. } => Column::Double {
                data: at.iter().map(|&i| data[i as usize]).collect(),
                valid,
            },
            Column::Str { codes, dict, .. } => {
                // Old code → new code + 1 (0: not seen yet). An array
                // over the dictionary unless the dictionary is far longer
                // than the gather; then a map, so a short slice of a
                // large dictionary (a row-blocked chunk) costs about its
                // own length, not the dictionary's.
                let dense_len = if dict.len() <= 64 * n { dict.len() } else { 0 };
                let mut dense = vec![0u32; dense_len];
                let mut sparse: HashMap<u32, u32> = HashMap::new();
                let mut out = Vec::new();
                let codes = at
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| {
                        if !valid.as_ref().is_none_or(|b| b.get(k)) {
                            return 0;
                        }
                        let old = codes[i as usize];
                        let slot = match dense.get_mut(old as usize) {
                            Some(slot) => slot,
                            None => sparse.entry(old).or_insert(0),
                        };
                        if *slot == 0 {
                            out.push(Arc::clone(&dict[old as usize]));
                            *slot = out.len() as u32;
                        }
                        *slot - 1
                    })
                    .collect();
                Column::Str {
                    codes,
                    dict: out,
                    valid,
                }
            }
        }
    }

    /// The rows of `parts`, one part after another, as one column of type
    /// `declared`, built under [`ColumnBuilder`]'s rule.
    ///
    /// # Panics
    /// If a part holds a value of another type than `declared`.
    pub fn concat(declared: DataType, parts: &[&Column]) -> Column {
        let mut b = ColumnBuilder::new(declared, parts.iter().map(|c| c.len()).sum());
        for c in parts {
            (0..c.len()).for_each(|i| b.push(&c.value(i)));
        }
        b.finish()
    }

    /// Rows `i` and `j` in [`Value`]'s order, read in place: `NULL`
    /// first, numbers natively, strings through the dictionary.
    #[inline]
    pub fn cmp_rows(&self, i: usize, j: usize) -> std::cmp::Ordering {
        self.cmp_at(i, self, j)
    }

    /// Row `i` of this column against row `j` of `other`, in [`Value`]'s
    /// order ([`Column::cmp_rows`] across two columns): read in place when
    /// the two share a type. It agrees with [`Column::value_eq_at`]:
    /// `-0.0` equals `0.0`, every `NaN` equals every other, `NULL` equals
    /// `NULL`.
    #[inline]
    pub fn cmp_at(&self, i: usize, other: &Column, j: usize) -> std::cmp::Ordering {
        match (self.is_valid(i), other.is_valid(j)) {
            (true, true) => {}
            (a, b) => return a.cmp(&b),
        }
        match (self, other) {
            (Column::Int { data: a, .. }, Column::Int { data: b, .. }) => a[i].cmp(&b[j]),
            (Column::Double { data: a, .. }, Column::Double { data: b, .. }) => total_f64_cmp(a[i], b[j]),
            (Column::Str { codes: a, dict: da, .. }, Column::Str { codes: b, dict: db, .. }) => {
                da[a[i] as usize].cmp(&db[b[j] as usize])
            }
            _ => self.value(i).cmp(&other.value(j)),
        }
    }

    /// Is row `i` of this column [`Value`]-equal to row `j` of `other`?
    /// Compares in place when the two share a type.
    #[inline]
    pub fn value_eq_at(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self.is_valid(i), other.is_valid(j)) {
            (true, true) => {}
            (a, b) => return a == b,
        }
        match (self, other) {
            (Column::Int { data: a, .. }, Column::Int { data: b, .. }) => a[i] == b[j],
            (Column::Double { data: a, .. }, Column::Double { data: b, .. }) => {
                total_f64_cmp(a[i], b[j]).is_eq()
            }
            (Column::Str { codes: a, dict: da, .. }, Column::Str { codes: b, dict: db, .. }) => {
                da[a[i] as usize] == db[b[j] as usize]
            }
            _ => other.value_eq(j, &self.value(i)),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { data, .. } => data.len(),
            Column::Double { data, .. } => data.len(),
            Column::Str { codes, .. } => codes.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the column's values take in memory: 8 per `Int` or `Double`
    /// row, 4 (a code) per `Str` row plus its dictionary's strings, and
    /// the validity bitmap's bytes.
    pub(crate) fn memory_size(&self) -> usize {
        let bitmap = self.validity().map_or(0, |b| b.len().div_ceil(8));
        bitmap
            + match self {
                Column::Int { data, .. } => 8 * data.len(),
                Column::Double { data, .. } => 8 * data.len(),
                Column::Str { codes, dict, .. } => {
                    4 * codes.len() + dict.iter().map(|s| s.len()).sum::<usize>()
                }
            }
    }

    /// Canonicalize the column for grouping: per row the `(tag, word)`
    /// pair of [`canon_value`]. Dictionary-encoded string columns turn
    /// their codes into words directly (one pass over `u32`s, no hashing).
    pub(crate) fn canon_keys(&self) -> CanonKeys {
        let len = self.len();
        let mut tags = vec![0u8; len];
        let mut words = vec![0u64; len];
        match self {
            Column::Int { data, valid } => {
                for i in 0..len {
                    if valid.as_ref().is_none_or(|b| b.get(i)) {
                        (tags[i], words[i]) = canon_i64(data[i]);
                    }
                }
            }
            Column::Double { data, valid } => {
                for i in 0..len {
                    if valid.as_ref().is_none_or(|b| b.get(i)) {
                        (tags[i], words[i]) = canon_f64(data[i]);
                    }
                }
            }
            Column::Str { codes, valid, .. } => {
                for i in 0..len {
                    if valid.as_ref().is_none_or(|b| b.get(i)) {
                        tags[i] = CANON_STR_TAG;
                        words[i] = codes[i] as u64;
                    }
                }
            }
        }
        CanonKeys { tags, words }
    }
}

/// One key column's canonical `(tag, word)` pairs, one per element (a row,
/// a group, a base tuple). A key is a slice of these, one per key column,
/// read at one index: see [`canon_hash`] and [`canon_eq`].
#[derive(Debug)]
pub struct CanonKeys {
    tags: Vec<u8>,
    words: Vec<u64>,
}

impl FromIterator<(u8, u64)> for CanonKeys {
    fn from_iter<I: IntoIterator<Item = (u8, u64)>>(pairs: I) -> CanonKeys {
        let (tags, words) = pairs.into_iter().unzip();
        CanonKeys { tags, words }
    }
}

/// Mix one canonical component into a running hash (a 64-bit multiply-
/// xorshift: hash tables over canonical keys need consistency between
/// their build and probe sides, not SipHash strength).
#[inline]
fn mix64(mut h: u64, v: u64) -> u64 {
    h ^= v;
    h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 29)
}

/// The canonical hash of the key at index `i` of `keys` (one entry per key
/// column). Equal keys under one interner hash equally.
#[inline]
pub fn canon_hash(keys: &[CanonKeys], i: usize) -> u64 {
    keys.iter().fold(0x51CA_11A0_C0FF_EE00, |h, k| {
        mix64(mix64(h, k.tags[i] as u64), k.words[i])
    })
}

/// The hash of row `i`'s key in the columns `cols`, read in place, that
/// agrees with [`Value`]'s `Eq` whatever the columns' layouts: numbers and
/// `NULL` mix in their canonical pairs ([`canon_i64`], [`canon_f64`],
/// [`CANON_NULL`]), strings their bytes — so keys index an [`IdTable`]
/// with no interner shared between the sides that probe it.
#[inline]
pub fn row_key_hash<'a>(cols: impl IntoIterator<Item = &'a Column>, i: usize) -> u64 {
    cols.into_iter().map(|c| c.key_word(i)).fold(KEY_SEED, mix_key_word)
}

const KEY_SEED: u64 = 0x51CA_11A0_C0FF_EE00;

#[inline]
fn mix_key_word(h: u64, (tag, word): (u8, u64)) -> u64 {
    mix64(mix64(h, tag as u64), word)
}

/// A string's content word.
fn str_word(s: &str) -> u64 {
    let bytes = s.as_bytes();
    bytes.chunks(8).fold(bytes.len() as u64, |w, c| {
        let mut le = [0u8; 8];
        le[..c.len()].copy_from_slice(c);
        mix64(w, u64::from_le_bytes(le))
    })
}

/// Is the key at index `i` of `a` equal to the key at index `j` of `b`
/// (both canonicalized under one interner, over the same key columns)?
#[inline]
pub fn canon_eq(a: &[CanonKeys], i: usize, b: &[CanonKeys], j: usize) -> bool {
    a.iter()
        .zip(b)
        .all(|(a, b)| a.tags[i] == b.tags[j] && a.words[i] == b.words[j])
}

/// Dense ids `0..len` indexed by their keys' canonical hashes: open
/// addressing with linear probing, grown at half load. The caller holds
/// the keys and decides equality, so the table stores no key, and it
/// allocates per doubling of its ids, never per probe.
#[derive(Debug)]
pub struct IdTable {
    /// Slot → id + 1 (0 = empty); a power of two long.
    slots: Vec<u32>,
    /// Per id: its hash (for growth, and to skip most key comparisons).
    hashes: Vec<u64>,
}

impl IdTable {
    /// An empty table sized for `n` ids without growing.
    pub fn with_capacity(n: usize) -> IdTable {
        IdTable {
            slots: vec![0; (n.max(8) * 2).next_power_of_two()],
            hashes: Vec::with_capacity(n),
        }
    }

    /// The id hashed `h` whose key `eq` accepts, if there is one.
    #[inline]
    pub fn find(&self, h: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut s = h as usize & mask;
        loop {
            let id = match self.slots[s] {
                0 => return None,
                slot => (slot - 1) as usize,
            };
            if self.hashes[id] == h && eq(id) {
                return Some(id);
            }
            s = (s + 1) & mask;
        }
    }

    /// Give the next id to a key hashed `h` that [`IdTable::find`] does
    /// not hold, and return it.
    pub fn insert(&mut self, h: u64) -> usize {
        if (self.hashes.len() + 1) * 2 > self.slots.len() {
            self.rehash(self.slots.len() * 2);
        }
        let id = self.hashes.len();
        assert!(id < u32::MAX as usize, "more than u32::MAX ids");
        place(&mut self.slots, h, id);
        self.hashes.push(h);
        id
    }

    /// Lay the ids out again over `slots` slots.
    fn rehash(&mut self, slots: usize) {
        let mut grown = vec![0u32; slots];
        for (id, &h) in self.hashes.iter().enumerate() {
            place(&mut grown, h, id);
        }
        self.slots = grown;
    }

    /// How many ids have been given out.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True if no id has been given out.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }
}

/// Put `id` in the first empty slot from `h`'s home slot on.
fn place(slots: &mut [u32], h: u64, id: usize) {
    let mask = slots.len() - 1;
    let mut s = h as usize & mask;
    while slots[s] != 0 {
        s = (s + 1) & mask;
    }
    slots[s] = id as u32 + 1;
}

/// A string interner: maps each distinct string to one `u32` code, shared
/// between the two sides of an equality probe so equal strings always
/// canonicalize to equal words.
#[derive(Debug, Default)]
pub struct StrCodes {
    map: HashMap<Arc<str>, u32>,
}

impl StrCodes {
    fn code(&mut self, s: &Arc<str>) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(Arc::clone(s)).or_insert(next)
    }
}

/// The canonical `(tag, word)` of one value, interning strings: two values
/// are [`Value`]-equal iff their pairs (under one interner) are equal.
pub fn canon_value(v: &Value, codes: &mut StrCodes) -> (u8, u64) {
    match v {
        Value::Null => CANON_NULL,
        Value::Int(i) => canon_i64(*i),
        Value::Double(d) => canon_f64(*d),
        Value::Str(s) => (CANON_STR_TAG, codes.code(s) as u64),
    }
}

/// Canonical key of an integer value: the `(tag, word)` pair such that two
/// values compare [`Value`]-equal iff their canonical keys are equal
/// (strings are interned to codes by the caller; `NULL` is [`CANON_NULL`]).
/// Mirrors [`Value`]'s `Hash` normalization: integral doubles share the
/// integer tag, so `Int(2)` and `Double(2.0)` canonicalize identically.
#[inline]
pub fn canon_i64(i: i64) -> (u8, u64) {
    (1, i as u64)
}

/// Canonical key of a double value — see [`canon_i64`]. `NaN` collapses to
/// one bit pattern and `-0.0` to `+0.0` (integral, hence `Int(0)`).
#[inline]
pub fn canon_f64(d: f64) -> (u8, u64) {
    if f64_is_i64(d) {
        (1, d as i64 as u64)
    } else if d.is_nan() {
        (2, f64::NAN.to_bits())
    } else {
        (2, d.to_bits())
    }
}

/// Canonical key of `NULL`. `NULL = NULL` holds under the total value
/// order, so equi-key probes must treat two `NULL` keys as a match.
pub const CANON_NULL: (u8, u64) = (0, 0);

/// The tag canonical string keys use; the word is a dictionary code.
pub const CANON_STR_TAG: u8 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Schema;

    fn schema3() -> Schema {
        Schema::of(&[
            ("i", DataType::Int),
            ("d", DataType::Double),
            ("s", DataType::Str),
        ])
    }

    #[test]
    fn typed_columns_round_trip() {
        let rows = vec![
            row![1i64, 1.5, "a"],
            row![2i64, -0.0, "b"],
            row![3i64, f64::NAN, "a"],
        ];
        let cols = Columns::from_rows(&schema3(), &rows);
        assert!(matches!(cols.col(0), Column::Int { valid: None, .. }));
        assert!(matches!(cols.col(1), Column::Double { valid: None, .. }));
        let (codes, dict, _) = cols.col(2).as_str_dict().unwrap();
        assert_eq!(dict.len(), 2, "dictionary holds distinct strings once");
        assert_eq!(codes, &[0, 1, 0]);
        let back = cols.to_rows();
        assert_eq!(back.len(), 3);
        // Bit-exact doubles: -0.0 and NaN survive.
        match back[1].get(1) {
            Value::Double(d) => assert_eq!(d.to_bits(), (-0.0f64).to_bits()),
            other => panic!("unexpected {other:?}"),
        }
        match back[2].get(1) {
            Value::Double(d) => assert!(d.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
        // Interning: equal strings share one Arc.
        match (back[0].get(2), back[2].get(2)) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("expected strings"),
        }
    }

    #[test]
    fn nulls_get_validity_bitmaps() {
        let rows = vec![
            row![1i64, Value::Null, "a"],
            row![Value::Null, 2.0, Value::Null],
        ];
        let cols = Columns::from_rows(&schema3(), &rows);
        for c in 0..3 {
            assert!(cols.col(c).is_valid(0) != (c == 1));
        }
        assert_eq!(cols.value(0, 1), Value::Null);
        assert_eq!(cols.value(1, 0), Value::Null);
        assert_eq!(cols.to_rows(), rows);
    }

    #[test]
    fn mixed_column_is_refused() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let rows = vec![row![1i64], row!["s"], row![Value::Null]];
        let err = crate::Relation::new(schema, rows).unwrap_err();
        assert!(matches!(err, crate::Error::SchemaMismatch(_)), "{err}");
    }

    #[test]
    fn empty_and_all_null_use_schema_type() {
        let schema = schema3();
        let cols = Columns::from_rows(&schema, &[]);
        assert!(matches!(cols.col(0), Column::Int { .. }));
        assert!(matches!(cols.col(1), Column::Double { .. }));
        assert!(matches!(cols.col(2), Column::Str { .. }));
        let rows = vec![row![Value::Null, Value::Null, Value::Null]];
        let cols = Columns::from_rows(&schema, &rows);
        assert!(matches!(cols.col(2), Column::Str { .. }));
        assert_eq!(cols.to_rows(), rows);
    }

    /// The same column to the bit: variant, validity, data bits (at
    /// every row, `NULL` rows included), codes and dictionary.
    fn same(a: &Column, b: &Column) -> bool {
        match (a, b) {
            (Column::Int { data: x, valid: v }, Column::Int { data: y, valid: w }) => {
                x == y && v == w
            }
            (Column::Double { data: x, valid: v }, Column::Double { data: y, valid: w }) => {
                x.iter().map(|d| d.to_bits()).eq(y.iter().map(|d| d.to_bits())) && v == w
            }
            (Column::Str { .. }, Column::Str { .. }) => a == b,
            _ => false,
        }
    }

    /// Column 0 of `rows`, built by the one path from rows to columns.
    fn build(declared: DataType, rows: &[Row]) -> Column {
        Columns::from_rows(&Schema::of(&[("x", declared)]), rows).col(0).clone()
    }

    /// Every path that makes a column keeps `Columns::from_rows`' rule: the
    /// value-at-a-time builder, the gather (of every subset order the
    /// cases try) and the concatenation (of every split) give the column
    /// `Columns::from_rows` gives over the same values.
    #[test]
    fn every_builder_keeps_the_representation_rule() {
        let nan = |bits: u64| Value::Double(f64::from_bits(0x7ff8_0000_0000_0000 | bits));
        let (a, b) = (Value::str("a"), Value::str("bb"));
        let cases: Vec<(DataType, Vec<Value>)> = vec![
            (DataType::Int, vec![Value::Int(3), Value::Null, Value::Int(-1), Value::Int(3)]),
            (DataType::Double, vec![Value::Double(-0.0), nan(1), Value::Null, nan(0xabc), Value::Double(0.0)]),
            (DataType::Double, vec![Value::Double(1.0), Value::Double(2.0)]),
            // All NULL, and NULLs before a first value.
            (DataType::Double, vec![Value::Null, Value::Null, Value::Null]),
            (DataType::Str, vec![Value::Null, Value::Null]),
            (DataType::Int, vec![]),
            (DataType::Int, vec![Value::Null, Value::Int(1), Value::Int(-7), Value::Null]),
            // Shared and repeated strings, equal contents in distinct Arcs.
            (DataType::Str, vec![b.clone(), a.clone(), Value::Null, b, Value::str("a"), a]),
        ];
        for (declared, values) in &cases {
            let rows: Vec<Row> = values.iter().map(|v| Row::new(vec![v.clone()])).collect();
            let built = build(*declared, &rows);
            let mut builder = ColumnBuilder::new(*declared, values.len());
            values.iter().for_each(|v| builder.push(v));
            assert!(same(&builder.finish(), &built), "builder, {values:?}");
            assert_eq!(built.data_type(), *declared);
            if values.iter().all(Value::is_null) {
                assert!(same(&built, &Column::nulls(*declared, values.len())), "nulls, {values:?}");
            }
            // Gathers: reversed, every other row, each single row, a
            // repeat, nothing.
            let n = values.len() as u32;
            let mut picks: Vec<Vec<u32>> = vec![(0..n).rev().collect(), (0..n).step_by(2).collect(), vec![]];
            picks.extend((0..n).map(|i| vec![i]));
            if n > 1 {
                picks.push(vec![1, 0, 1]);
            }
            for at in picks {
                let rows: Vec<Row> = at.iter().map(|&i| rows[i as usize].clone()).collect();
                let want = build(*declared, &rows);
                let got = built.gather(&at);
                assert!(same(&got, &want), "gather {at:?} of {values:?}: {got:?} vs {want:?}");
            }
            // Concatenations: every split in two, and the halves swapped.
            for k in 0..=values.len() {
                let (head, tail) = (build(*declared, &rows[..k]), build(*declared, &rows[k..]));
                let got = Column::concat(*declared, &[&head, &tail]);
                assert!(same(&got, &built), "concat at {k} of {values:?}: {got:?}");
                let swapped: Vec<Row> = rows[k..].iter().chain(&rows[..k]).cloned().collect();
                let got = Column::concat(*declared, &[&tail, &head]);
                assert!(same(&got, &build(*declared, &swapped)), "swapped at {k} of {values:?}");
            }
        }
        // A short gather of a long dictionary renumbers through a map.
        let values: Vec<Value> = (0..300)
            .map(|i| if i % 7 == 0 { Value::Null } else { Value::str(format!("s{}", i % 250)) })
            .collect();
        let rows: Vec<Row> = values.iter().map(|v| Row::new(vec![v.clone()])).collect();
        let built = build(DataType::Str, &rows);
        for at in [vec![260, 10, 260, 14], vec![7], vec![299, 49], vec![2, 1, 2], vec![3, 4]] {
            let rows: Vec<Row> = at.iter().map(|&i| rows[i as usize].clone()).collect();
            let want = build(DataType::Str, &rows);
            let got = built.gather(&at);
            assert!(same(&got, &want), "gather {at:?}: {got:?} vs {want:?}");
        }
        // An all-set bitmap is no bitmap.
        assert_eq!(Bitmap::of(70, |_| true), None);
        assert_eq!(Bitmap::of(70, |i| i != 69).map(|b| b.count_ones()), Some(69));
    }

    /// Ordering and equality read in place agree with `Value`'s, within
    /// a column and across columns of different types: `Int(2)` against
    /// `Double(2.0)`, `Int(0)` against `-0.0`, `i64::MAX` against 2⁶³, NaN,
    /// `NULL` and strings against numbers.
    #[test]
    fn in_place_order_and_equality_agree_with_value() {
        let column = |t: DataType, values: &[Value]| {
            let rows: Vec<Row> = values.iter().map(|v| Row::new(vec![v.clone()])).collect();
            build(t, &rows)
        };
        let typed = [
            column(DataType::Int, &[Value::Int(2), Value::Int(0), Value::Int(i64::MAX), Value::Null]),
            column(
                DataType::Double,
                &[
                    Value::Double(2.0),
                    Value::Double(-0.0),
                    Value::Double(f64::NAN),
                    Value::Double(9_223_372_036_854_775_808.0),
                    Value::Null,
                ],
            ),
            column(DataType::Str, &[Value::str("b"), Value::str("a"), Value::Null]),
        ];
        for c in &typed {
            for i in 0..c.len() {
                for j in 0..c.len() {
                    assert_eq!(c.cmp_rows(i, j), c.value(i).cmp(&c.value(j)), "{c:?} {i} {j}");
                }
            }
            for d in &typed {
                for i in 0..c.len() {
                    for j in 0..d.len() {
                        assert_eq!(c.value_eq_at(i, d, j), c.value(i) == d.value(j));
                    }
                }
            }
        }
    }

    #[test]
    fn bitmap_ops() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(129));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129) && !b.get(1));
        assert_eq!(b.count_ones(), 3);
        assert!(!b.all_set());
    }

    /// The key hash of `key`, one one-row column of the value's type per
    /// value.
    fn key_hash<'a>(key: impl IntoIterator<Item = &'a Value>) -> u64 {
        let cols: Vec<Column> = key
            .into_iter()
            .map(|v| {
                let mut b = ColumnBuilder::new(v.data_type().unwrap_or(DataType::Int), 1);
                b.push(v);
                b.finish()
            })
            .collect();
        row_key_hash(&cols, 0)
    }

    #[test]
    fn canonical_keys_mirror_value_equality() {
        // Int(2) == Double(2.0).
        assert_eq!(canon_i64(2), canon_f64(2.0));
        // -0.0 == 0.0 == Int(0).
        assert_eq!(canon_f64(-0.0), canon_i64(0));
        // NaN == NaN regardless of payload.
        assert_eq!(canon_f64(f64::NAN), canon_f64(-f64::NAN));
        // Non-integral doubles differ from every integer.
        assert_ne!(canon_f64(2.5).0, canon_i64(2).0);
        // Distinct values get distinct keys.
        assert_ne!(canon_i64(1), canon_i64(2));
        assert_ne!(canon_f64(1.25), canon_f64(1.5));

        // The key hash holds `Value`'s equal pairs together, strings by
        // content (nine bytes cross a word boundary).
        let nan = |bits| Value::Double(f64::from_bits(bits));
        for (a, b) in [
            (Value::Int(2), Value::Double(2.0)),
            (Value::Double(-0.0), Value::Int(0)),
            (nan(0x7ff8_0000_0000_0000), nan(0xfff8_0000_0000_0abc)),
            (Value::str("ninebytes"), Value::str(String::from("ninebytes"))),
        ] {
            assert_eq!(a, b);
            assert_eq!(key_hash([&a, &Value::Null]), key_hash([&b, &Value::Null]));
        }
        // `cmp`, the canonical pairs and the hashes agree pair by pair,
        // at 2⁵³ and 2⁶³ too.
        let big = 1i64 << 53;
        let probe = [
            Value::Int(big),
            Value::Int(big + 1),
            Value::Double(big as f64),
            Value::Double((big + 2) as f64),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Double(9_223_372_036_854_775_808.0),
            Value::Double(-9_223_372_036_854_775_808.0),
            Value::Double(0.5),
            Value::Double(-0.0),
            Value::Int(0),
            Value::Null,
        ];
        let mut codes = StrCodes::default();
        for x in &probe {
            for y in &probe {
                let canon = canon_value(x, &mut codes) == canon_value(y, &mut codes);
                assert_eq!(x == y, canon, "{x:?} vs {y:?}");
                if x == y {
                    assert_eq!(key_hash([x]), key_hash([y]), "{x:?} vs {y:?}");
                }
            }
        }
        assert_ne!(key_hash(&[Value::str("ab")]), key_hash(&[Value::str("ab\0")]));
        let (one, two) = (Value::Int(1), Value::Int(2));
        assert_ne!(key_hash([&one, &two]), key_hash([&two, &one]));
    }
}
