//! In-memory relations (multisets of rows) and basic relational operators.

use crate::columns::{canon_eq, canon_hash, CanonKeys, Column, Columns, IdTable};
use crate::error::{Error, Result};
use crate::expr::BoundExpr;
use crate::row::Row;
use crate::schema::{Field, Schema, SchemaRef};
use crate::value::Value;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A multiset of rows sharing one schema. Every value is `NULL` or of its
/// field's type, and every column is of its field's type: the
/// constructors refuse anything else.
///
/// This is the storage unit of each warehouse site's local detail relation
/// and of every structure shipped between sites and the coordinator.
///
/// A relation stores its [`Columns`] (typed vectors, dictionary-encoded
/// strings and validity bitmaps, under [`crate::ColumnBuilder`]'s
/// representation rule), and every operator below reads and writes
/// columns. Rows exist only at the API edge: [`Relation::rows`],
/// [`Relation::iter`] and `&relation` iteration build a row view from the
/// columns on first call, for the CSV writer, `Display`, renderers and
/// tests. [`Relation::new`] builds the columns from the rows it is handed
/// and keeps no row: a row view's strings are always the store's. A clone
/// shares the store and its row view, so it costs O(arity) at most. The local
/// groups of a key-column list ([`Relation::groups`]) are derived on first
/// touch and remembered per relation; [`Relation::rows_mut`], the one
/// mutation path, drops the store and the memo.
#[derive(Debug)]
pub struct Relation {
    schema: SchemaRef,
    store: Arc<Store>,
    groups: Mutex<GroupMemo>,
}

/// A relation's data, shared by its clones.
#[derive(Debug)]
struct Store {
    /// The columns. Unset only between [`Relation::rows_mut`] and the
    /// next column read, which rebuilds them from `rows`.
    cols: OnceLock<Columns>,
    /// The row view: built from `cols` the first time something reads
    /// rows, or handed out for mutation by [`Relation::rows_mut`].
    rows: OnceLock<Vec<Row>>,
}

/// How many key-column lists' groups a relation remembers (most recently
/// used first). One dashboard refresh over a fact table reads six.
const GROUP_MEMO_CAP: usize = 8;

/// The memo of [`Relation::groups`]: key-column positions → groups.
type GroupMemo = Vec<(Vec<usize>, Arc<Groups>)>;

/// The local groups of one key-column list ([`Relation::groups`]): the
/// equality classes of [`Value`]'s `Eq` over those columns, numbered in
/// first-occurrence order.
#[derive(Debug)]
pub struct Groups {
    /// Per row: its group's id.
    ids: Vec<u32>,
    /// Per group: the row that opened it.
    first: Vec<u32>,
    /// The first rows projected onto the key columns — built only when
    /// [`Relation::project_distinct`] asks, and shared by every relation
    /// whose memo holds this entry (clones of one relation).
    distinct: OnceLock<Relation>,
    /// `distinct` sorted by its columns at the positions given
    /// ([`Relation::project_distinct_sorted`]): the first order asked for
    /// only, built once; any other order is sorted again on every call.
    sorted: OnceLock<(Vec<usize>, Relation)>,
}

impl Groups {
    /// Per row of the relation: the dense id of its group.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Per group: the position of its first row, which represents it.
    pub fn first_rows(&self) -> &[u32] {
        &self.first
    }
}

/// A clone shares the store (and any row view built so far) and takes a
/// snapshot of the group memo: groups either side derives afterwards are
/// its own.
impl Clone for Relation {
    fn clone(&self) -> Relation {
        Relation {
            schema: Arc::clone(&self.schema),
            store: Arc::clone(&self.store),
            groups: Mutex::new(self.memo().clone()),
        }
    }
}

/// Equality is over schema and values, read from the columns: what has
/// been derived, and whether a row view exists, is invisible.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        if self.schema != other.schema || self.len() != other.len() {
            return false;
        }
        let (a, b) = (self.columns(), other.columns());
        (0..a.arity()).all(|c| {
            let (x, y) = (a.col(c), b.col(c));
            (0..a.len()).all(|i| x.value_eq_at(i, y, i))
        })
    }
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        let cols = schema.fields().iter().map(|f| Column::nulls(f.data_type(), 0)).collect();
        Relation::of_columns(Arc::new(schema), Columns::new(0, cols))
    }

    /// A relation over `cols`, one column per field of `schema`: a decoded
    /// frame body ([`crate::codec`]), a merge unit's answer built from the
    /// kernel's states, an operator's output. The columns are its store,
    /// and must keep [`crate::ColumnBuilder`]'s rule, so that the relation
    /// encodes to the bytes any other path to the same values would.
    ///
    /// Refuses, with [`Error::SchemaMismatch`], a column count other than
    /// the schema's arity and a column of another type than its field's.
    pub fn from_columns(schema: Schema, cols: Columns) -> Result<Relation> {
        if cols.arity() != schema.len() {
            return Err(Error::SchemaMismatch(format!(
                "{} columns vs schema arity {}",
                cols.arity(),
                schema.len()
            )));
        }
        let mut fields = schema.fields().iter().zip(cols.shared());
        if let Some((f, c)) = fields.find(|(f, c)| c.data_type() != f.data_type()) {
            return Err(Error::SchemaMismatch(format!(
                "{} column under {} field {}",
                c.data_type(),
                f.data_type(),
                f.name()
            )));
        }
        Ok(Relation::of_columns(Arc::new(schema), cols))
    }

    /// The relation of `schema` over `cols`, which conform to it.
    fn of_columns(schema: SchemaRef, cols: Columns) -> Relation {
        debug_assert!(
            cols.arity() == schema.len()
                && schema.fields().iter().zip(cols.shared()).all(|(f, c)| c.data_type() == f.data_type()),
            "columns that do not conform to {schema}"
        );
        Relation {
            schema,
            store: Arc::new(Store {
                cols: OnceLock::from(cols),
                rows: OnceLock::new(),
            }),
            groups: Mutex::default(),
        }
    }

    /// A relation from a schema and rows: its columns are built from them
    /// ([`Columns::from_rows`]), and the rows are dropped.
    ///
    /// Refuses, with [`Error::SchemaMismatch`], a row of another arity than
    /// the schema's and a value that is neither `NULL` nor of its field's
    /// type. Nothing is converted, not even an `Int` in a `DOUBLE` field.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Result<Relation> {
        let schema = Arc::new(schema);
        for r in &rows {
            if r.len() != schema.len() {
                return Err(Error::SchemaMismatch(format!(
                    "row arity {} vs schema arity {}",
                    r.len(),
                    schema.len()
                )));
            }
            if let Some((f, v)) = misfit(&schema, r) {
                return Err(Error::SchemaMismatch(format!(
                    "{v:?} in {} field {}",
                    f.data_type(),
                    f.name()
                )));
            }
        }
        Ok(Relation::from_shared(schema, rows))
    }

    /// [`Relation::new`] reusing an existing shared schema, without the
    /// check (debug builds assert it).
    ///
    /// # Panics
    /// On a value that is neither `NULL` nor of its field's type, while
    /// building its column.
    pub fn from_shared(schema: SchemaRef, rows: Vec<Row>) -> Relation {
        debug_assert!(
            rows.iter().all(|r| r.len() == schema.len() && misfit(&schema, r).is_none()),
            "rows that do not conform to {schema}"
        );
        let cols = Columns::from_rows(&schema, &rows);
        Relation::of_columns(schema, cols)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The shared schema handle.
    pub fn schema_ref(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self.store.cols.get() {
            Some(cols) => cols.len(),
            None => self.store.rows.get().map_or(0, Vec::len),
        }
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows: the API edge's view of the relation, built from its
    /// columns on first call and shared with its clones. Operators never
    /// read it.
    pub fn rows(&self) -> &[Row] {
        self.store.rows.get_or_init(|| self.columns().to_rows())
    }

    /// Mutable access to the rows: the one mutation path. It drops the
    /// store and the group memo, and the next column read rebuilds the
    /// store from the rows. The rows must still conform to the schema:
    /// building a column of a value of another type panics.
    #[expect(clippy::expect_used, reason = "the store is fresh and holds the rows")]
    pub fn rows_mut(&mut self) -> &mut Vec<Row> {
        let rows = match Arc::get_mut(&mut self.store).and_then(|s| s.rows.take()) {
            Some(rows) => rows,
            None => self.columns().to_rows(),
        };
        self.memo().clear();
        self.store = Arc::new(Store {
            cols: OnceLock::new(),
            rows: OnceLock::from(rows),
        });
        Arc::get_mut(&mut self.store)
            .and_then(|s| s.rows.get_mut())
            .expect("a fresh store with rows")
    }

    /// The group memo. Every update leaves the list valid (whole entries
    /// are inserted or dropped), so a poisoned lock is still good to use.
    fn memo(&self) -> std::sync::MutexGuard<'_, GroupMemo> {
        self.groups.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Column `c` (typed vector or dictionary codes, plus validity
    /// bitmap).
    ///
    /// # Panics
    /// If `c` is not a column position of the schema.
    pub fn column(&self, c: usize) -> &Column {
        self.columns().col(c)
    }

    /// Column `c` as a shared handle: what a relation made of other
    /// relations' columns ([`Relation::from_columns`]) holds without
    /// copying them.
    ///
    /// # Panics
    /// If `c` is not a column position of the schema.
    pub fn shared_column(&self, c: usize) -> Arc<Column> {
        Arc::clone(&self.columns().shared()[c])
    }

    /// The columns: the store.
    pub fn columns(&self) -> &Columns {
        let rows = || self.store.rows.get().map_or(&[][..], Vec::as_slice);
        self.store.cols.get_or_init(|| Columns::from_rows(&self.schema, rows()))
    }

    /// Iterate over the rows ([`Relation::rows`]).
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows().iter()
    }

    /// The relation of `schema` whose columns are this one's at `idx`,
    /// shared.
    fn pick(&self, schema: SchemaRef, idx: &[usize]) -> Relation {
        let cols = idx.iter().map(|&c| self.shared_column(c)).collect();
        Relation::of_columns(schema, Columns::from_shared(self.len(), cols))
    }

    /// Projection onto named columns (π). Multiset semantics: keeps
    /// duplicates. Shares the columns.
    pub fn project(&self, columns: &[&str]) -> Result<Relation> {
        let idx = self.schema.indexes_of(columns)?;
        let schema = Arc::new(self.schema.project(&idx)?);
        Ok(self.pick(schema, &idx))
    }

    /// Rows `at`, in that order (a row may repeat): every column gathered
    /// ([`Column::gather`]).
    ///
    /// # Panics
    /// If a position in `at` is not a row of the relation.
    pub fn gather(&self, at: &[u32]) -> Relation {
        let cols = self.columns().shared().iter().map(|c| c.gather(at)).collect();
        Relation::of_columns(self.schema_ref(), Columns::new(at.len(), cols))
    }

    /// The local groups of the key columns at positions `key`: each row's
    /// dense group id and each group's first row.
    ///
    /// Runs over the key columns' canonical keys (the equality classes of
    /// [`Value`]'s `Eq`), and the result is remembered per key-column list
    /// (the 8 most recently used), so a site derives the local groups of
    /// its partition once, not once per query — and the GMDJ kernel reads
    /// each detail row's group from it instead of hashing the row.
    ///
    /// # Panics
    /// If a position in `key` is not a column position of the schema.
    pub fn groups(&self, key: &[usize]) -> Arc<Groups> {
        {
            let mut memo = self.memo();
            if let Some(at) = memo.iter().position(|(k, _)| k == key) {
                memo[..=at].rotate_right(1);
                return Arc::clone(&memo[0].1);
            }
        }
        let keys: Vec<CanonKeys> = key.iter().map(|&c| self.column(c).canon_keys()).collect();
        let mut ids = Vec::with_capacity(self.len());
        let mut first: Vec<u32> = Vec::new();
        let mut table = IdTable::with_capacity(0);
        for i in 0..self.len() {
            let h = canon_hash(&keys, i);
            let id = match table.find(h, |g| canon_eq(&keys, first[g] as usize, &keys, i)) {
                Some(id) => id,
                None => {
                    first.push(i as u32);
                    table.insert(h)
                }
            };
            ids.push(id as u32);
        }
        let groups = Arc::new(Groups {
            ids,
            first,
            distinct: OnceLock::new(),
            sorted: OnceLock::new(),
        });
        let mut memo = self.memo();
        memo.retain(|(k, _)| k != key); // a concurrent caller got here first
        memo.insert(0, (key.to_vec(), Arc::clone(&groups)));
        memo.truncate(GROUP_MEMO_CAP);
        groups
    }

    /// Duplicate-eliminating projection (π with DISTINCT) preserving first
    /// occurrence order, each group represented by its first occurrence's
    /// exact values — used to build base-values relations. The key
    /// columns gathered at [`Relation::groups`]' first rows, kept with
    /// them once made.
    pub fn project_distinct(&self, columns: &[&str]) -> Result<Relation> {
        self.distinct_groups(columns).map(|(distinct, _)| distinct)
    }

    /// [`Relation::project_distinct`] in ascending order of the columns
    /// `by` (lexicographic, [`Column::cmp_rows`]' order, which agrees with
    /// [`Value`]'s equality; ties keep first-occurrence order): a site's
    /// local groups as it ships them, sorted by the key. The first order
    /// asked for is kept beside the first-occurrence form, so a repeat
    /// query in that order pays nothing; another order over the same
    /// columns (a permuted K, say) is sorted on every call.
    pub fn project_distinct_sorted(&self, columns: &[&str], by: &[&str]) -> Result<Relation> {
        let (distinct, groups) = self.distinct_groups(columns)?;
        let by = distinct.schema.indexes_of(by)?;
        if let Some((_, sorted)) = groups.sorted.get().filter(|(k, _)| *k == by) {
            return Ok(sorted.clone());
        }
        let sorted = distinct.gather(&distinct.order_by(&by));
        let _ = groups.sorted.set((by, sorted.clone()));
        Ok(sorted)
    }

    /// The distinct projection onto `columns`, made once per groups entry,
    /// and the entry.
    fn distinct_groups(&self, columns: &[&str]) -> Result<(Relation, Arc<Groups>)> {
        let idx = self.schema.indexes_of(columns)?;
        let groups = self.groups(&idx);
        if let Some(distinct) = groups.distinct.get() {
            return Ok((distinct.clone(), groups));
        }
        let schema = Arc::new(self.schema.project(&idx)?);
        let picked = self.pick(schema, &idx).gather(&groups.first);
        let distinct = groups.distinct.get_or_init(|| picked).clone();
        Ok((distinct, groups))
    }

    /// Selection (σ) by a bound predicate over this relation's columns
    /// (the base side of the expression).
    pub fn select(&self, pred: &BoundExpr) -> Result<Relation> {
        Ok(self.gather(&self.selection(pred)?))
    }

    /// The positions of the rows on which `pred` (bound base-side) is
    /// truthy, ascending: [`Relation::select`]'s rows.
    pub fn selection(&self, pred: &BoundExpr) -> Result<Vec<u32>> {
        let mut at = Vec::new();
        for i in 0..self.len() {
            if pred.eval_cols(Some((self, i)), None)?.is_truthy() {
                at.push(i as u32);
            }
        }
        Ok(at)
    }

    /// Selection of the rows whose positions `keep` accepts.
    pub fn filter(&self, mut keep: impl FnMut(usize) -> bool) -> Relation {
        let at: Vec<u32> = (0..self.len() as u32).filter(|&i| keep(i as usize)).collect();
        self.gather(&at)
    }

    /// Multiset union (⊔). Schemas must be identical. Concatenates the
    /// columns ([`Column::concat`]).
    pub fn union_all(&self, other: &Relation) -> Result<Relation> {
        if self.schema() != other.schema() {
            return Err(Error::SchemaMismatch(format!(
                "union of {} and {}",
                self.schema(),
                other.schema()
            )));
        }
        let (a, b) = (self.columns(), other.columns());
        let cols = (0..a.arity())
            .map(|c| Arc::new(Column::concat(self.schema.field(c).data_type(), &[a.col(c), b.col(c)])))
            .collect();
        let cols = Columns::from_shared(a.len() + b.len(), cols);
        Ok(Relation::of_columns(self.schema_ref(), cols))
    }

    /// Distinct rows, preserving first-occurrence order, each represented
    /// by its first occurrence's exact values: every column gathered at
    /// [`Relation::groups`]' first rows over every column.
    pub fn distinct(&self) -> Relation {
        let all: Vec<usize> = (0..self.schema.len()).collect();
        self.gather(&self.groups(&all).first)
    }

    /// The positions of the rows in ascending order of the columns at
    /// `idx` (total value order, [`Column::cmp_rows`]); ties keep their
    /// order.
    fn order_by(&self, idx: &[usize]) -> Vec<u32> {
        let cols: Vec<&Column> = idx.iter().map(|&c| self.column(c)).collect();
        let mut at: Vec<u32> = (0..self.len() as u32).collect();
        // One `Int` column with no `NULL` (a site's usual key): by its words.
        if let [Column::Int { data, valid: None }] = cols[..] {
            at.sort_by_key(|&i| data[i as usize]);
            return at;
        }
        at.sort_by(|&a, &b| {
            let mut ord = cols.iter().map(|c| c.cmp_rows(a as usize, b as usize));
            ord.find(|o| o.is_ne()).unwrap_or(std::cmp::Ordering::Equal)
        });
        at
    }

    /// Rows sorted by the named columns (ascending, total value order;
    /// ties keep their order).
    pub fn sorted_by(&self, columns: &[&str]) -> Result<Relation> {
        let idx = self.schema.indexes_of(columns)?;
        Ok(self.gather(&self.order_by(&idx)))
    }

    /// A canonical form for multiset comparison in tests: all rows sorted.
    pub fn canonicalized(&self) -> Relation {
        let all: Vec<usize> = (0..self.schema.len()).collect();
        self.gather(&self.order_by(&all))
    }

    /// Multiset equality irrespective of row order and of schema sharing.
    pub fn same_bag(&self, other: &Relation) -> bool {
        self.schema() == other.schema() && self.canonicalized() == other.canonicalized()
    }

    /// The distinct values of one column, in first-occurrence order.
    pub fn column_values(&self, column: &str) -> Result<Vec<Value>> {
        let distinct = self.project_distinct(&[column])?;
        let col = distinct.column(0);
        Ok((0..distinct.len()).map(|i| col.value(i)).collect())
    }

    /// Serialized size in bytes: the schema and the columnar body
    /// ([`crate::codec`]).
    pub fn encoded_size(&self) -> usize {
        let cols = self.columns();
        self.schema.encoded_size() + crate::codec::body_size(self.len(), cols.shared().iter().map(|c| &**c))
    }

    /// In-memory size in bytes — what holding the relation costs, where
    /// [`Relation::encoded_size`] is what shipping it does: 8 per `Int`
    /// or `Double` cell, a 4-byte code per `Str` cell plus each column's
    /// dictionary strings, the validity bitmaps, and the schema at its
    /// encoded size.
    pub fn memory_size(&self) -> usize {
        let cols = self.columns().shared().iter().map(|c| c.memory_size());
        self.schema.encoded_size() + cols.sum::<usize>()
    }
}

/// The first value of `row` that is neither `NULL` nor of its field's
/// type, with its field.
fn misfit<'a>(schema: &'a Schema, row: &'a Row) -> Option<(&'a Field, &'a Value)> {
    let mut fields = schema.fields().iter().zip(row.values());
    fields.find(|(f, v)| v.data_type().is_some_and(|t| t != f.data_type()))
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for r in self {
            writeln!(f, "{r}")?;
        }
        write!(f, "({} rows)", self.len())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::DataType;

    fn sample() -> Relation {
        Relation::new(
            Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]),
            vec![row![1i64, "x"], row![2i64, "y"], row![1i64, "x"]],
        )
        .unwrap()
    }

    #[test]
    fn arity_checked() {
        let err = Relation::new(Schema::of(&[("a", DataType::Int)]), vec![row![1i64, 2i64]]);
        assert!(err.is_err());
    }

    /// A value or column of another type than its field's is refused,
    /// and nothing converts: not even an `Int` a `DOUBLE` holds exactly.
    #[test]
    fn ill_typed_values_and_columns_are_refused() {
        let dbl = || Schema::of(&[("x", DataType::Double)]);
        let int = || Schema::of(&[("k", DataType::Int)]);
        let refused = |r: Result<Relation>| match r {
            Err(Error::SchemaMismatch(m)) => m,
            other => panic!("expected a schema mismatch, got {other:?}"),
        };
        for v in [Value::Int((1 << 53) + 1), Value::Int(1)] {
            let m = refused(Relation::new(dbl(), vec![row![Value::Null], Row::new(vec![v])]));
            assert!(m.contains("DOUBLE field x"), "{m}");
        }
        for v in [Value::Double(0.5), Value::str("s")] {
            let m = refused(Relation::new(int(), vec![Row::new(vec![v])]));
            assert!(m.contains("INT field k"), "{m}");
        }
        let ints = Columns::new(1, vec![Column::Int { data: vec![1], valid: None }]);
        let m = refused(Relation::from_columns(dbl(), ints));
        assert_eq!(m, "INT column under DOUBLE field x");
        // NULL conforms to every type.
        assert!(Relation::new(int(), vec![row![Value::Null]]).is_ok());
    }

    #[test]
    fn project_keeps_duplicates_distinct_removes_them() {
        let r = sample();
        assert_eq!(r.project(&["b"]).unwrap().len(), 3);
        let d = r.project_distinct(&["b"]).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.rows()[0], row!["x"]);
    }

    #[test]
    fn union_requires_same_schema() {
        let r = sample();
        let other = Relation::empty(Schema::of(&[("z", DataType::Int)]));
        assert!(r.union_all(&other).is_err());
        let u = r.union_all(&r).unwrap();
        assert_eq!(u.len(), 6);
    }

    #[test]
    fn distinct_and_same_bag() {
        let r = sample();
        assert_eq!(r.distinct().len(), 2);
        let shuffled = Relation::new(
            Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]),
            vec![row![2i64, "y"], row![1i64, "x"], row![1i64, "x"]],
        )
        .unwrap();
        assert!(r.same_bag(&shuffled));
        assert!(!r.same_bag(&r.distinct()));
    }

    #[test]
    fn sorted_by_columns() {
        let r = sample();
        let s = r.sorted_by(&["b", "a"]).unwrap();
        assert_eq!(s.rows()[0], row![1i64, "x"]);
        assert_eq!(s.rows()[2], row![2i64, "y"]);
    }

    #[test]
    fn column_values_distinct_in_order() {
        let r = sample();
        assert_eq!(
            r.column_values("a").unwrap(),
            vec![Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn filter_and_select_gather_the_kept_positions() {
        let r = sample();
        let f = r.filter(|i| r.column(0).value(i) == Value::Int(1));
        assert_eq!(f.rows(), [row![1i64, "x"], row![1i64, "x"]]);
        let pred = crate::Expr::bcol("b").eq(crate::Expr::lit("y"));
        let s = r.select(&pred.bind(r.schema(), None).unwrap()).unwrap();
        assert_eq!(s.rows(), [row![2i64, "y"]]);
    }

    /// Does `r` hold its columns, and a row view?
    fn held(r: &Relation) -> (bool, bool) {
        (r.store.cols.get().is_some(), r.store.rows.get().is_some())
    }

    fn memo_len(r: &Relation) -> usize {
        r.memo().len()
    }

    fn wide() -> Relation {
        Relation::new(
            Schema::of(&[
                ("a", DataType::Int),
                ("b", DataType::Str),
                ("c", DataType::Double),
            ]),
            vec![row![1i64, "x", 0.5], row![2i64, "y", 1.5]],
        )
        .unwrap()
    }

    #[test]
    fn a_relation_from_rows_holds_every_column() {
        // `new` builds every column, once, and keeps no row.
        let r = wide();
        assert_eq!(held(&r), (true, false));
        assert_eq!(r.columns(), &Columns::from_rows(r.schema(), r.rows()));
        assert_eq!(r.column(2).value(1), Value::Double(1.5));
        assert!(std::ptr::eq(r.column(2), r.columns().col(2)));
        // A relation from columns has no row view until one is read; the
        // operators read none.
        let cols = Relation::from_columns(r.schema().clone(), r.columns().clone()).unwrap();
        assert_eq!(held(&cols), (true, false));
        let out = cols.project(&["c", "a"]).unwrap().distinct().sorted_by(&["a"]).unwrap();
        let out = out.union_all(&out).unwrap().canonicalized();
        assert_eq!(out.len(), 4);
        assert_eq!(held(&cols), (true, false));
        assert_eq!(held(&out), (true, false));
        assert_eq!(cols.rows(), r.rows());
        assert_eq!(held(&cols), (true, true));
        assert_eq!(out.rows()[0], row![0.5, 1i64]);
    }

    /// A relation's local groups sorted by key: `NULL` first, `-0.0` and
    /// `0.0` one group spelled as it first occurs, `NaN` last; the
    /// first-occurrence form is untouched, and a repeat is the kept one.
    #[test]
    fn project_distinct_sorted_is_kept_in_key_order() {
        let r = Relation::new(
            Schema::of(&[("k", DataType::Double), ("s", DataType::Str)]),
            [(3.0, "a"), (-0.0, "b"), (f64::NAN, "c"), (0.0, "b"), (f64::INFINITY, "d"), (1.5, "e"), (3.0, "a")]
                .into_iter()
                .map(|(k, s)| row![k, s])
                .chain([Row::new(vec![Value::Null, Value::str("n")])])
                .collect(),
        )
        .unwrap();
        let sorted = r.project_distinct_sorted(&["k", "s"], &["k"]).unwrap();
        let keys: Vec<String> = (0..sorted.len()).map(|i| format!("{:?}", sorted.column(0).value(i))).collect();
        assert_eq!(keys, ["Null", "Double(-0.0)", "Double(1.5)", "Double(3.0)", "Double(inf)", "Double(NaN)"]);
        assert_eq!(r.project_distinct(&["k", "s"]).unwrap().column(1).value(0), Value::str("a"));
        let again = r.project_distinct_sorted(&["k", "s"], &["k"]).unwrap();
        assert!(std::ptr::eq(sorted.column(0), again.column(0)), "kept");
        // Another order is computed, not mistaken for the kept one.
        let by_s = r.project_distinct_sorted(&["k", "s"], &["s", "k"]).unwrap();
        assert_eq!(by_s.column(1).value(5), Value::str("n"));
    }

    #[test]
    fn project_distinct_memo_hits_and_mutation_drops_it() {
        let mut r = sample();
        let first = r.project_distinct(&["a"]).unwrap();
        assert_eq!(first.rows(), [row![1i64], row![2i64]]);
        assert_eq!(memo_len(&r), 1);
        assert_eq!(r.project_distinct(&["a"]).unwrap(), first, "memo hit");
        assert_eq!(memo_len(&r), 1);
        // Key sets are told apart, by column list and order.
        assert_eq!(r.project_distinct(&["b", "a"]).unwrap().len(), 2);
        assert_eq!(r.project_distinct(&["a", "b"]).unwrap().rows()[0], row![1i64, "x"]);
        assert_eq!(memo_len(&r), 3);
        // Most recently used first; `column_values` goes through the memo.
        r.project_distinct(&["b"]).unwrap();
        r.project_distinct(&["a"]).unwrap();
        assert_eq!(r.column_values("b").unwrap(), [Value::str("x"), Value::str("y")]);
        let kept = |r: &Relation| -> Vec<Vec<usize>> {
            r.memo().iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(kept(&r), [vec![1], vec![0], vec![0, 1], vec![1, 0]]);

        // `rows_mut` drops the memo, ids included: the new group shows,
        // and a handle taken before stays what it was.
        let before = r.groups(&[0]);
        r.rows_mut().push(row![3i64, "x"]);
        assert_eq!(memo_len(&r), 0);
        assert_eq!(r.project_distinct(&["a"]).unwrap().len(), 3);
        assert_eq!(r.groups(&[0]).ids(), [0, 1, 0, 2]);
        assert_eq!(before.ids(), [0, 1, 0]);
        // So does every later call.
        r.rows_mut().retain(|row| row.get(0) != &Value::Int(1));
        assert_eq!(held(&r), (false, true));
        assert_eq!(memo_len(&r), 0);
        assert_eq!(r.groups(&[0]).ids(), [0, 1]);
        assert_eq!(
            r.project_distinct(&["a"]).unwrap().rows(),
            [row![2i64], row![3i64]]
        );
        // Unknown columns fail before and after a memo exists.
        assert!(r.project_distinct(&["nope"]).is_err());
    }

    #[test]
    fn a_clone_shares_the_store_and_the_row_view() {
        let original = Relation::from_columns(sample().schema().clone(), sample().columns().clone()).unwrap();
        let early = original.clone();
        assert!(Arc::ptr_eq(&original.shared_column(1), &early.shared_column(1)));
        // A row view built on either side is the other's too: one store.
        assert_eq!(held(&early), (true, false));
        let view = original.rows().as_ptr();
        assert_eq!(early.rows().as_ptr(), view);
        assert_eq!(original.clone().rows().as_ptr(), view);

        // The group memo is a snapshot: a clone shares what was derived
        // (the same groups) and nothing either side derives afterwards.
        original.project_distinct(&["a"]).unwrap();
        assert_eq!(memo_len(&early), 0);
        let late = original.clone();
        assert!(Arc::ptr_eq(&original.groups(&[0]), &late.groups(&[0])));
        late.project_distinct(&["b"]).unwrap();
        original.groups(&[0, 1]);
        assert_eq!(memo_len(&original), 2);
        assert_eq!(memo_len(&late), 2);
        assert!(!Arc::ptr_eq(&original.groups(&[1]), &late.groups(&[1])));
    }

    #[test]
    fn groups_number_rows_by_value_equality_in_first_occurrence_order() {
        let r = Relation::new(
            Schema::of(&[("k", DataType::Double)]),
            [
                Value::Double(2.0),
                Value::Double(2.0),
                Value::Null,
                Value::Double(-0.0),
                Value::Double(0.0),
                Value::Double(f64::NAN),
                Value::Double(-f64::NAN),
                Value::Null,
                Value::Double(2.5),
            ]
            .into_iter()
            .map(|v| Row::new(vec![v]))
            .collect(),
        )
        .unwrap();
        assert!(matches!(r.column(0), Column::Double { .. }));
        let g = r.groups(&[0]);
        assert_eq!(g.ids(), [0, 0, 1, 2, 2, 3, 3, 1, 4]);
        assert_eq!(g.first_rows(), [0, 2, 3, 5, 8]);
        // The kernel reads ids only: the groups are projected on demand.
        assert!(g.distinct.get().is_none());
        assert_eq!(r.project_distinct(&["k"]).unwrap().len(), 5);
        assert!(r.groups(&[0]).distinct.get().is_some());
        // No key columns: one group.
        assert_eq!(r.groups(&[]).ids(), [0; 9]);
    }

    #[test]
    fn six_key_lists_cycled_twice_hit_on_the_second_pass() {
        // One dashboard refresh reads six key lists of its fact table; a
        // memo that holds fewer misses on every refresh.
        let keys: [&[usize]; 9] = [
            &[0],
            &[1],
            &[2],
            &[0, 1],
            &[1, 0],
            &[0, 2],
            &[2, 0],
            &[1, 2],
            &[2, 1],
        ];
        let w = wide();
        let first: Vec<Arc<Groups>> = keys[..6].iter().map(|k| w.groups(k)).collect();
        for (k, g) in keys[..6].iter().zip(&first) {
            assert!(Arc::ptr_eq(&w.groups(k), g), "{k:?} missed");
        }
        // Past GROUP_MEMO_CAP the least recently used goes.
        for k in &keys[6..] {
            w.groups(k);
        }
        assert_eq!(memo_len(&w), GROUP_MEMO_CAP);
        assert!(!Arc::ptr_eq(&w.groups(keys[0]), &first[0]));
        assert!(Arc::ptr_eq(&w.groups(keys[5]), &first[5]));
    }

    #[test]
    fn rows_mut_rebuilds_the_store() {
        let mut r = sample();
        let shared = r.clone();
        assert_eq!(r.columns().to_rows(), r.rows());
        // Mutation drops the store; the next column read rebuilds it from
        // the rows, and a clone taken before keeps the old store.
        r.rows_mut().push(row![9i64, "z"]);
        assert_eq!(held(&r), (false, true));
        assert_eq!(r.len(), 4);
        assert_eq!(r.columns().len(), 4);
        assert_eq!(r.columns().value(1, 3), Value::str("z"));
        assert_eq!(held(&r), (true, true));
        assert_eq!(shared.len(), 3);
        r.rows_mut().pop();
        assert_eq!(r.columns().len(), 3);
        // Neither the store's history nor a row view shows in equality.
        assert_eq!(r, sample());
        assert_eq!(shared, Relation::from_columns(r.schema().clone(), r.columns().clone()).unwrap());
    }
}
