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
/// and of every structure shipped between sites and the coordinator. The
/// CSV loader reads and writes rows; the frame codec ships the columns.
///
/// A relation is *rows-first* (made from rows: [`Relation::new`], the
/// loaders, the row operators below) or *columns-first*
/// ([`Relation::from_columns`]: a decoded frame body, a site's merge-unit
/// answer built from the kernel's states, the coordinator's B after a
/// merge unit, a merge tree's output). A columns-first relation builds
/// its rows only if something reads them, and every column it holds
/// keeps [`crate::ColumnBuilder`]'s representation rule, so it encodes
/// to the bytes its rows would. What a query
/// derives from the rows — a column's typed
/// vector ([`Relation::column`]), the local groups of a key-column list
/// ([`Relation::groups`]) — is built on first touch and kept on the
/// relation: never at construction, dropped by mutation, and a clone takes
/// a snapshot (it shares what is built, and nothing either side builds
/// afterwards is visible to the other — except the projection of a key
/// list whose groups both share, which is the same on both sides).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: SchemaRef,
    /// The rows: given at construction, or, for a relation over decoded
    /// columns ([`Relation::from_columns`]), built from them the first time
    /// something reads them.
    rows: OnceLock<Vec<Row>>,
    derived: Derived,
}

/// How many key-column lists' groups a relation remembers (most recently
/// used first). One dashboard refresh over a fact table reads six.
const GROUP_MEMO_CAP: usize = 8;

/// The memo of [`Relation::groups`]: key-column positions → groups.
type GroupMemo = Vec<(Vec<usize>, Arc<Groups>)>;

/// State computed from `rows`, each piece on first touch.
#[derive(Debug, Default)]
struct Derived {
    /// One cell per column, allocated with the first column built.
    cols: OnceLock<Box<[OnceLock<Arc<Column>>]>>,
    /// The all-columns view over `cols`.
    all: OnceLock<Arc<Columns>>,
    groups: Mutex<GroupMemo>,
}

impl Derived {
    /// The memo. Every update leaves the list valid (whole entries are
    /// inserted or dropped), so a poisoned lock is still good to use.
    fn groups(&self) -> std::sync::MutexGuard<'_, GroupMemo> {
        self.groups.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

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
    /// whose memo holds this entry (clones of one set of rows).
    distinct: OnceLock<Relation>,
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

impl Clone for Derived {
    fn clone(&self) -> Derived {
        Derived {
            cols: self.cols.clone(),
            all: self.all.clone(),
            groups: Mutex::new(self.groups().clone()),
        }
    }
}

/// Equality is over schema and rows only — what has been derived from them
/// is invisible.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.schema == other.schema && self.rows() == other.rows()
    }
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation::from_shared(Arc::new(schema), Vec::new())
    }

    /// A relation over `cols`, one column per field of `schema`: what a
    /// decoded frame body becomes ([`crate::codec`]), and what a merge
    /// unit's answer is built as, at a site and at the coordinator. The
    /// columns must keep [`crate::ColumnBuilder`]'s rule. They are its
    /// columnar layout, and its rows are built from them the first time
    /// something reads them, so a consumer that reads columns only never
    /// builds a row.
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
        let derived = Derived::default();
        let cells = cols.shared().iter().map(|c| OnceLock::from(Arc::clone(c))).collect();
        let _ = derived.cols.set(cells);
        let _ = derived.all.set(Arc::new(cols));
        Ok(Relation {
            schema: Arc::new(schema),
            rows: OnceLock::new(),
            derived,
        })
    }

    /// A relation from a schema and rows.
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

    /// A relation reusing an existing shared schema (no re-check; used on
    /// hot paths where rows are constructed against that schema). Debug
    /// builds assert what [`Relation::new`] checks.
    pub fn from_shared(schema: SchemaRef, rows: Vec<Row>) -> Relation {
        debug_assert!(
            rows.iter().all(|r| r.len() == schema.len() && misfit(&schema, r).is_none()),
            "rows that do not conform to {schema}"
        );
        Relation {
            schema,
            rows: OnceLock::from(rows),
            derived: Derived::default(),
        }
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
        match self.rows.get() {
            Some(rows) => rows.len(),
            None => self.derived.all.get().map_or(0, |c| c.len()),
        }
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows.
    pub fn rows(&self) -> &[Row] {
        // A relation without rows was made from its columns, so
        // `columns` reads them and does not build them from the rows.
        self.rows.get_or_init(|| self.columns().to_rows())
    }

    /// Mutable access to the rows. Drops everything derived from them.
    /// The rows must still conform to the schema: building a column of a
    /// value of another type panics.
    #[expect(clippy::expect_used, reason = "the rows are set on the line before")]
    pub fn rows_mut(&mut self) -> &mut Vec<Row> {
        let rows = self.rows.take().unwrap_or_else(|| self.columns().to_rows());
        self.derived = Derived::default();
        self.rows = OnceLock::from(rows);
        self.rows.get_mut().expect("rows are set")
    }

    /// Append a row. Drops everything derived from the rows.
    ///
    /// # Panics
    /// Debug-asserts that the row conforms to the schema.
    pub fn push(&mut self, row: Row) {
        debug_assert!(row.len() == self.schema.len() && misfit(&self.schema, &row).is_none());
        self.rows_mut().push(row);
    }

    fn column_cell(&self, c: usize) -> &Arc<Column> {
        let cells = self
            .derived
            .cols
            .get_or_init(|| (0..self.schema.len()).map(|_| OnceLock::new()).collect());
        cells[c].get_or_init(|| {
            Arc::new(Column::build(
                self.schema.field(c).data_type(),
                self.rows(),
                c,
            ))
        })
    }

    /// The columnar physical layout of column `c` (typed vector or
    /// dictionary codes plus validity bitmap). Built the first time any
    /// query touches the column and kept; a query that reads three columns
    /// of fifteen lays out three.
    ///
    /// # Panics
    /// If `c` is not a column position of the schema.
    pub fn column(&self, c: usize) -> &Column {
        self.column_cell(c)
    }

    /// Column `c`'s layout as a shared handle: what a relation made of
    /// other relations' columns ([`Relation::from_columns`]) holds
    /// without copying them.
    ///
    /// # Panics
    /// If `c` is not a column position of the schema.
    pub fn shared_column(&self, c: usize) -> Arc<Column> {
        Arc::clone(self.column_cell(c))
    }

    /// The columnar physical layout of every column — builds whichever
    /// columns no query has touched yet.
    pub fn columns(&self) -> &Columns {
        self.derived.all.get_or_init(|| {
            let cols = (0..self.schema.len())
                .map(|c| Arc::clone(self.column_cell(c)))
                .collect();
            Arc::new(Columns::from_shared(self.len(), cols))
        })
    }

    /// Iterate over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows().iter()
    }

    /// Projection onto named columns (π). Multiset semantics: keeps
    /// duplicates.
    pub fn project(&self, columns: &[&str]) -> Result<Relation> {
        let idx = self.schema.indexes_of(columns)?;
        let schema = self.schema.project(&idx)?;
        let rows = self.iter().map(|r| r.project(&idx)).collect();
        Relation::new(schema, rows)
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
            let mut memo = self.derived.groups();
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
        });
        let mut memo = self.derived.groups();
        memo.retain(|(k, _)| k != key); // a concurrent caller got here first
        memo.insert(0, (key.to_vec(), Arc::clone(&groups)));
        memo.truncate(GROUP_MEMO_CAP);
        groups
    }

    /// Duplicate-eliminating projection (π with DISTINCT) preserving first
    /// occurrence order, each group represented by its first occurrence's
    /// exact values — used to build base-values relations. The projection
    /// of [`Relation::groups`], kept with them once made.
    pub fn project_distinct(&self, columns: &[&str]) -> Result<Relation> {
        let idx = self.schema.indexes_of(columns)?;
        let groups = self.groups(&idx);
        if let Some(distinct) = groups.distinct.get() {
            return Ok(distinct.clone());
        }
        let schema = Arc::new(self.schema.project(&idx)?);
        let rows = groups
            .first
            .iter()
            .map(|&i| self.rows()[i as usize].project(&idx))
            .collect();
        Ok(groups
            .distinct
            .get_or_init(|| Relation::from_shared(schema, rows))
            .clone())
    }

    /// Selection (σ) by a bound predicate.
    pub fn select(&self, pred: &BoundExpr) -> Result<Relation> {
        let mut rows = Vec::new();
        for r in self {
            if pred.eval_row(r)?.is_truthy() {
                rows.push(r.clone());
            }
        }
        Ok(Relation::from_shared(self.schema_ref(), rows))
    }

    /// Selection by an arbitrary row predicate closure.
    pub fn filter(&self, mut keep: impl FnMut(&Row) -> bool) -> Relation {
        Relation::from_shared(
            self.schema_ref(),
            self.iter().filter(|r| keep(r)).cloned().collect(),
        )
    }

    /// Multiset union (⊔). Schemas must be identical.
    pub fn union_all(&self, other: &Relation) -> Result<Relation> {
        if self.schema() != other.schema() {
            return Err(Error::SchemaMismatch(format!(
                "union of {} and {}",
                self.schema(),
                other.schema()
            )));
        }
        let mut rows = Vec::with_capacity(self.len() + other.len());
        rows.extend_from_slice(self.rows());
        rows.extend_from_slice(other.rows());
        Ok(Relation::from_shared(self.schema_ref(), rows))
    }

    /// Distinct rows, preserving first-occurrence order, each represented
    /// by its first occurrence's exact values: the projection of
    /// [`Relation::groups`] over every column.
    pub fn distinct(&self) -> Relation {
        let all: Vec<usize> = (0..self.schema.len()).collect();
        let rows = self
            .groups(&all)
            .first
            .iter()
            .map(|&i| self.rows()[i as usize].clone())
            .collect();
        Relation::from_shared(self.schema_ref(), rows)
    }

    /// Rows sorted by the named columns (ascending, total value order).
    pub fn sorted_by(&self, columns: &[&str]) -> Result<Relation> {
        let idx = self.schema.indexes_of(columns)?;
        let mut rows = self.rows().to_vec();
        rows.sort_by(|a, b| {
            for &i in &idx {
                let ord = a.get(i).cmp(b.get(i));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(Relation::from_shared(self.schema_ref(), rows))
    }

    /// A canonical form for multiset comparison in tests: all rows sorted.
    pub fn canonicalized(&self) -> Relation {
        let mut rows = self.rows().to_vec();
        rows.sort();
        Relation::from_shared(self.schema_ref(), rows)
    }

    /// Multiset equality irrespective of row order and of schema sharing.
    pub fn same_bag(&self, other: &Relation) -> bool {
        self.schema() == other.schema()
            && self.canonicalized().rows() == other.canonicalized().rows()
    }

    /// The distinct values of one column, in first-occurrence order.
    pub fn column_values(&self, column: &str) -> Result<Vec<Value>> {
        let distinct = self.project_distinct(&[column])?;
        Ok(distinct.iter().map(|r| r.get(0).clone()).collect())
    }

    /// Serialized size in bytes: the schema and the columnar body
    /// ([`crate::codec`]). Builds every column.
    pub fn encoded_size(&self) -> usize {
        let cols = (0..self.schema.len()).map(|c| self.column(c));
        self.schema.encoded_size() + crate::codec::body_size(self.len(), cols)
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
    fn filter_closure() {
        let r = sample();
        let f = r.filter(|row| row.get(0) == &Value::Int(1));
        assert_eq!(f.len(), 2);
    }

    /// Which columns of `r` have a layout built.
    fn built(r: &Relation) -> Vec<bool> {
        match r.derived.cols.get() {
            Some(cells) => cells.iter().map(|c| c.get().is_some()).collect(),
            None => vec![false; r.schema.len()],
        }
    }

    fn memo_len(r: &Relation) -> usize {
        r.derived.groups().len()
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
    fn touching_a_column_builds_only_that_column() {
        let r = wide();
        assert_eq!(built(&r), [false, false, false], "nothing is built at load");
        assert_eq!(r.column(2).value(1), Value::Double(1.5));
        assert_eq!(built(&r), [false, false, true]);
        // A distinct over `a` touches `a` and nothing else.
        r.project_distinct(&["a"]).unwrap();
        assert_eq!(built(&r), [true, false, true]);
        // The all-columns view builds the rest and shares what exists.
        let before = r.column(2) as *const Column;
        assert_eq!(r.columns().to_rows(), r.rows());
        assert_eq!(built(&r), [true, true, true]);
        assert!(std::ptr::eq(before, r.columns().col(2)));
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
            r.derived.groups().iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(kept(&r), [vec![1], vec![0], vec![0, 1], vec![1, 0]]);

        // `push` drops the memo, ids included: the new group shows, and a
        // handle taken before stays what it was.
        let before = r.groups(&[0]);
        r.push(row![3i64, "x"]);
        assert_eq!(memo_len(&r), 0);
        assert_eq!(r.project_distinct(&["a"]).unwrap().len(), 3);
        assert_eq!(r.groups(&[0]).ids(), [0, 1, 0, 2]);
        assert_eq!(before.ids(), [0, 1, 0]);
        // So does `rows_mut`.
        r.rows_mut().retain(|row| row.get(0) != &Value::Int(1));
        assert_eq!(built(&r), [false, false]);
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
    fn a_clone_is_a_snapshot_of_the_derived_state() {
        // Taken before first touch: the clone stays cold when the
        // original is touched, and the other way round.
        let original = sample();
        let early = original.clone();
        original.column(0);
        original.project_distinct(&["a"]).unwrap();
        assert_eq!(built(&early), [false, false]);
        assert_eq!(memo_len(&early), 0);
        early.column(1);
        assert_eq!(built(&original), [true, false]);

        // Taken afterwards: it shares what was built (same vectors, same
        // memoized groups) and nothing built later on either side.
        let late = original.clone();
        assert_eq!(built(&late), [true, false]);
        assert!(std::ptr::eq(original.column(0), late.column(0)));
        assert!(Arc::ptr_eq(&original.groups(&[0]), &late.groups(&[0])));
        late.column(1);
        late.project_distinct(&["b"]).unwrap();
        assert_eq!(built(&original), [true, false]);
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
    fn columns_view_round_trips_and_invalidates() {
        let mut r = sample();
        let cols = r.columns();
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.to_rows(), r.rows());
        // Mutation invalidates the cached layout.
        r.push(row![9i64, "z"]);
        assert_eq!(r.columns().len(), 4);
        assert_eq!(r.columns().value(1, 3), Value::str("z"));
        r.rows_mut().pop();
        assert_eq!(r.columns().len(), 3);
        // The cache is invisible to equality.
        let fresh = sample();
        assert_eq!(r, fresh);
    }
}
