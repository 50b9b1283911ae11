//! Relation schemas.
//!
//! A [`Schema`] is an ordered list of named, typed columns. Schemas are
//! wrapped in [`std::sync::Arc`] by [`crate::Relation`] so that projections
//! and shipped fragments share them cheaply.

use crate::error::{Error, Result};
use crate::value::DataType;
use std::fmt;
use std::sync::Arc;

/// A single column: name and type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    name: String,
    data_type: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Field {
        Field {
            name: name.into(),
            data_type,
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column type.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }
}

/// An ordered list of fields. Column names are unique within a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

/// A shared schema handle.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Build a schema from fields, checking name uniqueness.
    pub fn new(fields: Vec<Field>) -> Result<Schema> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name() == f.name()) {
                return Err(Error::DuplicateColumn(f.name().to_string()));
            }
        }
        Ok(Schema { fields })
    }

    /// Convenience constructor from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate column names; intended for statically-known
    /// schemas in tests and generators.
    #[expect(
        clippy::expect_used,
        reason = "documented to panic: callers pass column lists written in source"
    )]
    pub fn of(cols: &[(&str, DataType)]) -> Schema {
        Schema::new(
            cols.iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        )
        .expect("static schema has unique column names")
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// All fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Field at position `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name()).collect()
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name() == name)
            .ok_or_else(|| Error::UnknownColumn(name.to_string()))
    }

    /// Indexes for a list of column names.
    pub fn indexes_of(&self, names: &[&str]) -> Result<Vec<usize>> {
        names.iter().map(|n| self.index_of(n)).collect()
    }

    /// Whether a column with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.fields.iter().any(|f| f.name() == name)
    }

    /// A new schema consisting of the columns at `indexes`, in that order.
    pub fn project(&self, indexes: &[usize]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(indexes.len());
        for &i in indexes {
            let f = self
                .fields
                .get(i)
                .ok_or_else(|| Error::UnknownColumn(format!("#{i}")))?;
            fields.push(f.clone());
        }
        Schema::new(fields)
    }

    /// A new schema with `extra` fields appended.
    pub fn extend(&self, extra: &[Field]) -> Result<Schema> {
        let mut fields = self.fields.clone();
        fields.extend_from_slice(extra);
        Schema::new(fields)
    }

    /// Approximate serialized size of the schema itself (codec accounting).
    pub fn encoded_size(&self) -> usize {
        4 + self
            .fields
            .iter()
            .map(|f| 4 + f.name().len() + 1)
            .sum::<usize>()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", field.name(), field.data_type())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_column_rejected() {
        let err = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Str),
        ])
        .unwrap_err();
        assert!(matches!(err, Error::DuplicateColumn(c) if c == "a"));
    }

    #[test]
    fn index_lookup() {
        let s = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert!(s.index_of("c").is_err());
        assert_eq!(s.indexes_of(&["b", "a"]).unwrap(), vec![1, 0]);
        assert!(s.contains("a"));
        assert!(!s.contains("z"));
    }

    #[test]
    fn project_and_extend() {
        let s = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        let p = s.project(&[1]).unwrap();
        assert_eq!(p.column_names(), ["b"]);
        let e = s.extend(&[Field::new("c", DataType::Double)]).unwrap();
        assert_eq!(e.column_names(), ["a", "b", "c"]);
        assert!(s.extend(&[Field::new("a", DataType::Int)]).is_err());
        assert!(s.project(&[5]).is_err());
    }

    #[test]
    fn display() {
        let s = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        assert_eq!(s.to_string(), "(a INT, b STR)");
    }
}
