//! Rows (tuples).

use crate::value::Value;
use std::fmt;

/// A tuple of values, positionally matching some [`crate::Schema`].
///
/// Rows are plain vectors of [`Value`]; the boxed-slice representation keeps
/// the per-row footprint at two words once a row is frozen.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Row {
    values: Box<[Value]>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Row {
        Row {
            values: values.into_boxed_slice(),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the row has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at position `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Replace the value at position `i`.
    pub fn set(&mut self, i: usize, v: Value) {
        self.values[i] = v;
    }

    /// The sub-row formed by the columns at `indexes`, in that order.
    pub fn project(&self, indexes: &[usize]) -> Row {
        Row::new(indexes.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// A new row with `extra` values appended.
    pub fn extend(&self, extra: &[Value]) -> Row {
        let mut v = Vec::with_capacity(self.values.len() + extra.len());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(extra);
        Row::new(v)
    }

}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Row {
        Row::new(values)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Build a row from a list of things convertible to [`Value`].
///
/// ```
/// use skalla_relation::{row, Value};
/// let r = row![1i64, 2.5, "x"];
/// assert_eq!(r.get(2), &Value::str("x"));
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use crate::Value;

    #[test]
    fn project_picks_in_order() {
        let p = row![10i64, "a", 2.5].project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Double(2.5), Value::Int(10)]);
    }

    #[test]
    fn extend_and_set() {
        let mut r = row![1i64];
        r.set(0, Value::Int(2));
        let e = r.extend(&[Value::Null]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.get(0), &Value::Int(2));
        assert!(e.get(1).is_null());
    }

    #[test]
    fn display() {
        assert_eq!(row![1i64, "x"].to_string(), "[1, x]");
    }
}
