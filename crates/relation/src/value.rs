//! Scalar values and data types.
//!
//! [`Value`] is the unit of data flowing through the engine. It provides a
//! *total* order and a consistent [`Hash`] implementation (doubles hash via
//! their bit pattern) so that rows can key hash maps — the coordinator's
//! base-result structure is indexed on key attributes (Sect. 3.2 of the
//! paper), and the GMDJ fast path hash-partitions detail tuples.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 floating point.
    Double,
    /// UTF-8 string (cheaply clonable).
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Double => write!(f, "DOUBLE"),
            DataType::Str => write!(f, "STR"),
        }
    }
}

/// A scalar value.
///
/// `Null` compares less than everything else; `Int` and `Double` compare
/// numerically with each other, exactly (so `Value::Int(2) ==
/// Value::Double(2.0)`, and `Int(2⁵³ + 1) > Double(2⁵³)`); strings compare
/// lexicographically and are greater than all numbers.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absence of a value (e.g. an aggregate over an empty range).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` is normalized to a single bit pattern and sorts
    /// after all other doubles.
    Double(f64),
    /// Shared immutable string.
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// The data type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Is this `Null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as a numeric `f64` if possible.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Interpret as an `i64` if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Interpret as a string slice if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL-style truthiness for predicate results: `Int(0)`/`Null` are
    /// false, any other value is true.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Int(i) => *i != 0,
            Value::Double(d) => *d != 0.0,
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// Size in bytes of the value as one tagged cell ([`crate::codec`]
    /// writes expression literals so).
    pub fn encoded_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Double(_) => 9,
            Value::Str(s) => 1 + 4 + s.len(),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::str(v)
    }
}

/// Rank used to order values of different types: Null < numbers < strings.
fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Int(_) | Value::Double(_) => 1,
        Value::Str(_) => 2,
    }
}

/// Total order on doubles: ordinary order, with NaN greatest (and all
/// NaNs equal) — the order [`Value`]'s `Ord` gives `Double`s.
pub fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    // `partial_cmp` is `None` exactly when a side is NaN.
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// 2⁶³ as a double: the first double past `i64::MAX`.
pub const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// Does `d` hold an integer in `i64`'s range, `[−2⁶³, 2⁶³)`? Then it is
/// [`Value`]-equal to `Int(d as i64)` (`-0.0` to `Int(0)`).
#[inline]
pub fn f64_is_i64(d: f64) -> bool {
    d.fract() == 0.0 && (-TWO_POW_63..TWO_POW_63).contains(&d)
}

/// `i` against `d` exactly, in [`Value`]'s order (NaN greatest, `-0.0`
/// equal to `0`). `i as f64` rounds, but monotonically: where it differs
/// from `d` it orders the two as `i` itself does, and where it equals `d`,
/// `d` is an integer that the integers compare.
pub fn cmp_i64_f64(i: i64, d: f64) -> Ordering {
    match (i as f64).partial_cmp(&d) {
        None => Ordering::Less,
        Some(Ordering::Equal) if d >= TWO_POW_63 => Ordering::Less,
        Some(Ordering::Equal) => i.cmp(&(d as i64)),
        Some(o) => o,
    }
}

/// `a + b`, with the NaN a NaN operand makes taken from the left operand
/// when both are NaN — as x86 does it, but fixed here rather than left to
/// which operand order the compiler picks. Every path that sums doubles
/// (the `Value` accumulators, the kernel's typed loops, the coordinator's
/// typed merge) adds through this, so their NaN payloads agree bit for
/// bit.
#[inline]
pub fn f64_add(a: f64, b: f64) -> f64 {
    let sum = a + b;
    if !sum.is_nan() {
        sum
    } else if a.is_nan() {
        f64::from_bits(a.to_bits() | QUIET_BIT)
    } else if b.is_nan() {
        f64::from_bits(b.to_bits() | QUIET_BIT)
    } else {
        sum
    }
}

/// The bit that makes a NaN quiet.
const QUIET_BIT: u64 = 1 << 51;

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => total_f64_cmp(*a, *b),
            (Value::Int(a), Value::Double(b)) => cmp_i64_f64(*a, *b),
            (Value::Double(a), Value::Int(b)) => cmp_i64_f64(*b, *a).reverse(),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            // Ints and doubles that compare equal must hash equally:
            // hash integral doubles as their integer value.
            Value::Int(i) => {
                state.write_u8(1);
                state.write_i64(*i);
            }
            Value::Double(d) => {
                if f64_is_i64(*d) {
                    state.write_u8(1);
                    state.write_i64(*d as i64);
                } else {
                    state.write_u8(2);
                    // Normalize NaNs and -0.0 so equal values hash equally.
                    let bits = if d.is_nan() {
                        f64::NAN.to_bits()
                    } else if *d == 0.0 {
                        0f64.to_bits()
                    } else {
                        d.to_bits()
                    };
                    state.write_u64(bits);
                }
            }
            Value::Str(s) => {
                state.write_u8(3);
                state.write(s.as_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_double_equality_and_hash_agree() {
        let a = Value::Int(42);
        let b = Value::Double(42.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn total_order_across_types() {
        let mut vs = vec![
            Value::str("abc"),
            Value::Int(5),
            Value::Null,
            Value::Double(4.5),
            Value::str("ab"),
            Value::Int(-1),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Int(-1),
                Value::Double(4.5),
                Value::Int(5),
                Value::str("ab"),
                Value::str("abc"),
            ]
        );
    }

    #[test]
    fn nan_is_greatest_double_and_equal_to_itself() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan, Value::Double(f64::NAN));
        assert!(nan > Value::Double(f64::INFINITY));
        assert!(nan < Value::str(""));
        assert_eq!(hash_of(&nan), hash_of(&Value::Double(f64::NAN)));
    }

    #[test]
    fn negative_zero_equals_positive_zero() {
        assert_eq!(Value::Double(-0.0), Value::Double(0.0));
        assert_eq!(hash_of(&Value::Double(-0.0)), hash_of(&Value::Double(0.0)));
        assert_eq!(Value::Double(-0.0), Value::Int(0));
        assert_eq!(hash_of(&Value::Double(-0.0)), hash_of(&Value::Int(0)));
    }

    #[test]
    fn int_double_order_is_exact_and_transitive() {
        let big = 1i64 << 53;
        let (a, b, c) = (Value::Int(big + 1), Value::Double(big as f64), Value::Int(big));
        // Int(2⁵³ + 1) is above Double(2⁵³), which equals Int(2⁵³).
        assert!(a > b);
        assert_eq!(b, c);
        assert!(a > c);
        assert_eq!(hash_of(&b), hash_of(&c));
        // 2⁶³ is past every i64: Double(2⁶³) is no Int, above i64::MAX,
        // and hashes apart from it; −2⁶³ is i64::MIN.
        let top = Value::Double(9_223_372_036_854_775_808.0);
        assert!(top > Value::Int(i64::MAX));
        assert_ne!(hash_of(&top), hash_of(&Value::Int(i64::MAX)));
        assert_eq!(Value::Double(-9_223_372_036_854_775_808.0), Value::Int(i64::MIN));
        assert!(Value::Double(-9_223_372_036_854_775_808.0 * 2.0) < Value::Int(i64::MIN));
        // Fractions, infinities, NaN (greatest) and −0.0 keep their places.
        assert!(Value::Int(2) < Value::Double(2.5) && Value::Double(2.5) < Value::Int(3));
        assert!(Value::Int(-3) < Value::Double(-2.5) && Value::Double(-2.5) < Value::Int(-2));
        assert!(Value::Int(i64::MAX) < Value::Double(f64::INFINITY));
        assert!(Value::Int(i64::MIN) > Value::Double(f64::NEG_INFINITY));
        assert!(Value::Int(i64::MAX) < Value::Double(f64::NAN));
        assert_eq!(Value::Int(0), Value::Double(-0.0));

        // Sorting a set that mixes near-2⁵³ ints and doubles is a total
        // order: every pair agrees with its reverse, and with transitivity.
        let vs: Vec<Value> = [-1i64, 0, 1, 2]
            .iter()
            .flat_map(|&k| {
                let i = big + k;
                [Value::Int(i), Value::Double(i as f64), Value::Int(-i), Value::Double(-i as f64)]
            })
            .chain([Value::Int(i64::MAX), Value::Double(9_223_372_036_854_775_808.0)])
            .collect();
        for x in &vs {
            for y in &vs {
                assert_eq!(x.cmp(y), y.cmp(x).reverse(), "{x:?} vs {y:?}");
                if x == y {
                    assert_eq!(hash_of(x), hash_of(y), "{x:?} vs {y:?}");
                }
                for z in &vs {
                    if x <= y && y <= z {
                        assert!(x <= z, "{x:?} <= {y:?} <= {z:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Int(1).is_truthy());
        assert!(!Value::Double(0.0).is_truthy());
        assert!(Value::str("x").is_truthy());
        assert!(!Value::str("").is_truthy());
    }

    #[test]
    fn encoded_size_matches_kind() {
        assert_eq!(Value::Null.encoded_size(), 1);
        assert_eq!(Value::Int(7).encoded_size(), 9);
        assert_eq!(Value::str("abc").encoded_size(), 8);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(2.5), Value::Double(2.5));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::str("hi").as_f64(), None);
        assert_eq!(Value::Int(3).as_i64(), Some(3));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
    }
}
