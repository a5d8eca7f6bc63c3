//! Minimal physical tuple representation.
//!
//! The execution models of the paper are evaluated with simulated operators,
//! so the engines in `dlb-exec` work on tuple *counts*. Physical tuples are
//! still useful to demonstrate the public API on real data (examples,
//! integration tests and the in-memory hash-join utilities), so this module
//! provides a deliberately small schema/tuple/value model.

use std::fmt;

/// A single attribute value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// 64-bit integer value (join keys are integers throughout the paper's
    /// workload).
    Int(i64),
    /// Variable-length string value.
    Str(String),
    /// SQL NULL.
    Null,
}

impl Value {
    /// Hash-partitioning bucket of this value among `buckets` buckets.
    pub fn bucket(&self, buckets: u32) -> u32 {
        debug_assert!(buckets > 0);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() % buckets as u64) as u32
    }

    /// Returns the integer payload if this value is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

/// Description of the attributes of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attributes: Vec<String>,
}

impl Schema {
    /// Creates a schema from attribute names.
    pub fn new<S: Into<String>>(attributes: Vec<S>) -> Self {
        Self {
            attributes: attributes.into_iter().map(Into::into).collect(),
        }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Attribute names.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Position of an attribute by name.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a == name)
    }

    /// Concatenates two schemas (used to form join output schemas).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut attributes = self.attributes.clone();
        attributes.extend(other.attributes.iter().cloned());
        Schema { attributes }
    }
}

/// A physical tuple: a flat vector of values matching a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at position `i`.
    pub fn value(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Concatenates two tuples (join output).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = self.values.clone();
        values.extend(other.values.iter().cloned());
        Tuple { values }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_basics() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Null.as_int(), None);
        assert_eq!(format!("{}", Value::Int(7)), "7");
        assert_eq!(format!("{}", Value::Str("a".into())), "'a'");
        assert_eq!(format!("{}", Value::Null), "NULL");
    }

    #[test]
    fn value_bucketing_is_stable_and_in_range() {
        for i in 0..100i64 {
            let v = Value::Int(i);
            let b = v.bucket(16);
            assert!(b < 16);
            assert_eq!(b, v.bucket(16), "bucketing must be deterministic");
        }
    }

    #[test]
    fn equal_values_bucket_together() {
        assert_eq!(Value::Int(42).bucket(64), Value::Int(42).bucket(64));
        assert_eq!(
            Value::Str("key".into()).bucket(8),
            Value::Str("key".into()).bucket(8)
        );
    }

    #[test]
    fn schema_operations() {
        let r = Schema::new(vec!["r_key", "r_payload"]);
        let s = Schema::new(vec!["s_key", "s_payload"]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.position("r_payload"), Some(1));
        assert_eq!(r.position("missing"), None);
        let joined = r.join(&s);
        assert_eq!(joined.arity(), 4);
        assert_eq!(joined.attributes()[2], "s_key");
    }

    #[test]
    fn tuple_operations() {
        let t1 = Tuple::new(vec![Value::Int(1), Value::Str("a".into())]);
        let t2 = Tuple::new(vec![Value::Int(2)]);
        assert_eq!(t1.arity(), 2);
        assert_eq!(t1.value(0), &Value::Int(1));
        let joined = t1.concat(&t2);
        assert_eq!(joined.arity(), 3);
        assert_eq!(joined.values()[2], Value::Int(2));
        assert_eq!(format!("{t1}"), "(1, 'a')");
    }
}
