//! # tfd-value — the universal structured data value
//!
//! This crate defines the first-order data value `d` from §3.4 of
//! *Types from data: Making structured data first-class citizens in F#*
//! (Petricek, Guerra, Syme; PLDI 2016):
//!
//! ```text
//! d = i | f | s | true | false | null
//!   | [d1; ...; dn] | ν {ν1 ↦ d1, ..., νn ↦ dn}
//! ```
//!
//! The same representation uniformly captures JSON, XML and CSV documents
//! (§6.2 of the paper): JSON records use the single name `•`, XML elements
//! become records named after the element with attributes as fields and the
//! body under the special `•` field, and CSV files become collections of
//! unnamed (`•`) records with a field per column.
//!
//! The crate also provides:
//!
//! * [`Path`] / [`PathSegment`] — stable addresses of sub-values, used by
//!   error messages in the downstream runtime,
//! * a pretty-printer (the [`std::fmt::Display`] impl) writing the notation
//!   used throughout the paper,
//! * structural metrics ([`Value::depth`], [`Value::node_count`]) used by
//!   the benchmark harness,
//! * [`builder`] helpers and [`corpus`] generators producing synthetic
//!   documents for tests and benchmarks.
//!
//! # Example
//!
//! ```
//! use tfd_value::{Value, rec, arr};
//!
//! // root {id ↦ 1, • ↦ [item {• ↦ "Hello!"}]}   (§6.2 of the paper)
//! let doc = rec(
//!     "root",
//!     [
//!         ("id", Value::Int(1)),
//!         (tfd_value::BODY_FIELD, arr([rec("item", [(tfd_value::BODY_FIELD, Value::from("Hello!"))])])),
//!     ],
//! );
//! assert_eq!(doc.depth(), 4); // root → list → item → "Hello!"
//! assert!(doc.is_record());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod corpus;
pub mod hash;
pub mod intern;
mod metrics;
mod path;
mod print;
pub mod scan;
pub mod visit;

pub use builder::{arr, json_rec, rec};
pub use intern::{InternStats, Interner, Name};
pub use path::{Path, PathSegment};

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// The name used for records that have no meaningful name of their own.
///
/// The paper writes this name as `•`: JSON records always use it (§3.1) and
/// XML element bodies are stored under a field of this name (§6.2).
pub const BODY_NAME: &str = "\u{2022}";

/// The field name under which XML element bodies are stored (§6.2).
///
/// This is the same `•` symbol as [`BODY_NAME`]; a separate constant keeps
/// call sites self-describing.
pub const BODY_FIELD: &str = "\u{2022}";

/// The interned [`Name`] of [`BODY_NAME`] (`•`), interned into the
/// process-default arena once and cached: later calls take no lock.
pub fn body_name() -> Name {
    static BODY: std::sync::OnceLock<Name> = std::sync::OnceLock::new();
    *BODY.get_or_init(|| Name::new(BODY_NAME))
}

/// A record field: a name paired with a value.
///
/// Field order is preserved as parsed (the paper allows free reordering of
/// record fields; equality on [`Value`] is order-insensitive for records).
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// The field name `νᵢ` (interned — copying a field name is free).
    pub name: Name,
    /// The field value `dᵢ`.
    pub value: Value,
}

impl Field {
    /// Creates a field from a name and a value.
    ///
    /// ```
    /// use tfd_value::{Field, Value};
    /// let f = Field::new("age", Value::Int(25));
    /// assert_eq!(f.name, "age");
    /// ```
    pub fn new(name: impl Into<Name>, value: Value) -> Self {
        Field {
            name: name.into(),
            value,
        }
    }
}

/// The first-order structured data value `d` of §3.4.
///
/// A single representation shared by the JSON, XML and CSV front-ends, the
/// shape-inference algorithm (`tfd-core`), the Foo calculus (`tfd-foo`) and
/// the typed runtime (`tfd-runtime`).
#[derive(Debug, Clone)]
pub enum Value {
    /// Integer literal `i`.
    Int(i64),
    /// Floating-point literal `f`.
    Float(f64),
    /// String literal `s`.
    Str(String),
    /// Boolean literal `true` / `false`.
    Bool(bool),
    /// The `null` value.
    Null,
    /// A collection `[d1; ...; dn]`.
    List(Vec<Value>),
    /// A named record `ν {ν1 ↦ d1, ..., νn ↦ dn}`.
    Record {
        /// The record name `ν` ([`BODY_NAME`] for JSON objects / CSV rows),
        /// interned.
        name: Name,
        /// The record fields in source order.
        fields: Vec<Field>,
    },
}

impl Value {
    /// Builds a string value.
    ///
    /// ```
    /// # use tfd_value::Value;
    /// assert!(Value::str("hi").is_primitive());
    /// ```
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Builds a record value from a name and `(field, value)` pairs.
    ///
    /// ```
    /// # use tfd_value::Value;
    /// let p = Value::record("Point", vec![("x", Value::Int(3))]);
    /// assert_eq!(p.record_name(), Some("Point"));
    /// ```
    pub fn record<N, I, F>(name: N, fields: I) -> Value
    where
        N: Into<Name>,
        I: IntoIterator<Item = (F, Value)>,
        F: Into<Name>,
    {
        Value::Record {
            name: name.into(),
            fields: fields.into_iter().map(|(n, v)| Field::new(n, v)).collect(),
        }
    }

    /// Migrates every record and field name in this value into
    /// `interner` (see [`Name::reintern`]). Values that must outlive the
    /// corpus arena they were parsed in are migrated with this before
    /// the arena drops; string *values* are owned and unaffected.
    pub fn reintern(&mut self, interner: &Interner) {
        match self {
            Value::Int(_) | Value::Float(_) | Value::Str(_) | Value::Bool(_) | Value::Null => {}
            Value::List(items) => {
                for item in items {
                    item.reintern(interner);
                }
            }
            Value::Record { name, fields } => {
                *name = name.reintern(interner);
                for field in fields {
                    field.name = field.name.reintern(interner);
                    field.value.reintern(interner);
                }
            }
        }
    }

    /// Returns `true` for `Int`, `Float`, `Str` and `Bool` values.
    pub fn is_primitive(&self) -> bool {
        matches!(
            self,
            Value::Int(_) | Value::Float(_) | Value::Str(_) | Value::Bool(_)
        )
    }

    /// Returns `true` if the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns `true` if the value is a record.
    pub fn is_record(&self) -> bool {
        matches!(self, Value::Record { .. })
    }

    /// Returns `true` if the value is a collection.
    pub fn is_list(&self) -> bool {
        matches!(self, Value::List(_))
    }

    /// The record name `ν`, if this value is a record.
    pub fn record_name(&self) -> Option<&str> {
        match self {
            Value::Record { name, .. } => Some(name.as_str()),
            _ => None,
        }
    }

    /// The record name as an interned [`Name`], if this value is a record.
    pub fn record_name_sym(&self) -> Option<Name> {
        match self {
            Value::Record { name, .. } => Some(*name),
            _ => None,
        }
    }

    /// The record fields, if this value is a record.
    pub fn fields(&self) -> Option<&[Field]> {
        match self {
            Value::Record { fields, .. } => Some(fields),
            _ => None,
        }
    }

    /// The collection elements, if this value is a collection.
    pub fn elements(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a record field by name.
    ///
    /// Returns `None` when the value is not a record or has no such field.
    ///
    /// ```
    /// # use tfd_value::Value;
    /// let p = Value::record("Point", vec![("x", Value::Int(3))]);
    /// assert_eq!(p.field("x"), Some(&Value::Int(3)));
    /// assert_eq!(p.field("y"), None);
    /// ```
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields()?
            .iter()
            .find(|f| f.name == name)
            .map(|f| &f.value)
    }

    /// Follows a [`Path`] from this value to a sub-value.
    ///
    /// Returns `None` when any segment does not resolve.
    ///
    /// ```
    /// # use tfd_value::{Value, Path, PathSegment, arr};
    /// let v = arr([Value::Int(1), Value::Int(2)]);
    /// let p: Path = [PathSegment::Index(1)].into_iter().collect();
    /// assert_eq!(v.at(&p), Some(&Value::Int(2)));
    /// ```
    pub fn at(&self, path: &Path) -> Option<&Value> {
        let mut cur = self;
        for seg in path.segments() {
            cur = match seg {
                PathSegment::Field(name) => cur.field(name)?,
                PathSegment::Index(i) => cur.elements()?.get(*i)?,
            };
        }
        Some(cur)
    }

    /// A short tag describing the kind of value, used in error messages.
    ///
    /// ```
    /// # use tfd_value::Value;
    /// assert_eq!(Value::Null.kind(), "null");
    /// assert_eq!(Value::Int(1).kind(), "int");
    /// ```
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Bool(_) => "bool",
            Value::Null => "null",
            Value::List(_) => "collection",
            Value::Record { .. } => "record",
        }
    }

    /// Returns the numeric content as `f64` for `Int`/`Float` values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the string content for `Str` values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renames this record (no-op for non-records). Used by the XML
    /// front-end when applying element naming rules.
    pub fn with_record_name(self, new_name: impl Into<Name>) -> Value {
        match self {
            Value::Record { fields, .. } => Value::Record {
                name: new_name.into(),
                fields,
            },
            other => other,
        }
    }
}

impl Default for Value {
    /// The default value is `null`, the bottom of the data world.
    fn default() -> Self {
        Value::Null
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Cow<'_, str>> for Value {
    fn from(s: Cow<'_, str>) -> Self {
        Value::Str(s.into_owned())
    }
}

impl<V: Into<Value>> From<Option<V>> for Value {
    /// `None` maps to `null`, mirroring how missing data enters samples.
    fn from(v: Option<V>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

impl<V: Into<Value>> FromIterator<V> for Value {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        Value::List(iter.into_iter().map(Into::into).collect())
    }
}

/// Structural equality.
///
/// Record fields compare as unordered name→value maps — the paper assumes
/// "record fields can be freely reordered" (§3.1). Floats compare by bit
/// pattern of their `f64` so that `Value` can be `Eq` (NaN equals NaN);
/// note that `Int(1)` and `Float(1.0)` are *different* values (they have
/// different inferred shapes).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Null, Value::Null) => true,
            (Value::List(a), Value::List(b)) => a == b,
            (
                Value::Record {
                    name: na,
                    fields: fa,
                },
                Value::Record {
                    name: nb,
                    fields: fb,
                },
            ) => {
                if na != nb || fa.len() != fb.len() {
                    return false;
                }
                fa.iter().all(|f| {
                    fb.iter()
                        .find(|g| g.name == f.name)
                        .is_some_and(|g| g.value == f.value)
                })
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hasher;
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Null => {}
            Value::List(items) => items.hash(state),
            Value::Record { name, fields } => {
                name.hash(state);
                // Order-insensitive: fold per-field hashes with XOR so that
                // permutations of the same fields hash identically.
                fields.len().hash(state);
                let mut acc: u64 = 0;
                for f in fields {
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    f.name.hash(&mut h);
                    f.value.hash(&mut h);
                    acc ^= h.finish();
                }
                acc.hash(state);
            }
        }
    }
}

/// A total order on values, primarily so values can live in sorted
/// containers in the benchmark harness. Orders by kind first, then content
/// (records compare by name, then sorted field names, then field values).
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 3,
                Value::Str(_) => 4,
                Value::List(_) => 5,
                Value::Record { .. } => 6,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::List(a), Value::List(b)) => a.cmp(b),
            (
                Value::Record {
                    name: na,
                    fields: fa,
                },
                Value::Record {
                    name: nb,
                    fields: fb,
                },
            ) => na.cmp(nb).then_with(|| {
                let mut ka: Vec<_> = fa.iter().map(|f| (&f.name, &f.value)).collect();
                let mut kb: Vec<_> = fb.iter().map(|f| (&f.name, &f.value)).collect();
                ka.sort_by(|x, y| x.0.cmp(y.0));
                kb.sort_by(|x, y| x.0.cmp(y.0));
                ka.cmp(&kb)
            }),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Value {
    /// Formats the value in the paper's notation; see the `print` module.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        print::write_value(f, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(x: i64) -> Value {
        Value::record("Point", vec![("x", Value::Int(x))])
    }

    #[test]
    fn primitives_classify() {
        assert!(Value::Int(1).is_primitive());
        assert!(Value::Float(1.5).is_primitive());
        assert!(Value::str("s").is_primitive());
        assert!(Value::Bool(true).is_primitive());
        assert!(!Value::Null.is_primitive());
        assert!(!Value::List(vec![]).is_primitive());
        assert!(!point(1).is_primitive());
    }

    #[test]
    fn kind_tags() {
        assert_eq!(Value::Int(1).kind(), "int");
        assert_eq!(Value::Float(1.0).kind(), "float");
        assert_eq!(Value::str("").kind(), "string");
        assert_eq!(Value::Bool(false).kind(), "bool");
        assert_eq!(Value::Null.kind(), "null");
        assert_eq!(Value::List(vec![]).kind(), "collection");
        assert_eq!(point(0).kind(), "record");
    }

    #[test]
    fn record_field_lookup() {
        let p = Value::record("P", vec![("x", Value::Int(3)), ("y", Value::Int(4))]);
        assert_eq!(p.field("x"), Some(&Value::Int(3)));
        assert_eq!(p.field("y"), Some(&Value::Int(4)));
        assert_eq!(p.field("z"), None);
        assert_eq!(Value::Int(1).field("x"), None);
    }

    #[test]
    fn record_equality_is_order_insensitive() {
        let a = Value::record("P", vec![("x", Value::Int(3)), ("y", Value::Int(4))]);
        let b = Value::record("P", vec![("y", Value::Int(4)), ("x", Value::Int(3))]);
        assert_eq!(a, b);
    }

    #[test]
    fn record_equality_requires_same_name() {
        let a = Value::record("P", vec![("x", Value::Int(3))]);
        let b = Value::record("Q", vec![("x", Value::Int(3))]);
        assert_ne!(a, b);
    }

    #[test]
    fn record_equality_requires_same_width() {
        let a = Value::record("P", vec![("x", Value::Int(3))]);
        let b = Value::record("P", vec![("x", Value::Int(3)), ("y", Value::Int(4))]);
        assert_ne!(a, b);
    }

    #[test]
    fn int_and_float_are_distinct_values() {
        assert_ne!(Value::Int(1), Value::Float(1.0));
    }

    #[test]
    fn nan_equals_itself() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn hash_agrees_with_eq_under_field_permutation() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = Value::record("P", vec![("x", Value::Int(3)), ("y", Value::Int(4))]);
        let b = Value::record("P", vec![("y", Value::Int(4)), ("x", Value::Int(3))]);
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::from(Some(1i64)), Value::Int(1));
        assert_eq!(Value::from(None::<i64>), Value::Null);
    }

    #[test]
    fn collect_into_list() {
        let v: Value = (1i64..=3).collect();
        assert_eq!(
            v,
            Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn default_is_null() {
        assert_eq!(Value::default(), Value::Null);
    }

    #[test]
    fn ordering_ranks_kinds() {
        let mut vs = [point(1), Value::Null, Value::Int(2), Value::Bool(true)];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[2], Value::Int(2));
        assert!(vs[3].is_record());
    }

    #[test]
    fn with_record_name_renames_records_only() {
        assert_eq!(point(1).with_record_name("Q").record_name(), Some("Q"));
        assert_eq!(Value::Int(1).with_record_name("Q"), Value::Int(1));
    }

    #[test]
    fn at_follows_nested_paths() {
        let v = Value::record(
            "root",
            vec![("items", Value::List(vec![point(7), point(8)]))],
        );
        let p: Path = [
            PathSegment::Field("items".into()),
            PathSegment::Index(1),
            PathSegment::Field("x".into()),
        ]
        .into_iter()
        .collect();
        assert_eq!(v.at(&p), Some(&Value::Int(8)));
    }

    #[test]
    fn at_returns_none_for_bad_paths() {
        let v = point(1);
        let p: Path = [PathSegment::Index(0)].into_iter().collect();
        assert_eq!(v.at(&p), None);
    }
}
