//! # tfd-json — JSON front-end
//!
//! A from-scratch JSON parser and serializer for the `types-from-data`
//! workspace, mirroring the role of `JsonValue` in §2.1 of the paper:
//!
//! ```text
//! type JsonValue =
//!   | Number of float | Boolean of bool | String of string
//!   | Record of Map<string, JsonValue> | Array of JsonValue[] | Null
//! ```
//!
//! Our [`Json`] type refines `Number` into `Int`/`Float` because the shape
//! algebra distinguishes the two (§3.1: "We include two numerical
//! primitives, int for integers and float for floating-point numbers").
//!
//! The parser implements the full JSON grammar (RFC 8259): escape
//! sequences including `\uXXXX` with surrogate pairs, the complete number
//! grammar, and precise line/column error reporting. [`Json::to_value`]
//! maps documents onto the universal [`Value`], naming
//! every object record `•` exactly as the paper prescribes for JSON.
//!
//! # Example
//!
//! ```
//! let doc = tfd_json::parse(r#"{ "name": "Jan", "age": 25 }"#)?;
//! assert_eq!(doc.get("age"), Some(&tfd_json::Json::Int(25)));
//! let value = doc.to_value();
//! assert_eq!(value.record_name(), Some(tfd_value::BODY_NAME));
//! # Ok::<(), tfd_json::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lexer;
mod parser;
pub mod reference;
pub mod stream;
mod writer;

pub use lexer::Pos;
pub use parser::{
    parse, parse_many, parse_many_values, parse_many_values_each, parse_many_values_in,
    parse_many_values_with, parse_value, parse_value_in, parse_value_with, parse_with, ParseError,
    ParseErrorKind, ParserOptions,
};
pub use stream::BoundaryScanner;
pub use writer::{to_json_string, to_json_string_pretty};

use tfd_value::{Name, Value};

/// A parsed JSON document.
///
/// Compared to the paper's `JsonValue`, numbers carry their lexical
/// category: a literal without fraction/exponent that fits `i64` parses as
/// [`Json::Int`], everything else as [`Json::Float`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An integer literal, e.g. `25`.
    Int(i64),
    /// A floating-point literal, e.g. `3.5` or `1e-3`.
    Float(f64),
    /// A string literal.
    String(String),
    /// A boolean literal.
    Bool(bool),
    /// An object; key order is preserved. Keys are interned at parse
    /// time — object keys repeat across arrays of records, so a `Name`
    /// per key avoids one `String` per occurrence.
    Object(Vec<(Name, Json)>),
    /// An array.
    Array(Vec<Json>),
    /// The `null` literal.
    Null,
}

impl Json {
    /// Looks up an object member by key.
    ///
    /// ```
    /// # use tfd_json::Json;
    /// let obj = Json::Object(vec![("a".into(), Json::Int(1))]);
    /// assert_eq!(obj.get("a"), Some(&Json::Int(1)));
    /// assert_eq!(obj.get("b"), None);
    /// ```
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns array elements, if this is an array.
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Converts the document to the universal data value of §3.4.
    ///
    /// Objects become records named [`tfd_value::BODY_NAME`] (`•`), arrays become
    /// collections, and primitives map one-to-one.
    pub fn to_value(&self) -> Value {
        match self {
            Json::Int(i) => Value::Int(*i),
            Json::Float(f) => Value::Float(*f),
            Json::String(s) => Value::Str(s.clone()),
            Json::Bool(b) => Value::Bool(*b),
            Json::Null => Value::Null,
            Json::Array(items) => Value::List(items.iter().map(Json::to_value).collect()),
            Json::Object(members) => Value::record(
                tfd_value::body_name(),
                members.iter().map(|(k, v)| (*k, v.to_value())),
            ),
        }
    }

    /// Reconstructs a JSON document from a universal value.
    ///
    /// Record names are dropped (JSON has no record names); this is the
    /// left inverse of [`Json::to_value`] for values that came from JSON.
    pub fn from_value(value: &Value) -> Json {
        match value {
            Value::Int(i) => Json::Int(*i),
            Value::Float(f) => Json::Float(*f),
            Value::Str(s) => Json::String(s.clone()),
            Value::Bool(b) => Json::Bool(*b),
            Value::Null => Json::Null,
            Value::List(items) => Json::Array(items.iter().map(Json::from_value).collect()),
            Value::Record { fields, .. } => Json::Object(
                fields
                    .iter()
                    .map(|f| (f.name, Json::from_value(&f.value)))
                    .collect(),
            ),
        }
    }
}

impl std::fmt::Display for Json {
    /// Serializes the document as compact JSON text.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&to_json_string(self))
    }
}

impl std::str::FromStr for Json {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfd_value::BODY_NAME;

    #[test]
    fn get_on_non_object_is_none() {
        assert_eq!(Json::Int(1).get("x"), None);
        assert_eq!(Json::Array(vec![]).get("x"), None);
    }

    #[test]
    fn items_on_non_array_is_none() {
        assert_eq!(Json::Null.items(), None);
    }

    #[test]
    fn to_value_names_objects_with_bullet() {
        let j = Json::Object(vec![("a".into(), Json::Int(1))]);
        let v = j.to_value();
        assert_eq!(v.record_name(), Some(BODY_NAME));
        assert_eq!(v.field("a"), Some(&Value::Int(1)));
    }

    #[test]
    fn to_value_preserves_primitives() {
        assert_eq!(Json::Int(5).to_value(), Value::Int(5));
        assert_eq!(Json::Float(5.5).to_value(), Value::Float(5.5));
        assert_eq!(Json::Bool(true).to_value(), Value::Bool(true));
        assert_eq!(Json::Null.to_value(), Value::Null);
        assert_eq!(Json::String("s".into()).to_value(), Value::str("s"));
    }

    #[test]
    fn from_value_roundtrips_json_values() {
        let j: Json = parse(r#"{"a": [1, 2.5, null, {"b": true}]}"#).unwrap();
        assert_eq!(Json::from_value(&j.to_value()), j);
    }

    #[test]
    fn from_str_trait_works() {
        let j: Json = "[1,2]".parse().unwrap();
        assert_eq!(j, Json::Array(vec![Json::Int(1), Json::Int(2)]));
    }
}
