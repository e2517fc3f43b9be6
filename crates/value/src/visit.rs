//! A record as a stream of top-down events, and the folds that consume
//! records that way.
//!
//! Shape inference only ever reads a record once, top down. A
//! [`Visitor`] receives exactly what that read needs: where records and
//! collections start and end, each field's key, and each leaf classified
//! far enough for `S(d)` (an integer keeps its value for the `bit`
//! rule, a string its text for the date and stringly-number rules, a
//! float nothing). The events are format-neutral: a built [`Value`]
//! replays them with [`Value::visit`], and a front-end can send them
//! straight from its parser without building the value at all.
//!
//! A [`RecordFold`] is a consumer of a stream of records that can take
//! each one either way: it offers a [`RecordWalk`] for the next record
//! when the events alone can settle it, and otherwise takes the built
//! value.

use crate::Value;
use std::convert::Infallible;

/// A leaf of a record, classified as far as shape inference needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Leaf<'a> {
    /// An integer literal.
    Int(i64),
    /// A floating-point literal (its value never affects a shape).
    Float,
    /// `true` or `false`.
    Bool,
    /// `null`.
    Null,
    /// A string literal, decoded.
    Str(&'a str),
}

/// Receives one record's events, top down. Each method returns whether
/// the visitor wants the rest of the record: a source may stop sending
/// events after a `false`, and must send nothing more that matters.
pub trait Visitor {
    /// A record named `name` starts; its fields follow as a key each,
    /// then the field's value.
    fn record_start(&mut self, name: &str) -> bool;
    /// The next field of the innermost open record is named `key`; its
    /// value's events follow.
    fn key(&mut self, key: &str) -> bool;
    /// The innermost open record ends.
    fn record_end(&mut self) -> bool;
    /// A collection starts; its items' events follow.
    fn list_start(&mut self) -> bool;
    /// The innermost open collection ends.
    fn list_end(&mut self) -> bool;
    /// A leaf value.
    fn leaf(&mut self, leaf: Leaf<'_>) -> bool;
}

/// A visitor that settles one whole record.
pub trait RecordWalk: Visitor {
    /// Ends the walk after the record's last event: `true` when the
    /// walk took the record in, `false` when the record must be built
    /// and [pushed](RecordFold::push) instead.
    fn finish(self) -> bool;
}

/// A fold over a stream of records that can take a record as its events
/// or as a built [`Value`].
pub trait RecordFold {
    /// The walk that settles one record from its events.
    type Walk<'w>: RecordWalk
    where
        Self: 'w;

    /// A walk for the next record, or `None` when the fold wants it
    /// built.
    fn walk(&mut self) -> Option<Self::Walk<'_>>;

    /// Folds a built record in.
    fn push(&mut self, record: Value);
}

/// Collects every record, built.
impl RecordFold for Vec<Value> {
    type Walk<'w> = Infallible;

    fn walk(&mut self) -> Option<Infallible> {
        None
    }

    fn push(&mut self, record: Value) {
        Vec::push(self, record);
    }
}

/// The walk of a fold that never walks.
impl Visitor for Infallible {
    fn record_start(&mut self, _: &str) -> bool {
        match *self {}
    }
    fn key(&mut self, _: &str) -> bool {
        match *self {}
    }
    fn record_end(&mut self) -> bool {
        match *self {}
    }
    fn list_start(&mut self) -> bool {
        match *self {}
    }
    fn list_end(&mut self) -> bool {
        match *self {}
    }
    fn leaf(&mut self, _: Leaf<'_>) -> bool {
        match *self {}
    }
}

impl RecordWalk for Infallible {
    fn finish(self) -> bool {
        match self {}
    }
}

impl Value {
    /// This value as a [`Leaf`], or `None` for a record or collection.
    ///
    /// ```
    /// use tfd_value::{visit::Leaf, Value};
    /// assert_eq!(Value::Float(2.5).as_leaf(), Some(Leaf::Float));
    /// assert_eq!(Value::List(vec![]).as_leaf(), None);
    /// ```
    pub fn as_leaf(&self) -> Option<Leaf<'_>> {
        Some(match self {
            Value::Int(i) => Leaf::Int(*i),
            Value::Float(_) => Leaf::Float,
            Value::Bool(_) => Leaf::Bool,
            Value::Null => Leaf::Null,
            Value::Str(s) => Leaf::Str(s),
            Value::List(_) | Value::Record { .. } => return None,
        })
    }

    /// Replays this value's events into `visitor`, in document order,
    /// stopping at the first event the visitor declines. Returns `false`
    /// when it stopped early.
    ///
    /// ```
    /// use tfd_value::visit::{Leaf, Visitor};
    /// use tfd_value::{json_rec, Value};
    ///
    /// #[derive(Default)]
    /// struct Keys(Vec<String>);
    /// impl Visitor for Keys {
    ///     fn record_start(&mut self, _: &str) -> bool { true }
    ///     fn key(&mut self, key: &str) -> bool { self.0.push(key.to_owned()); true }
    ///     fn record_end(&mut self) -> bool { true }
    ///     fn list_start(&mut self) -> bool { true }
    ///     fn list_end(&mut self) -> bool { true }
    ///     fn leaf(&mut self, _: Leaf<'_>) -> bool { true }
    /// }
    ///
    /// let mut keys = Keys::default();
    /// assert!(json_rec([("a", Value::Int(1)), ("b", Value::Null)]).visit(&mut keys));
    /// assert_eq!(keys.0, ["a", "b"]);
    /// ```
    pub fn visit<V: Visitor + ?Sized>(&self, visitor: &mut V) -> bool {
        match self {
            Value::Int(i) => visitor.leaf(Leaf::Int(*i)),
            Value::Float(_) => visitor.leaf(Leaf::Float),
            Value::Bool(_) => visitor.leaf(Leaf::Bool),
            Value::Null => visitor.leaf(Leaf::Null),
            Value::Str(s) => visitor.leaf(Leaf::Str(s)),
            Value::Record { name, fields } => {
                visitor.record_start(name.as_str())
                    && fields
                        .iter()
                        .all(|f| visitor.key(f.name.as_str()) && f.value.visit(visitor))
                    && visitor.record_end()
            }
            Value::List(items) => {
                visitor.list_start() && items.iter().all(|d| d.visit(visitor)) && visitor.list_end()
            }
        }
    }
}
