//! The shape algebra σ of §3.1, §3.5 and §6.4.
//!
//! ```text
//! σ̂ = ν {ν1:σ1, ..., νn:σn}            (records)
//!   | float | int | bool | string       (primitives)
//!
//! σ = σ̂ | nullable σ̂ | [σ] | any | null | ⊥
//!   | any⟨σ1, ..., σn⟩                  (labelled top, §3.5)
//!   | [σ1,ψ1 | ... | σn,ψn]             (heterogeneous collection, §6.4)
//! ```
//!
//! Two extended primitives from §6.2 are included: **bit** ("preferred
//! [over] both int and bool", inferred for 0/1-valued CSV columns) and
//! **date** (inferred for date-formatted strings). They participate in
//! the preference relation as documented on [`Shape`]; the formal
//! fragment used for the relative-safety theorem never produces them.

use crate::multiplicity::Multiplicity;
use std::fmt;
use tfd_value::Name;

/// A record field shape: a name `νᵢ` with its shape `σᵢ`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldShape {
    /// Field name (interned — copying a field name is free).
    pub name: Name,
    /// Field shape.
    pub shape: Shape,
}

impl FieldShape {
    /// Creates a field shape.
    pub fn new(name: impl Into<Name>, shape: Shape) -> FieldShape {
        FieldShape {
            name: name.into(),
            shape,
        }
    }
}

/// A record shape `ν {ν1:σ1, ..., νn:σn}`.
///
/// JSON records use the name `•` ([`tfd_value::BODY_NAME`]); XML records
/// are named after their element.
///
/// Field *order* is preserved as first seen in the samples (important for
/// predictable provided types, §6.5) but is not semantically meaningful:
/// equality and hashing treat fields as an unordered name→shape map,
/// because "record fields can be freely reordered" (§3.1).
#[derive(Debug, Clone, Eq)]
pub struct RecordShape {
    /// Record name `ν` (interned).
    pub name: Name,
    /// Fields in first-seen order.
    pub fields: Vec<FieldShape>,
}

impl PartialEq for RecordShape {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.fields.len() == other.fields.len()
            && self.fields.iter().all(|f| {
                other
                    .fields
                    .iter()
                    .find(|g| g.name == f.name)
                    .is_some_and(|g| g.shape == f.shape)
            })
    }
}

impl std::hash::Hash for RecordShape {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hasher;
        self.name.hash(state);
        self.fields.len().hash(state);
        // Order-insensitive fold, consistent with the PartialEq above.
        let mut acc: u64 = 0;
        for f in &self.fields {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            f.name.hash(&mut h);
            f.shape.hash(&mut h);
            acc ^= h.finish();
        }
        acc.hash(state);
    }
}

impl RecordShape {
    /// Creates a record shape from `(name, shape)` pairs.
    pub fn new<N, I, F>(name: N, fields: I) -> RecordShape
    where
        N: Into<Name>,
        I: IntoIterator<Item = (F, Shape)>,
        F: Into<Name>,
    {
        RecordShape {
            name: name.into(),
            fields: fields
                .into_iter()
                .map(|(n, s)| FieldShape::new(n, s))
                .collect(),
        }
    }

    /// Looks up a field shape by name.
    pub fn field(&self, name: &str) -> Option<&Shape> {
        self.fields
            .iter()
            .find(|f| f.name == name)
            .map(|f| &f.shape)
    }
}

/// The shape of structured data, σ.
///
/// See the module docs for the grammar. Key structural invariants
/// (enforced by the smart constructors and preserved by `csh`):
///
/// * [`Shape::Nullable`] only wraps *non-nullable* shapes σ̂ (records and
///   primitives) — `nullable (nullable σ)` and `nullable [σ]` never occur
///   (collections are already nullable, §3.1).
/// * [`Shape::Top`] labels are non-nullable (`⌊−⌋` applied, Fig. 4), carry
///   pairwise-distinct tags, and never include another top shape.
/// * [`Shape::HeteroList`] cases carry pairwise-distinct tags.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Shape {
    /// The bottom shape ⊥ (inferred only for the empty sample set /
    /// empty collections).
    Bottom,
    /// The shape of the `null` value.
    Null,
    /// Boolean primitive.
    Bool,
    /// Integer primitive (preferred over `float`, Def. 1 rule 1).
    Int,
    /// Floating-point primitive.
    Float,
    /// String primitive.
    String,
    /// §6.2 extension: a 0/1-valued integer, "preferred \[over] both int
    /// and bool". Only inferred when
    /// [`InferOptions::infer_bits`](crate::InferOptions) is on.
    Bit,
    /// §6.2 extension: a date-formatted string (preferred over `string`).
    /// Only inferred when
    /// [`InferOptions::detect_dates`](crate::InferOptions) is on.
    Date,
    /// A record shape ν {…}.
    Record(RecordShape),
    /// `nullable σ̂` — an explicitly optional value (§3.1). The inner
    /// shape is always non-nullable.
    Nullable(Box<Shape>),
    /// A collection `[σ]`. Collections are implicitly nullable: a `null`
    /// where a collection is expected reads as the empty collection.
    List(Box<Shape>),
    /// The top shape with statically known labels `any⟨σ1,…,σn⟩` (§3.5).
    /// An empty label list is the plain `any` of §3.1. Labels do not
    /// affect the preference relation — `any⟨…⟩` is the top shape
    /// regardless.
    Top(Vec<Shape>),
    /// A heterogeneous collection `[σ1,ψ1 | … | σn,ψn]` (§6.4): possible
    /// element shapes with their multiplicities. Only inferred when
    /// [`InferOptions::hetero_collections`](crate::InferOptions) is on.
    HeteroList(Vec<(Shape, Multiplicity)>),
    /// A μ-style back-reference to the record definition named ν in an
    /// ambient [`ShapeEnv`](crate::ShapeEnv). This is how recursive
    /// structures (a `<ul>` containing `<li>` containing `<ul>`) become
    /// representable: `globalize_env` replaces every occurrence of a
    /// name-class record with a reference to its definitions-table entry,
    /// so re-inference reaches a true fixed point (F# Data's provided
    /// types work the same way — a nested occurrence is a *reference* to
    /// its class, not an inline expansion).
    ///
    /// A `Ref` always denotes a record (the env bodies are
    /// [`RecordShape`]s), so it is non-nullable and tags as
    /// [`Tag::Name`](crate::Tag). Inference never produces `Ref` on its
    /// own; only the global (§6.2) pass introduces it.
    Ref(Name),
}

impl Shape {
    /// The plain (unlabelled) top shape `any`.
    pub fn any() -> Shape {
        Shape::Top(Vec::new())
    }

    /// Builds a record shape.
    ///
    /// ```
    /// use tfd_core::Shape;
    /// let s = Shape::record("Point", [("x", Shape::Int)]);
    /// assert!(s.is_non_nullable());
    /// ```
    pub fn record<N, I, F>(name: N, fields: I) -> Shape
    where
        N: Into<Name>,
        I: IntoIterator<Item = (F, Shape)>,
        F: Into<Name>,
    {
        Shape::Record(RecordShape::new(name, fields))
    }

    /// Builds a homogeneous collection shape `[σ]`.
    pub fn list(element: Shape) -> Shape {
        Shape::List(Box::new(element))
    }

    /// Returns `true` for the non-nullable shapes σ̂ of §3.1: records and
    /// primitives (including the `bit`/`date` extensions). A [`Shape::Ref`]
    /// denotes a record definition, so it is non-nullable too.
    pub fn is_non_nullable(&self) -> bool {
        matches!(
            self,
            Shape::Bool
                | Shape::Int
                | Shape::Float
                | Shape::String
                | Shape::Bit
                | Shape::Date
                | Shape::Record(_)
                | Shape::Ref(_)
        )
    }

    /// The `⌈σ⌉` operator of Fig. 2: wraps non-nullable shapes in
    /// `nullable ·`, leaves everything else unchanged.
    ///
    /// ```
    /// use tfd_core::Shape;
    /// assert_eq!(Shape::Int.ceil(), Shape::Nullable(Box::new(Shape::Int)));
    /// assert_eq!(Shape::list(Shape::Int).ceil(), Shape::list(Shape::Int));
    /// ```
    #[must_use]
    pub fn ceil(self) -> Shape {
        if self.is_non_nullable() {
            Shape::Nullable(Box::new(self))
        } else {
            self
        }
    }

    /// The `⌊σ⌋` operator of Fig. 2: unwraps `nullable σ̂` to `σ̂`, leaves
    /// everything else unchanged.
    ///
    /// ```
    /// use tfd_core::Shape;
    /// assert_eq!(Shape::Int.ceil().floor(), Shape::Int);
    /// assert_eq!(Shape::Null.floor(), Shape::Null);
    /// ```
    #[must_use]
    pub fn floor(self) -> Shape {
        match self {
            Shape::Nullable(inner) => *inner,
            other => other,
        }
    }

    /// Returns `true` if this is the top shape (with or without labels).
    pub fn is_top(&self) -> bool {
        matches!(self, Shape::Top(_))
    }

    /// Returns the record shape, if this is a record.
    pub fn as_record(&self) -> Option<&RecordShape> {
        match self {
            Shape::Record(r) => Some(r),
            _ => None,
        }
    }

    /// Counts the nodes of the shape tree (a complexity metric for
    /// inferred shapes).
    pub fn size(&self) -> usize {
        match self {
            Shape::Record(r) => 1 + r.fields.iter().map(|f| f.shape.size()).sum::<usize>(),
            Shape::Nullable(s) | Shape::List(s) => 1 + s.size(),
            Shape::Top(labels) => 1 + labels.iter().map(Shape::size).sum::<usize>(),
            Shape::HeteroList(cases) => 1 + cases.iter().map(|(s, _)| s.size()).sum::<usize>(),
            _ => 1,
        }
    }

    /// Migrates every record, field and reference name in this shape
    /// into `interner` (see [`Name::reintern`]). A shape folded from a
    /// corpus-scoped arena is migrated with this before the arena drops,
    /// so the schema-sized survivor outlives the corpus-sized
    /// vocabulary it was distilled from.
    pub fn reintern(&mut self, interner: &tfd_value::Interner) {
        match self {
            Shape::Bottom
            | Shape::Null
            | Shape::Bool
            | Shape::Int
            | Shape::Float
            | Shape::String
            | Shape::Bit
            | Shape::Date => {}
            Shape::Record(r) => {
                r.name = r.name.reintern(interner);
                for f in &mut r.fields {
                    f.name = f.name.reintern(interner);
                    f.shape.reintern(interner);
                }
            }
            Shape::Nullable(s) | Shape::List(s) => s.reintern(interner),
            Shape::Top(labels) => {
                for s in labels {
                    s.reintern(interner);
                }
            }
            Shape::HeteroList(cases) => {
                for (s, _) in cases {
                    s.reintern(interner);
                }
            }
            Shape::Ref(name) => *name = name.reintern(interner),
        }
    }

    /// Returns `true` if the shape contains a labelled/plain top anywhere.
    /// Used by the ablation experiment that measures how often the
    /// inference has to give up on precise typing (B6).
    pub fn contains_top(&self) -> bool {
        match self {
            Shape::Top(_) => true,
            Shape::Record(r) => r.fields.iter().any(|f| f.shape.contains_top()),
            Shape::Nullable(s) | Shape::List(s) => s.contains_top(),
            Shape::HeteroList(cases) => cases.iter().any(|(s, _)| s.contains_top()),
            _ => false,
        }
    }
}

impl fmt::Display for Shape {
    /// Formats the shape in the paper's notation, e.g.
    /// `• {name : string, age : nullable float}` or `any⟨float, bool⟩`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Shape::Bottom => write!(f, "\u{22a5}"),
            Shape::Null => write!(f, "null"),
            Shape::Bool => write!(f, "bool"),
            Shape::Int => write!(f, "int"),
            Shape::Float => write!(f, "float"),
            Shape::String => write!(f, "string"),
            Shape::Bit => write!(f, "bit"),
            Shape::Date => write!(f, "date"),
            Shape::Record(r) => {
                write!(f, "{} {{", r.name)?;
                for (i, field) in r.fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} : {}", field.name, field.shape)?;
                }
                write!(f, "}}")
            }
            Shape::Nullable(inner) => write!(f, "nullable {inner}"),
            Shape::List(element) => write!(f, "[{element}]"),
            Shape::Top(labels) if labels.is_empty() => write!(f, "any"),
            Shape::Top(labels) => {
                write!(f, "any\u{27e8}")?;
                for (i, label) in labels.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{label}")?;
                }
                write!(f, "\u{27e9}")
            }
            Shape::HeteroList(cases) => {
                write!(f, "[")?;
                for (i, (shape, m)) in cases.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{shape}, {m}")?;
                }
                write!(f, "]")
            }
            Shape::Ref(name) => write!(f, "\u{21ba}{name}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_nullable_classification() {
        for s in [
            Shape::Bool,
            Shape::Int,
            Shape::Float,
            Shape::String,
            Shape::Bit,
            Shape::Date,
            Shape::record("R", [("x", Shape::Int)]),
        ] {
            assert!(s.is_non_nullable(), "{s} should be non-nullable");
        }
        for s in [
            Shape::Bottom,
            Shape::Null,
            Shape::any(),
            Shape::list(Shape::Int),
            Shape::Int.ceil(),
            Shape::HeteroList(vec![]),
        ] {
            assert!(!s.is_non_nullable(), "{s} should be nullable");
        }
    }

    #[test]
    fn ceil_wraps_only_non_nullable() {
        assert_eq!(Shape::Int.ceil(), Shape::Nullable(Box::new(Shape::Int)));
        assert_eq!(Shape::Null.ceil(), Shape::Null);
        assert_eq!(Shape::any().ceil(), Shape::any());
        let list = Shape::list(Shape::Int);
        assert_eq!(list.clone().ceil(), list);
        // ceil is idempotent via the invariant:
        assert_eq!(Shape::Int.ceil().ceil(), Shape::Int.ceil());
    }

    #[test]
    fn floor_inverts_ceil_on_non_nullable() {
        for s in [
            Shape::Int,
            Shape::String,
            Shape::record("R", [("x", Shape::Bool)]),
        ] {
            assert_eq!(s.clone().ceil().floor(), s);
        }
        assert_eq!(Shape::Null.floor(), Shape::Null);
    }

    #[test]
    fn record_field_lookup() {
        let r = RecordShape::new("P", [("x", Shape::Int), ("y", Shape::Float)]);
        assert_eq!(r.field("x"), Some(&Shape::Int));
        assert_eq!(r.field("z"), None);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Shape::Bottom.to_string(), "\u{22a5}");
        assert_eq!(Shape::any().to_string(), "any");
        assert_eq!(
            Shape::Top(vec![Shape::Float, Shape::Bool]).to_string(),
            "any\u{27e8}float, bool\u{27e9}"
        );
        assert_eq!(Shape::Int.ceil().to_string(), "nullable int");
        assert_eq!(Shape::list(Shape::String).to_string(), "[string]");
        assert_eq!(
            Shape::record("Point", [("x", Shape::Int)]).to_string(),
            "Point {x : int}"
        );
    }

    #[test]
    fn display_hetero_list() {
        let h = Shape::HeteroList(vec![
            (Shape::record("r", [("a", Shape::Int)]), Multiplicity::One),
            (Shape::list(Shape::Int), Multiplicity::Many),
        ]);
        assert_eq!(h.to_string(), "[r {a : int}, 1 | [int], *]");
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Shape::Int.size(), 1);
        assert_eq!(Shape::list(Shape::Int).size(), 2);
        assert_eq!(
            Shape::record("R", [("a", Shape::Int), ("b", Shape::Float.ceil())]).size(),
            4
        );
    }

    #[test]
    fn contains_top_scans_deeply() {
        assert!(!Shape::Int.contains_top());
        assert!(Shape::any().contains_top());
        assert!(Shape::record("R", [("a", Shape::list(Shape::any()))]).contains_top());
    }

    #[test]
    fn refs_are_non_nullable_records_notationally() {
        let r = Shape::Ref("div".into());
        assert!(r.is_non_nullable(), "a ref denotes a record");
        assert_eq!(r.to_string(), "\u{21ba}div");
        assert_eq!(r.clone().ceil(), Shape::Nullable(Box::new(r.clone())));
        assert_eq!(r.size(), 1);
        assert!(!r.contains_top());
    }
}
