//! Shape inference from sample data — `S(d)` and `S(d1, …, dn)` (Fig. 3).
//!
//! ```text
//! S(i) = int      S(null) = null     S(true) = bool
//! S(f) = float    S(s) = string      S(false) = bool
//! S([d1; …; dn]) = [S(d1, …, dn)]
//! S(ν {ν1 ↦ d1, …, νn ↦ dn}ρ) = ν {ν1 : S(d1), …, νn : S(dn), ⌈θ(ρ)⌉}
//! S(d1, …, dn) = σn   where σ0 = ⊥, σi = csh(σi−1, S(di))
//! ```
//!
//! The row variables ρ of Fig. 3 do not appear explicitly: the minimal
//! ground substitution θ is computed *inside* the record rule of
//! [`csh`](crate::csh) — a field present in one record and missing from
//! another unifies with the fresh row variable of the latter, and the
//! `⌈−⌉` in `⌈θ(ρ)⌉` makes it nullable. This matches "No ρi variables
//! remain after inference as the substitution chosen is ground."
//!
//! [`InferOptions`] adds the practical §6.2/§6.4 behaviours: the `bit`
//! shape for 0/1 integers, `date` detection for strings, and
//! heterogeneous collections with multiplicities.

use crate::csh::csh;
use crate::multiplicity::Multiplicity;
use crate::tags::tag_of;
use crate::Shape;
use tfd_value::visit::Leaf;
use tfd_value::Value;

/// Options controlling the extensions of the inference algorithm.
///
/// The paper's formal core (used for the relative-safety experiments)
/// corresponds to [`InferOptions::formal`]; the front-end presets mirror
/// how F# Data configures inference per format.
#[derive(Debug, Clone)]
pub struct InferOptions {
    /// Infer [`Shape::Bit`] for the integers 0 and 1 (§6.2, CSV: "the
    /// sample contains only 0 and 1 … handled by adding a bit shape which
    /// is preferred \[over] both int and bool").
    pub infer_bits: bool,
    /// Infer [`Shape::Date`] for strings that parse as dates (§6.2).
    pub detect_dates: bool,
    /// Infer heterogeneous collections with multiplicities (§6.4) when a
    /// collection mixes element tags, instead of a collection of a
    /// labelled top.
    pub hetero_collections: bool,
    /// For a single-tag collection observed with exactly one element,
    /// keep the `1` multiplicity (exposing the element directly) instead
    /// of generalizing to a collection. This is the XML behaviour behind
    /// the §6.3 `Root`/`Item` example; JSON arrays stay arrays.
    pub singleton_collections: bool,
    /// Infer primitive shapes from *string content* (§2.3): the World
    /// Bank service returns numbers as `"35.14229"`, yet the provided
    /// type reads `Value : option float` and `Date : int`. Enabled for
    /// the JSON preset; the runtime's accessors symmetrically accept
    /// string-encoded numbers.
    pub stringly_primitives: bool,
}

impl Default for InferOptions {
    /// The JSON-provider configuration: heterogeneous collections on,
    /// bit/date inference off.
    fn default() -> Self {
        InferOptions::json()
    }
}

impl InferOptions {
    /// The paper's formal core: no extensions. Collections always infer
    /// as `[S(d1,…,dn)]` exactly as in Fig. 3.
    pub fn formal() -> InferOptions {
        InferOptions {
            infer_bits: false,
            detect_dates: false,
            hetero_collections: false,
            singleton_collections: false,
            stringly_primitives: false,
        }
    }

    /// JSON front-end preset (§2.1, §2.3): heterogeneous collections and
    /// content-based primitive inference for strings.
    pub fn json() -> InferOptions {
        InferOptions {
            infer_bits: false,
            detect_dates: false,
            hetero_collections: true,
            singleton_collections: false,
            stringly_primitives: true,
        }
    }

    /// CSV front-end preset (§6.2): bit + date inference (cells were
    /// already literal-inferred by the CSV front-end).
    pub fn csv() -> InferOptions {
        InferOptions {
            infer_bits: true,
            detect_dates: true,
            hetero_collections: false,
            singleton_collections: false,
            stringly_primitives: false,
        }
    }

    /// XML front-end preset (§2.2, §6.2): like JSON, plus date detection
    /// for attribute/text literals (which the XML front-end has already
    /// literal-inferred, so stringly inference is off).
    pub fn xml() -> InferOptions {
        InferOptions {
            infer_bits: false,
            detect_dates: true,
            hetero_collections: true,
            singleton_collections: true,
            stringly_primitives: false,
        }
    }
}

/// Infers the shape of a single sample with default (JSON) options.
///
/// ```
/// use tfd_core::{infer, Shape};
/// use tfd_value::Value;
/// assert_eq!(infer(&Value::Int(42)), Shape::Int);
/// assert_eq!(infer(&Value::Null), Shape::Null);
/// ```
pub fn infer(sample: &Value) -> Shape {
    infer_with(sample, &InferOptions::default())
}

/// Infers the shape of a single sample under explicit options.
pub fn infer_with(sample: &Value, options: &InferOptions) -> Shape {
    match sample {
        Value::List(items) => infer_collection(items, options),
        Value::Record { name, fields } => Shape::record(
            *name,
            fields
                .iter()
                .map(|f| (f.name, infer_with(&f.value, options))),
        ),
        leaf => infer_leaf(leaf, options),
    }
}

/// `S(d)` for a primitive or `null` sample: a shape without children,
/// computed without allocating. Containers go to [`infer_with`].
#[inline]
pub(crate) fn infer_leaf(sample: &Value, options: &InferOptions) -> Shape {
    match sample.as_leaf() {
        Some(leaf) => leaf_shape(leaf, options),
        None => infer_with(sample, options),
    }
}

/// `S(d)` for a leaf, classified from its [`Leaf`] event alone: the one
/// leaf rule that both inference and the fold's σ walk use.
#[inline]
pub(crate) fn leaf_shape(leaf: Leaf<'_>, options: &InferOptions) -> Shape {
    match leaf {
        Leaf::Int(i) => {
            if options.infer_bits && (i == 0 || i == 1) {
                Shape::Bit
            } else {
                Shape::Int
            }
        }
        Leaf::Float => Shape::Float,
        Leaf::Bool => Shape::Bool,
        Leaf::Str(s) => {
            if options.detect_dates && tfd_csv::parse_date(s).is_some() {
                return Shape::Date;
            }
            if options.stringly_primitives {
                match tfd_csv::literal::primitive(s) {
                    Leaf::Int(_) => return Shape::Int,
                    Leaf::Float => return Shape::Float,
                    Leaf::Bool => return Shape::Bool,
                    Leaf::Null | Leaf::Str(_) => {}
                }
            }
            Shape::String
        }
        Leaf::Null => Shape::Null,
    }
}

/// Infers a common shape from multiple samples — `S(d1, …, dn)`:
/// the fold of `csh` starting from ⊥ (Fig. 3).
///
/// ```
/// use tfd_core::{infer_many, InferOptions, Shape};
/// use tfd_value::Value;
/// let samples = [Value::Int(1), Value::Float(2.5)];
/// assert_eq!(infer_many(&samples, &InferOptions::formal()), Shape::Float);
/// ```
pub fn infer_many<'a, I>(samples: I, options: &InferOptions) -> Shape
where
    I: IntoIterator<Item = &'a Value>,
{
    samples
        .into_iter()
        .fold(Shape::Bottom, |acc, d| csh(acc, infer_with(d, options)))
}

#[allow(clippy::expect_used)] // checked invariant, documented at each site
/// Collection inference. In formal mode this is Fig. 3's
/// `[S(d1, …, dn)]`. With heterogeneous collections on (§6.4), elements
/// are grouped by shape tag: a single tag still yields a homogeneous
/// collection, while mixed tags yield a [`Shape::HeteroList`] whose cases
/// carry per-tag multiplicities.
fn infer_collection(items: &[Value], options: &InferOptions) -> Shape {
    if !options.hetero_collections {
        let element = items
            .iter()
            .fold(Shape::Bottom, |acc, d| csh(acc, infer_with(d, options)));
        return Shape::list(element);
    }

    // Group element shapes by tag, preserving first-seen case order.
    let mut cases: Vec<(Shape, usize)> = Vec::new();
    let mut null_count = 0usize;
    for item in items {
        let s = infer_with(item, options);
        if s == Shape::Null {
            // Nulls are not a case of their own: they make every case
            // nullable at access time; the §6.4 machinery treats them as
            // absent elements (collections are already nullable).
            null_count += 1;
            continue;
        }
        let tag = tag_of(&s);
        match cases.iter_mut().find(|(cs, _)| tag_of(cs) == tag) {
            Some((cs, count)) => {
                let old = std::mem::replace(cs, Shape::Bottom);
                *cs = csh(old, s);
                *count += 1;
            }
            None => cases.push((s, 1)),
        }
    }

    match cases.len() {
        0 => Shape::list(if null_count > 0 {
            Shape::Null
        } else {
            Shape::Bottom
        }),
        1 => {
            let (shape, count) = cases.into_iter().next().expect("one case");
            if count == 1 && options.singleton_collections && !items.is_empty() && null_count == 0 {
                // A single element of a single tag: keep the multiplicity
                // information. This is the XML-preset behaviour behind the
                // §6.3 Root/Item example (`Item : string` rather than a
                // collection of items).
                Shape::HeteroList(vec![(shape, Multiplicity::One)])
            } else if null_count > 0 {
                // Null elements make the element shape nullable, exactly
                // as the formal collection rule would (csh with null).
                Shape::list(shape.ceil())
            } else {
                Shape::list(shape)
            }
        }
        _ => Shape::HeteroList(
            cases
                .into_iter()
                .map(|(shape, count)| (shape, Multiplicity::of_count(count)))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfd_value::{arr, json_rec, rec};
    use Shape::String as StringShape;
    use Shape::{Bool, Bottom, Float, Int, Null};

    // Alias to keep the Fig. 3 names close.
    fn s(v: &Value) -> Shape {
        infer_with(v, &InferOptions::formal())
    }

    #[test]
    fn fig3_primitives() {
        assert_eq!(s(&Value::Int(5)), Int);
        assert_eq!(s(&Value::Float(2.5)), Float);
        assert_eq!(s(&Value::Bool(true)), Bool);
        assert_eq!(s(&Value::Bool(false)), Bool);
        assert_eq!(s(&Value::str("x")), StringShape);
        assert_eq!(s(&Value::Null), Null);
    }

    #[test]
    fn fig3_collection_joins_elements() {
        let v = arr([Value::Int(1), Value::Float(2.5)]);
        assert_eq!(s(&v), Shape::list(Float));
    }

    #[test]
    fn fig3_empty_collection_is_list_of_bottom() {
        assert_eq!(s(&arr([])), Shape::list(Bottom));
    }

    #[test]
    fn fig3_record_fields_infer_pointwise() {
        let v = rec("P", [("x", Value::Int(3)), ("s", Value::str("a"))]);
        assert_eq!(s(&v), Shape::record("P", [("x", Int), ("s", StringShape)]));
    }

    #[test]
    fn fig3_multi_sample_fold() {
        let samples = [Value::Int(1), Value::Null];
        assert_eq!(infer_many(&samples, &InferOptions::formal()), Int.ceil());
        assert_eq!(infer_many(&[], &InferOptions::formal()), Bottom);
    }

    #[test]
    fn row_variables_make_missing_fields_optional() {
        // §3.1: Point {x ↦ 3} and Point {x ↦ 3, y ↦ 4} give
        // Point {x : int, y : nullable int}.
        let p1 = rec("Point", [("x", Value::Int(3))]);
        let p2 = rec("Point", [("x", Value::Int(3)), ("y", Value::Int(4))]);
        assert_eq!(
            infer_many([&p1, &p2], &InferOptions::formal()),
            Shape::record("Point", [("x", Int), ("y", Int.ceil())])
        );
    }

    #[test]
    fn people_sample_infers_like_the_paper() {
        // §2.1: [{name, age:25}, {name}, {name, age:3.5}] gives
        // records with Name : string and Age : nullable float.
        let people = arr([
            json_rec([("name", Value::str("Jan")), ("age", Value::Int(25))]),
            json_rec([("name", Value::str("Tomas"))]),
            json_rec([
                ("name", Value::str("Alexander")),
                ("age", Value::Float(3.5)),
            ]),
        ]);
        let shape = infer_with(&people, &InferOptions::json());
        let expected = Shape::list(Shape::record(
            tfd_value::BODY_NAME,
            [("name", StringShape), ("age", Float.ceil())],
        ));
        assert_eq!(shape, expected);
    }

    #[test]
    fn nulls_in_collections_make_elements_nullable_in_formal_mode() {
        let v = arr([Value::Int(1), Value::Null]);
        assert_eq!(s(&v), Shape::list(Int.ceil()));
    }

    #[test]
    fn bit_inference_only_when_enabled() {
        let opts = InferOptions {
            infer_bits: true,
            ..InferOptions::formal()
        };
        assert_eq!(infer_with(&Value::Int(0), &opts), Shape::Bit);
        assert_eq!(infer_with(&Value::Int(1), &opts), Shape::Bit);
        assert_eq!(infer_with(&Value::Int(2), &opts), Int);
        assert_eq!(infer(&Value::Int(0)), Int); // default: off
    }

    #[test]
    fn date_inference_only_when_enabled() {
        let opts = InferOptions {
            detect_dates: true,
            ..InferOptions::formal()
        };
        assert_eq!(infer_with(&Value::str("2012-05-01"), &opts), Shape::Date);
        assert_eq!(infer_with(&Value::str("3 kveten"), &opts), StringShape);
        assert_eq!(infer(&Value::str("2012-05-01")), StringShape); // default: off
    }

    #[test]
    fn csv_airquality_columns_infer_like_the_paper() {
        // §6.2: Ozone float, Temp nullable int, Date string (mixed
        // formats), Autofilled bool (bit from 0/1).
        let rows = [
            [
                ("Ozone", Value::Int(41)),
                ("Temp", Value::Int(67)),
                ("Date", Value::str("2012-05-01")),
                ("Autofilled", Value::Int(0)),
            ],
            [
                ("Ozone", Value::Float(36.3)),
                ("Temp", Value::Int(72)),
                ("Date", Value::str("2012-05-02")),
                ("Autofilled", Value::Int(1)),
            ],
            [
                ("Ozone", Value::Float(12.1)),
                ("Temp", Value::Int(74)),
                ("Date", Value::str("3 kveten")),
                ("Autofilled", Value::Int(0)),
            ],
            [
                ("Ozone", Value::Float(17.5)),
                ("Temp", Value::Null),
                ("Date", Value::str("2012-05-04")),
                ("Autofilled", Value::Int(0)),
            ],
        ];
        let table = arr(rows.iter().map(|r| rec("row", r.iter().cloned())));
        let shape = infer_with(&table, &InferOptions::csv());
        let expected = Shape::list(Shape::record(
            "row",
            [
                ("Ozone", Float),
                ("Temp", Int.ceil()),
                ("Date", StringShape),
                ("Autofilled", Shape::Bit),
            ],
        ));
        assert_eq!(shape, expected);
    }

    #[test]
    fn hetero_collection_worldbank_pattern() {
        // §2.3: [record, array] gives one record case and one collection
        // case, each with multiplicity 1.
        let doc = arr([
            json_rec([("pages", Value::Int(5))]),
            arr([
                json_rec([("value", Value::Null)]),
                json_rec([("value", Value::str("35.14229"))]),
            ]),
        ]);
        let shape = infer_with(&doc, &InferOptions::json());
        match &shape {
            Shape::HeteroList(cases) => {
                assert_eq!(cases.len(), 2);
                assert!(matches!(cases[0].0, Shape::Record(_)));
                assert_eq!(cases[0].1, Multiplicity::One);
                assert!(matches!(cases[1].0, Shape::List(_)));
                assert_eq!(cases[1].1, Multiplicity::One);
            }
            other => panic!("expected heterogeneous collection, got {other}"),
        }
    }

    #[test]
    fn hetero_disabled_gives_labelled_top_element() {
        let doc = arr([json_rec([("pages", Value::Int(5))]), arr([Value::Int(1)])]);
        let shape = infer_with(&doc, &InferOptions::formal());
        match &shape {
            Shape::List(e) => assert!(e.is_top(), "expected labelled top, got {e}"),
            other => panic!("expected list, got {other}"),
        }
    }

    #[test]
    fn hetero_single_tag_many_elements_stays_homogeneous() {
        let doc = arr([Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(infer_with(&doc, &InferOptions::json()), Shape::list(Int));
    }

    #[test]
    fn hetero_single_element_keeps_multiplicity_one_in_xml_mode() {
        // The XML preset opts into singleton collections (§6.3 Root/Item);
        // the JSON preset keeps single-element arrays as arrays.
        let doc = arr([json_rec([("a", Value::Int(1))])]);
        let xml_shape = infer_with(&doc, &InferOptions::xml());
        match &xml_shape {
            Shape::HeteroList(cases) => {
                assert_eq!(cases.len(), 1);
                assert_eq!(cases[0].1, Multiplicity::One);
            }
            other => panic!("expected hetero list, got {other}"),
        }
        let json_shape = infer_with(&doc, &InferOptions::json());
        assert!(matches!(json_shape, Shape::List(_)), "got {json_shape}");
    }

    #[test]
    fn hetero_nulls_do_not_create_cases() {
        // Nulls are not a case of their own, but they do make a
        // single-tag element shape nullable.
        let doc = arr([Value::Null, Value::Int(1), Value::Int(2)]);
        let shape = infer_with(&doc, &InferOptions::json());
        assert_eq!(shape, Shape::list(Int.ceil()));
        // Without nulls the element shape stays non-nullable:
        let clean = arr([Value::Int(1), Value::Int(2)]);
        assert_eq!(infer_with(&clean, &InferOptions::json()), Shape::list(Int));
    }

    #[test]
    fn all_null_collection() {
        let doc = arr([Value::Null, Value::Null]);
        assert_eq!(infer_with(&doc, &InferOptions::json()), Shape::list(Null));
        assert_eq!(s(&doc), Shape::list(Null));
    }

    #[test]
    fn inference_soundness_each_sample_below_joined() {
        use crate::prefer::is_preferred;
        let samples = [
            rec("P", [("x", Value::Int(1))]),
            rec("P", [("x", Value::Float(1.5)), ("y", Value::Bool(true))]),
            rec("P", [("x", Value::Null)]),
        ];
        let joined = infer_many(&samples, &InferOptions::formal());
        for d in &samples {
            assert!(is_preferred(&s(d), &joined), "S({d}) ⋢ {joined}");
        }
    }
}
