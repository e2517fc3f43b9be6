//! Encoding XML elements into the universal data value (§6.2).
//!
//! > "For each node, we create a record. Attributes become record fields
//! > and the body becomes a field with a special name. […] This XML
//! > becomes a record root with fields id and • for the body. The nested
//! > element contains only the • field with the inner text. As with CSV,
//! > we infer shape of primitive values."
//!
//! Concretely, for `<root id="1"><item>Hello!</item></root>`:
//!
//! ```text
//! root {id ↦ 1, • ↦ [item {• ↦ "Hello!"}]}
//! ```

use crate::Element;
use tfd_csv::literal::LiteralOptions;
use tfd_value::Value;

/// Options for the element→value encoding.
#[derive(Debug, Clone, Default)]
pub struct EncodeOptions {
    /// Literal-inference options applied to attribute values and text
    /// content ("As with CSV, we infer shape of primitive values").
    pub literals: LiteralOptions,
}

/// Encodes an element as a record per §6.2.
///
/// Rules:
///
/// * the record is named after the element;
/// * each attribute becomes a field, its text run through
///   [`parse_literal`](tfd_csv::parse_literal);
/// * the body becomes a `•` field: if the element contains only text, the
///   field holds the inferred literal; if it contains child elements, the
///   field holds the collection of encoded children (interleaved text is
///   dropped from the collection — the paper notes such mixed content
///   stays reachable only through the underlying representation);
/// * an element with neither attributes nor content becomes an empty
///   record (its `•` field would be `null`, which we encode by omitting
///   the field so that inference marks it optional).
///
/// ```
/// let root = tfd_xml::parse(r#"<root id="1"><item>Hello!</item></root>"#)?;
/// let v = tfd_xml::element_to_value(&root, &tfd_xml::EncodeOptions::default());
/// assert_eq!(v.record_name(), Some("root"));
/// let body = v.field(tfd_value::BODY_FIELD).unwrap();
/// assert_eq!(body.elements().unwrap().len(), 1);
/// # Ok::<(), tfd_xml::XmlError>(())
/// ```
pub fn element_to_value(element: &Element, options: &EncodeOptions) -> Value {
    // The parser's value sink builds it from the tree, so the tree and
    // the one-pass `parse_value` share one encoding.
    crate::parser::encode_element(element, options)
}

/// The `•` field of an element under §6.2: the one body rule of every
/// encoding, built ([`element_to_value`], `parse_value`) or walked (the
/// ingest pipeline's σ walk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Body<'t> {
    /// Neither child elements nor text: no `•` field, so inference marks
    /// it optional.
    Absent,
    /// Text only: the trimmed text, literal-inferred.
    Text(&'t str),
    /// Child elements: the collection of them. Text between them is
    /// dropped (mixed content stays reachable only through the
    /// underlying representation).
    Children,
}

impl<'t> Body<'t> {
    /// The body of an element with child elements when `children`, and
    /// otherwise its concatenated `text`.
    pub(crate) fn of(children: bool, text: &'t str) -> Body<'t> {
        if children {
            return Body::Children;
        }
        match text.trim() {
            "" => Body::Absent,
            text => Body::Text(text),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use tfd_value::BODY_FIELD;

    fn encode(xml: &str) -> Value {
        element_to_value(&parse(xml).unwrap(), &EncodeOptions::default())
    }

    #[test]
    fn paper_root_item_example() {
        // §6.2: root {id ↦ 1, • ↦ [item {• ↦ "Hello!"}]}
        let v = encode(r#"<root id="1"><item>Hello!</item></root>"#);
        assert_eq!(v.record_name(), Some("root"));
        assert_eq!(v.field("id"), Some(&Value::Int(1)));
        let body = v.field(BODY_FIELD).unwrap();
        let items = body.elements().unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].record_name(), Some("item"));
        assert_eq!(items[0].field(BODY_FIELD), Some(&Value::str("Hello!")));
    }

    #[test]
    fn attributes_are_literal_inferred() {
        let v = encode(r##"<a i="42" f="2.5" b="true" s="hey" m="#N/A"/>"##);
        assert_eq!(v.field("i"), Some(&Value::Int(42)));
        assert_eq!(v.field("f"), Some(&Value::Float(2.5)));
        assert_eq!(v.field("b"), Some(&Value::Bool(true)));
        assert_eq!(v.field("s"), Some(&Value::str("hey")));
        assert_eq!(v.field("m"), Some(&Value::Null));
    }

    #[test]
    fn text_content_is_literal_inferred() {
        assert_eq!(encode("<n>42</n>").field(BODY_FIELD), Some(&Value::Int(42)));
        assert_eq!(
            encode("<n>hello</n>").field(BODY_FIELD),
            Some(&Value::str("hello"))
        );
    }

    #[test]
    fn empty_element_omits_body_field() {
        let v = encode("<a/>");
        assert_eq!(v.field(BODY_FIELD), None);
        assert_eq!(v.fields().unwrap().len(), 0);
    }

    #[test]
    fn whitespace_only_body_omitted() {
        let v = encode("<a>   </a>");
        assert_eq!(v.field(BODY_FIELD), None);
    }

    #[test]
    fn children_become_collection() {
        let v = encode("<doc><p>one</p><p>two</p></doc>");
        let body = v.field(BODY_FIELD).unwrap();
        assert_eq!(body.elements().unwrap().len(), 2);
    }

    #[test]
    fn mixed_content_keeps_elements_only() {
        let v = encode("<p>text <b>bold</b> more</p>");
        let body = v.field(BODY_FIELD).unwrap();
        let items = body.elements().unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].record_name(), Some("b"));
    }

    #[test]
    fn text_is_trimmed_before_inference() {
        assert_eq!(
            encode("<n>  42 </n>").field(BODY_FIELD),
            Some(&Value::Int(42))
        );
    }

    #[test]
    fn paper_doc_sample_encodes() {
        let v = encode(
            "<doc>\
               <heading>Working with JSON</heading>\
               <p>Type providers make this easy.</p>\
               <image source=\"xml.png\" />\
             </doc>",
        );
        let body = v.field(BODY_FIELD).unwrap().elements().unwrap().to_vec();
        assert_eq!(body.len(), 3);
        assert_eq!(body[0].record_name(), Some("heading"));
        assert_eq!(body[2].record_name(), Some("image"));
        assert_eq!(body[2].field("source"), Some(&Value::str("xml.png")));
    }
}
