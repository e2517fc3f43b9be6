//! # tfd-xml — XML front-end
//!
//! A from-scratch XML parser for the `types-from-data` workspace and the
//! §6.2 encoding of XML documents into the universal data value:
//!
//! > "For each node, we create a record. Attributes become record fields
//! > and the body becomes a field with a special name."
//!
//! So `<root id="1"><item>Hello!</item></root>` becomes
//!
//! ```text
//! root {id ↦ 1, • ↦ [item {• ↦ "Hello!"}]}
//! ```
//!
//! The parser handles elements, attributes (single- or double-quoted),
//! self-closing tags, text nodes, CDATA sections, comments, processing
//! instructions, XML declarations, the five predefined entities plus
//! numeric character references, and namespace-prefixed names (kept
//! verbatim as record names). It is a non-validating parser: DOCTYPE
//! declarations are skipped and external entities are never resolved
//! (which also makes the parser immune to XXE-style attacks by
//! construction).
//!
//! [`parse`] is a single-pass byte-level parser that interns element and
//! attribute names straight from borrowed input slices; the previous
//! char-level implementation is retained as [`mod@reference`] for benchmarks
//! and agreement tests.
//!
//! Like the paper's implementation, primitive values that appear in
//! attributes and text content are *re-inferred* from their string form
//! ("As with CSV, we infer shape of primitive values", §6.2): `"1"`
//! becomes `Value::Int(1)`, `"true"` becomes `Value::Bool(true)`, etc.
//! This uses the shared literal-inference rules from [`tfd_csv::literal`].
//!
//! # Example
//!
//! ```
//! let doc = tfd_xml::parse(r#"<root id="1"><item>Hello!</item></root>"#)?;
//! let value = doc.to_value();
//! assert_eq!(value.record_name(), Some("root"));
//! assert_eq!(value.field("id"), Some(&tfd_value::Value::Int(1)));
//! # Ok::<(), tfd_xml::XmlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encode;
mod parser;
pub mod reference;
pub mod stream;

pub use encode::{element_to_value, EncodeOptions};
pub use parser::{
    parse, parse_many_values, parse_many_values_each, parse_many_values_in, parse_many_values_with,
    parse_value, parse_value_in, parse_value_with, parse_with, XmlError, XmlErrorKind, XmlOptions,
};
pub use stream::BoundaryScanner;

use tfd_value::{Name, Value};

/// An XML attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (possibly namespace-prefixed, kept verbatim),
    /// interned: tag and attribute vocabularies are tiny compared to
    /// document sizes, so each distinct spelling allocates once.
    pub name: Name,
    /// Attribute value with entities decoded.
    pub value: String,
}

/// A node in an XML document body.
#[derive(Debug, Clone, PartialEq)]
pub enum XmlNode {
    /// A child element.
    Element(Element),
    /// A text run (entities decoded; includes CDATA content).
    Text(String),
}

/// An XML element: name, attributes and body nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Element name (possibly namespace-prefixed, kept verbatim),
    /// interned straight from the input slice at parse time.
    pub name: Name,
    /// Attributes in source order.
    pub attributes: Vec<Attribute>,
    /// Child nodes in source order.
    pub children: Vec<XmlNode>,
}

impl Element {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<Name>) -> Element {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Looks up an attribute value by name.
    ///
    /// ```
    /// let e = tfd_xml::parse(r#"<a x="1"/>"#)?;
    /// assert_eq!(e.attribute("x"), Some("1"));
    /// # Ok::<(), tfd_xml::XmlError>(())
    /// ```
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }

    /// Child elements (skipping text nodes).
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        })
    }

    /// The concatenated text content of this element's direct children.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for node in &self.children {
            if let XmlNode::Text(t) = node {
                out.push_str(t);
            }
        }
        out
    }

    /// Encodes the element as a universal data [`Value`] per §6.2 with
    /// default options. See [`element_to_value`] for the rules.
    pub fn to_value(&self) -> Value {
        element_to_value(self, &EncodeOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_lookup() {
        let e = parse(r#"<a x="1" y="two"/>"#).unwrap();
        assert_eq!(e.attribute("x"), Some("1"));
        assert_eq!(e.attribute("y"), Some("two"));
        assert_eq!(e.attribute("z"), None);
    }

    #[test]
    fn text_concatenates_runs() {
        let e = parse("<a>one<b/>two</a>").unwrap();
        assert_eq!(e.text(), "onetwo");
    }

    #[test]
    fn child_elements_skips_text() {
        let e = parse("<a>x<b/>y<c/></a>").unwrap();
        let names: Vec<_> = e.child_elements().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn to_value_convenience_matches_encode() {
        let e = parse(r#"<root id="1"/>"#).unwrap();
        assert_eq!(
            e.to_value(),
            element_to_value(&e, &EncodeOptions::default())
        );
    }
}
