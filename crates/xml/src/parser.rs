//! A non-validating XML parser — single-pass, byte-level.
//!
//! Implements the subset of XML 1.0 needed for data documents: elements,
//! attributes, text, CDATA, comments, processing instructions, the XML
//! declaration, DOCTYPE skipping, predefined entities (`&lt; &gt; &amp;
//! &apos; &quot;`) and numeric character references (`&#65;`, `&#x41;`).
//! External entities are never resolved.
//!
//! Like the byte-level JSON parser (`tfd_json::parser`), this is hot-path
//! code — a type provider parses every XML sample through here before
//! inference runs — so the parser works directly on the input bytes:
//!
//! * element and attribute names are **interned into [`Name`] symbols
//!   straight from borrowed slices** of the input; a million `<row>`
//!   elements allocate their tag spelling once, not a million times;
//! * text runs and attribute values are scanned as byte runs and copied
//!   in bulk (one `push_str` per run instead of one `push` per char);
//!   entity-free attribute values materialize with a single copy;
//! * lookahead is **offset-based probing** (`bytes[pos + 1]`), replacing
//!   the char-iterator clones of the retained [`crate::reference`]
//!   parser;
//! * line/column positions are not tracked per character: the parser
//!   keeps the current line number and the byte offset of its start, and
//!   an error **computes** its char-correct column only when raised.
//!
//! The previous char-level parser is retained unchanged as
//! [`crate::reference`], an independent oracle for tests and benchmarks.

use crate::encode::{Body, EncodeOptions};
use crate::{Attribute, Element, XmlNode};
use std::borrow::Cow;
use std::fmt;
use tfd_csv::literal::{literal, parse_literal, LiteralOptions};
use tfd_value::intern::NameMemo;
use tfd_value::visit::{RecordFold, RecordWalk, Visitor};
use tfd_value::{body_name, Interner, Name, Value, BODY_NAME};

/// Parser configuration.
#[derive(Debug, Clone)]
pub struct XmlOptions {
    /// Maximum element nesting depth. Default: 256.
    pub max_depth: usize,
    /// When `true` (default), whitespace-only text nodes between elements
    /// are dropped, so `<a>\n  <b/>\n</a>` has one child, not three.
    pub ignore_whitespace_text: bool,
}

impl Default for XmlOptions {
    fn default() -> Self {
        XmlOptions {
            max_depth: 256,
            ignore_whitespace_text: true,
        }
    }
}

/// What went wrong while parsing XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlErrorKind {
    /// Input ended unexpectedly.
    UnexpectedEof(&'static str),
    /// A character that is not valid at this point.
    Unexpected {
        /// The offending character.
        found: char,
        /// What the parser was looking for.
        expected: &'static str,
    },
    /// `</a>` closed an element opened as `<b>`.
    MismatchedTag {
        /// Name in the open tag.
        open: String,
        /// Name in the close tag.
        close: String,
    },
    /// No root element was found.
    NoRoot,
    /// Extra content after the root element.
    TrailingContent,
    /// An unknown named entity such as `&foo;`.
    UnknownEntity(String),
    /// A numeric character reference that is not a valid scalar value.
    BadCharRef(String),
    /// Nesting exceeded [`XmlOptions::max_depth`].
    TooDeep(usize),
    /// The byte stream is not valid UTF-8. Only the byte-fed ingest
    /// pipeline (`tfd_core::engine::run`) reports this: the one-shot
    /// entry points take `&str` and cannot observe it.
    InvalidUtf8,
    /// A single record exceeded the ingest pipeline's byte cap; the
    /// payload is the configured limit. Only `tfd_core::engine::run`
    /// reports this — the one-shot entry points already hold the whole
    /// input. The position is the record's start.
    RecordTooLarge(usize),
}

impl fmt::Display for XmlErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlErrorKind::UnexpectedEof(ctx) => write!(f, "unexpected end of input in {ctx}"),
            XmlErrorKind::Unexpected { found, expected } => {
                write!(f, "expected {expected}, found {found:?}")
            }
            XmlErrorKind::MismatchedTag { open, close } => {
                write!(f, "mismatched tag: <{open}> closed by </{close}>")
            }
            XmlErrorKind::NoRoot => write!(f, "document has no root element"),
            XmlErrorKind::TrailingContent => write!(f, "content after root element"),
            XmlErrorKind::UnknownEntity(e) => write!(f, "unknown entity &{e};"),
            XmlErrorKind::BadCharRef(e) => write!(f, "invalid character reference &#{e};"),
            XmlErrorKind::TooDeep(limit) => {
                write!(f, "element nesting exceeds limit of {limit}")
            }
            XmlErrorKind::InvalidUtf8 => write!(f, "input is not valid UTF-8"),
            XmlErrorKind::RecordTooLarge(limit) => {
                write!(f, "record exceeds size limit of {limit} bytes")
            }
        }
    }
}

/// An XML parse error with a line/column position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// What went wrong.
    pub kind: XmlErrorKind,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at line {}, column {}",
            self.kind, self.line, self.column
        )
    }
}

impl std::error::Error for XmlError {}

/// Parses an XML document, returning its root element.
///
/// Element and attribute names are interned into the process-global
/// [`Name`] table, which only grows — the right trade for schema-shaped
/// data (tag vocabularies are tiny), but documents whose tag names are
/// themselves unbounded *data* will grow the interner per distinct name.
///
/// # Errors
///
/// Returns [`XmlError`] for malformed input.
///
/// ```
/// let root = tfd_xml::parse("<doc><heading>Hi</heading></doc>")?;
/// assert_eq!(root.name, "doc");
/// assert_eq!(root.child_elements().count(), 1);
/// # Ok::<(), tfd_xml::XmlError>(())
/// ```
pub fn parse(input: &str) -> Result<Element, XmlError> {
    parse_with(input, &XmlOptions::default())
}

/// Parses an XML document with explicit [`XmlOptions`].
///
/// # Errors
///
/// As [`parse`], plus [`XmlErrorKind::TooDeep`] when nesting exceeds the
/// configured limit.
pub fn parse_with(input: &str, options: &XmlOptions) -> Result<Element, XmlError> {
    let mut p = XmlParser::new(input, options.clone()).skip_bom();
    p.skip_prolog()?;
    let root = p.parse_element(&mut ElementSink, 0)?;
    p.skip_misc()?;
    if !p.at_eof() {
        return Err(p.error(XmlErrorKind::TrailingContent));
    }
    Ok(root)
}

/// Parses an XML document straight into the universal data [`Value`] per
/// §6.2 ("For each node, we create a record. Attributes become record
/// fields and the body becomes a field with a special name"), skipping
/// the [`Element`] tree entirely — the parse→infer hot path, mirroring
/// `tfd_json::parse_value`.
///
/// One pass over the bytes: names intern from borrowed slices, attribute
/// values and trimmed text feed the shared literal inference directly
/// (an `id="42"` allocates nothing on its way to `Value::Int(42)`), and
/// no `Attribute`/`XmlNode` nodes ever materialize.
///
/// # Errors
///
/// As [`parse`].
///
/// ```
/// use tfd_value::Value;
/// let v = tfd_xml::parse_value(r#"<root id="1"><item>Hello!</item></root>"#)?;
/// assert_eq!(v.record_name(), Some("root"));
/// assert_eq!(v.field("id"), Some(&Value::Int(1)));
/// # Ok::<(), tfd_xml::XmlError>(())
/// ```
pub fn parse_value(input: &str) -> Result<Value, XmlError> {
    parse_value_with(input, &XmlOptions::default(), &EncodeOptions::default())
}

/// [`parse_value`] under explicit parser and encoding options.
///
/// Produces exactly the same value as
/// `parse_with(input, options)?` followed by
/// [`element_to_value`](crate::element_to_value) (the round-trip suite
/// asserts this), without building the element tree.
///
/// # Errors
///
/// As [`parse_with`].
pub fn parse_value_with(
    input: &str,
    options: &XmlOptions,
    encode: &EncodeOptions,
) -> Result<Value, XmlError> {
    parse_value_in(input, options, encode, Interner::global())
}

/// [`parse_value_with`] interning element and attribute names into a
/// caller-supplied arena — the corpus-scoped hot path. Names in the
/// returned value borrow from `interner`'s storage;
/// [`Value::reintern`] whatever must outlive it.
///
/// # Errors
///
/// As [`parse_value_with`].
pub fn parse_value_in(
    input: &str,
    options: &XmlOptions,
    encode: &EncodeOptions,
    interner: &Interner,
) -> Result<Value, XmlError> {
    let mut p = XmlParser::new_in(input, options.clone(), interner).skip_bom();
    p.skip_prolog()?;
    let root = p.parse_element(&mut ValueSink::new(encode), 0)?;
    p.skip_misc()?;
    if !p.at_eof() {
        return Err(p.error(XmlErrorKind::TrailingContent));
    }
    Ok(root)
}

/// Parses a *sequence* of XML documents laid end to end — each with its
/// own optional prolog (declaration, DOCTYPE, comments, PIs) — into one
/// [`Value`] per root element. This is the reference the ingest
/// pipeline's differential suites compare against. Empty (or misc-only)
/// input yields an empty vector.
///
/// # Errors
///
/// Returns the first [`XmlError`] encountered.
///
/// ```
/// let docs = tfd_xml::parse_many_values("<a i=\"1\"/>\n<!-- x -->\n<a i=\"2\"/>")?;
/// assert_eq!(docs.len(), 2);
/// # Ok::<(), tfd_xml::XmlError>(())
/// ```
pub fn parse_many_values(input: &str) -> Result<Vec<Value>, XmlError> {
    parse_many_values_with(input, &XmlOptions::default(), &EncodeOptions::default())
}

/// [`parse_many_values`] under explicit parser and encoding options.
///
/// # Errors
///
/// As [`parse_many_values`].
pub fn parse_many_values_with(
    input: &str,
    options: &XmlOptions,
    encode: &EncodeOptions,
) -> Result<Vec<Value>, XmlError> {
    parse_many_values_in(input, options, encode, Interner::global())
}

/// [`parse_many_values_with`] interning element and attribute names into
/// a caller-supplied arena (see [`parse_value_in`]).
///
/// # Errors
///
/// As [`parse_many_values_with`].
pub fn parse_many_values_in(
    input: &str,
    options: &XmlOptions,
    encode: &EncodeOptions,
    interner: &Interner,
) -> Result<Vec<Value>, XmlError> {
    let mut docs = Vec::new();
    let p = XmlParser::new_in(input, options.clone(), interner).skip_bom();
    fold_documents(p, encode, &mut docs).map_err(|(_, e)| e)?;
    Ok(docs)
}

/// [`parse_many_values_in`] folding each document into `fold` as soon as
/// its root element closes, so a caller folding the documents never
/// holds more than one of them.
///
/// A document the fold offers a [walk](RecordFold::walk) for is parsed
/// straight into that walk: its elements, attributes and text reach the
/// walk as the events of its §6.2 encoding, and nothing is built. When
/// the walk declines the document, it is parsed again from its start
/// into a `Value` and [pushed](RecordFold::push). Every other document
/// is parsed into a `Value` and pushed. The same parser code runs
/// either way, so errors and their positions do not depend on the fold.
///
/// Unlike the other entry points, it parses `input` exactly as given: a
/// leading byte-order mark is an error here, because this is how the
/// ingest pipeline parses a bundle cut from the middle of a stream.
///
/// # Errors
///
/// As [`parse_many_values`], paired with the byte offset just past the
/// root element of the last document folded (0 when none was). That
/// offset is a record boundary of
/// [`stream::BoundaryScanner`](crate::stream::BoundaryScanner) over the
/// same bytes, so parsing can resume there once the failing record is
/// dealt with.
///
/// ```
/// let mut docs = Vec::new();
/// let (parsed_to, _) = tfd_xml::parse_many_values_each(
///     "<a/>\n<!-- c --><b/>\n<c x=1/>",
///     &tfd_xml::XmlOptions::default(),
///     &tfd_xml::EncodeOptions::default(),
///     &tfd_value::Interner::new(),
///     &mut docs,
/// )
/// .unwrap_err();
/// assert_eq!((docs.len(), parsed_to), (2, 19));
/// ```
pub fn parse_many_values_each<F: RecordFold + ?Sized>(
    input: &str,
    options: &XmlOptions,
    encode: &EncodeOptions,
    interner: &Interner,
    fold: &mut F,
) -> Result<(), (usize, XmlError)> {
    fold_documents(
        XmlParser::new_in(input, options.clone(), interner),
        encode,
        fold,
    )
}

/// Folds every document `p` parses into `fold`, walked or built (see
/// [`parse_many_values_each`]); an error comes with the offset just past
/// the last root element folded.
fn fold_documents<F: RecordFold + ?Sized>(
    mut p: XmlParser<'_>,
    encode: &EncodeOptions,
    fold: &mut F,
) -> Result<(), (usize, XmlError)> {
    let mut sink = ValueSink::new(encode);
    let mut text = BodyText::default();
    let mut parsed_to = 0;
    while p.skip_prolog_opt().map_err(|e| (parsed_to, e))? {
        let start = p.mark();
        let walked = match fold.walk() {
            Some(walk) => {
                let mut walk = WalkSink {
                    walk,
                    open: true,
                    literals: &encode.literals,
                    text: &mut text,
                };
                p.parse_element(&mut walk, 0).map_err(|e| (parsed_to, e))?;
                walk.walk.finish()
            }
            None => false,
        };
        if !walked {
            p.rewind(start);
            fold.push(p.parse_element(&mut sink, 0).map_err(|e| (parsed_to, e))?);
        }
        parsed_to = p.pos;
    }
    Ok(())
}

/// The §6.2 encoding of an already-parsed element: the [`Element`] tree
/// replayed into the sink that builds values as they are parsed.
pub(crate) fn encode_element(element: &Element, options: &EncodeOptions) -> Value {
    emit(&mut ValueSink::new(options), element)
}

/// Sends `element` to `sink` as the parser would have.
fn emit<S: Sink>(sink: &mut S, element: &Element) -> S::Out {
    let mut e = sink.elem(element.name);
    for a in &element.attributes {
        sink.attr(&mut e, a.name, Cow::Borrowed(&a.value));
    }
    for node in &element.children {
        match node {
            XmlNode::Text(run) => sink.text(&mut e, run),
            XmlNode::Element(child) => {
                sink.child_start(&mut e);
                let child = emit(sink, child);
                sink.child(&mut e, child);
            }
        }
    }
    sink.finish(e)
}

/// How parsed pieces are assembled into an output document, in the
/// order the parser meets them. Three instantiations exist:
/// [`ElementSink`] (the [`Element`] tree), [`ValueSink`] (the §6.2
/// encoding into the universal [`Value`], with literal inference applied
/// to attributes and text) and [`WalkSink`] (the events of that encoding
/// sent to a [`Visitor`], building nothing). The parser is generic over
/// the sink so every output shares the single byte-level pass, its
/// checks and its error positions.
trait Sink {
    /// Per-element accumulator.
    type Elem;
    /// Finished node for a completed element.
    type Out;

    fn elem(&mut self, name: Name) -> Self::Elem;
    fn attr(&mut self, e: &mut Self::Elem, name: Name, value: Cow<'_, str>);
    /// A text run that survived whitespace filtering.
    fn text(&mut self, e: &mut Self::Elem, run: &str);
    /// A child element of `e` starts; its own events follow.
    fn child_start(&mut self, _e: &mut Self::Elem) {}
    fn child(&mut self, e: &mut Self::Elem, child: Self::Out);
    fn finish(&mut self, e: Self::Elem) -> Self::Out;
}

struct ElementSink;

impl Sink for ElementSink {
    type Elem = Element;
    type Out = Element;

    fn elem(&mut self, name: Name) -> Element {
        Element {
            name,
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }
    fn attr(&mut self, e: &mut Element, name: Name, value: Cow<'_, str>) {
        e.attributes.push(Attribute {
            name,
            value: value.into_owned(),
        });
    }
    fn text(&mut self, e: &mut Element, run: &str) {
        e.children.push(XmlNode::Text(run.to_owned()));
    }
    fn child(&mut self, e: &mut Element, child: Element) {
        e.children.push(XmlNode::Element(child));
    }
    fn finish(&mut self, e: Element) -> Element {
        e
    }
}

/// The text of the innermost open element that has no child element yet,
/// the only text the §6.2 body rule reads ([`Body`]). One buffer serves
/// every element of a document: an element's first child drops the text
/// before it, and its end consumes the text.
#[derive(Default)]
struct BodyText(String);

impl BodyText {
    /// A text run of an element, which has child elements when
    /// `children`.
    fn run(&mut self, children: bool, run: &str) {
        if !children {
            self.0.push_str(run);
        }
    }

    /// The element's first child element starts.
    fn first_child(&mut self) {
        self.0.clear();
    }

    /// The element ends: its `•` field, handed to `f`.
    fn end<R>(&mut self, children: bool, f: impl FnOnce(Body<'_>) -> R) -> R {
        let out = f(Body::of(children, &self.0));
        self.0.clear();
        out
    }
}

struct ValueSink<'o> {
    options: &'o EncodeOptions,
    body: Name,
    text: BodyText,
}

impl<'o> ValueSink<'o> {
    fn new(options: &'o EncodeOptions) -> ValueSink<'o> {
        ValueSink {
            options,
            body: body_name(),
            text: BodyText::default(),
        }
    }
}

/// Accumulator for one element being encoded as a value: attribute
/// fields and encoded child elements.
struct ValueElem {
    name: Name,
    fields: Vec<(Name, Value)>,
    children: Vec<Value>,
}

impl Sink for ValueSink<'_> {
    type Elem = ValueElem;
    type Out = Value;

    fn elem(&mut self, name: Name) -> ValueElem {
        ValueElem {
            name,
            fields: Vec::new(),
            children: Vec::new(),
        }
    }
    fn attr(&mut self, e: &mut ValueElem, name: Name, value: Cow<'_, str>) {
        // Literal inference straight off the (usually borrowed) slice —
        // numeric/boolean/null attributes allocate nothing.
        e.fields
            .push((name, parse_literal(&value, &self.options.literals)));
    }
    fn text(&mut self, e: &mut ValueElem, run: &str) {
        self.text.run(!e.children.is_empty(), run);
    }
    fn child_start(&mut self, e: &mut ValueElem) {
        if e.children.is_empty() {
            self.text.first_child();
        }
    }
    fn child(&mut self, e: &mut ValueElem, child: Value) {
        e.children.push(child);
    }
    fn finish(&mut self, e: ValueElem) -> Value {
        let ValueElem {
            name,
            mut fields,
            children,
        } = e;
        let literals = &self.options.literals;
        let body = self.text.end(!children.is_empty(), |body| match body {
            Body::Absent => None,
            Body::Text(text) => Some(parse_literal(text, literals)),
            Body::Children => Some(Value::List(children)),
        });
        fields.extend(body.map(|b| (self.body, b)));
        Value::record(name, fields)
    }
}

/// Sends an element's §6.2 encoding to a [`Visitor`] as [`ValueSink`]
/// would build it, building nothing: a record per element, a key and a
/// classified literal per attribute, and the `•` key before the body.
/// Once the visitor declines, the rest of the document is only parsed,
/// so its grammar is still checked to the end.
struct WalkSink<'t, W> {
    walk: W,
    /// The visitor still wants events.
    open: bool,
    literals: &'t LiteralOptions,
    text: &'t mut BodyText,
}

impl<W: Visitor> WalkSink<'_, W> {
    fn send(&mut self, event: impl FnOnce(&mut W) -> bool) {
        if self.open {
            self.open = event(&mut self.walk);
        }
    }
}

impl<W: Visitor> Sink for WalkSink<'_, W> {
    /// Whether the element has had a child element.
    type Elem = bool;
    type Out = ();

    fn elem(&mut self, name: Name) -> bool {
        self.send(|w| w.record_start(name.as_str()));
        false
    }
    fn attr(&mut self, _: &mut bool, name: Name, value: Cow<'_, str>) {
        let literals = self.literals;
        self.send(|w| w.key(name.as_str()) && w.leaf(literal(&value, literals)));
    }
    fn text(&mut self, &mut children: &mut bool, run: &str) {
        if self.open {
            self.text.run(children, run);
        }
    }
    fn child_start(&mut self, children: &mut bool) {
        if !std::mem::replace(children, true) {
            self.text.first_child();
            self.send(|w| w.key(BODY_NAME) && w.list_start());
        }
    }
    fn child(&mut self, _: &mut bool, _: ()) {}
    fn finish(&mut self, children: bool) {
        let (open, literals) = (self.open, self.literals);
        let walk = &mut self.walk;
        self.open = self.text.end(children, |body| {
            open && match body {
                Body::Absent => true,
                Body::Text(text) => walk.key(BODY_NAME) && walk.leaf(literal(text, literals)),
                Body::Children => walk.list_end(),
            } && walk.record_end()
        });
    }
}

struct XmlParser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    /// Current byte offset.
    pos: usize,
    /// Current 1-based line.
    line: usize,
    /// Byte offset where the current line starts; columns are computed
    /// from it (in characters) only when an error is raised.
    line_start: usize,
    options: XmlOptions,
    /// Element and attribute names intern through this memo into the
    /// arena (the process-default arena for the legacy entry points, a
    /// corpus arena for the `_in` variants); repeated names take no
    /// lock.
    names: NameMemo<'a>,
    /// The text run being read, reused from one run to the next.
    text_run: String,
}

/// Where a parser stands, to return to.
#[derive(Clone, Copy)]
struct Mark {
    pos: usize,
    line: usize,
    line_start: usize,
}

impl<'a> XmlParser<'a> {
    fn new(input: &'a str, options: XmlOptions) -> Self {
        XmlParser::new_in(input, options, Interner::global())
    }

    fn new_in(input: &'a str, options: XmlOptions, interner: &'a Interner) -> Self {
        XmlParser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
            options,
            names: NameMemo::new(interner),
            text_run: String::new(),
        }
    }

    fn mark(&self) -> Mark {
        Mark {
            pos: self.pos,
            line: self.line,
            line_start: self.line_start,
        }
    }

    fn rewind(&mut self, to: Mark) {
        self.pos = to.pos;
        self.line = to.line;
        self.line_start = to.line_start;
    }

    /// Steps over one leading UTF-8 byte-order mark. The one-shot entry
    /// points call this; a bundle parsed by the ingest pipeline does
    /// not, because the pipeline skips the mark at stream offset 0
    /// itself. Columns do not count the mark.
    fn skip_bom(mut self) -> Self {
        if self.input.starts_with('\u{feff}') {
            self.pos = '\u{feff}'.len_utf8();
            self.line_start = self.pos;
        }
        self
    }

    /// Builds an error at the current position. The column counts
    /// *characters* since the start of the current line — the happy path
    /// never counts columns.
    fn error(&self, kind: XmlErrorKind) -> XmlError {
        XmlError {
            kind,
            line: self.line,
            column: self.input[self.line_start..self.pos].chars().count() + 1,
        }
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// The char starting at the current byte offset, if any.
    fn peek_char(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    /// Advances one byte, maintaining the line bookkeeping (LF, CRLF and
    /// bare-CR line endings each count once). Only valid when the byte
    /// at `pos` is ASCII (multi-byte chars advance by bulk-run scanning).
    fn bump_byte(&mut self) {
        match self.bytes[self.pos] {
            b'\n' => {
                self.line += 1;
                self.line_start = self.pos + 1;
            }
            b'\r' if self.bytes.get(self.pos + 1) != Some(&b'\n') => {
                self.line += 1;
                self.line_start = self.pos + 1;
            }
            _ => {}
        }
        self.pos += 1;
    }

    #[allow(clippy::expect_used)] // checked invariant, documented at each site
    fn expect_byte(&mut self, want: u8, ctx: &'static str) -> Result<(), XmlError> {
        match self.bytes.get(self.pos) {
            Some(&b) if b == want => {
                self.bump_byte();
                Ok(())
            }
            Some(_) => {
                let found = self.peek_char().expect("in-bounds");
                Err(self.error(XmlErrorKind::Unexpected {
                    found,
                    expected: ctx,
                }))
            }
            None => Err(self.error(XmlErrorKind::UnexpectedEof(ctx))),
        }
    }

    /// Skips XML whitespace — exactly the spec's `S` production (space,
    /// tab, CR, LF). This is deliberately narrower than the retained
    /// reference parser, which accidentally accepted any Unicode
    /// whitespace (e.g. a no-break space between attributes); such
    /// documents are not well-formed XML and are now rejected.
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' => self.pos += 1,
                b'\r' | b'\n' => self.bump_byte(),
                _ => break,
            }
        }
    }

    /// Skips `<?...?>`, `<!--...-->`, `<!DOCTYPE...>` and whitespace before
    /// the root element. Dispatch probes `bytes[pos + 1]` directly — no
    /// iterator clones.
    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        if self.skip_prolog_opt()? {
            Ok(())
        } else {
            Err(self.error(XmlErrorKind::NoRoot))
        }
    }

    #[allow(clippy::expect_used)] // checked invariant, documented at each site
    /// [`skip_prolog`], but end of input yields `Ok(false)` instead of a
    /// `NoRoot` error — the multi-document entry points use this to stop
    /// cleanly after the last document. `Ok(true)` means the parser is
    /// positioned at an element's `<`.
    fn skip_prolog_opt(&mut self) -> Result<bool, XmlError> {
        loop {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b'<') => {}
                Some(_) => {
                    let found = self.peek_char().expect("in-bounds");
                    return Err(self.error(XmlErrorKind::Unexpected {
                        found,
                        expected: "'<'",
                    }));
                }
                None => return Ok(false),
            }
            match self.bytes.get(self.pos + 1) {
                Some(b'?') => self.skip_pi()?,
                Some(b'!') => {
                    if self.bytes.get(self.pos + 2) == Some(&b'-') {
                        self.skip_comment()?;
                    } else {
                        self.skip_doctype()?;
                    }
                }
                _ => return Ok(true),
            }
        }
    }

    /// Skips comments/PIs/whitespace after the root element.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'<') {
                return Ok(());
            }
            match self.bytes.get(self.pos + 1) {
                Some(b'?') => self.skip_pi()?,
                Some(b'!') => self.skip_comment()?,
                _ => return Ok(()),
            }
        }
    }

    fn skip_pi(&mut self) -> Result<(), XmlError> {
        self.expect_byte(b'<', "processing instruction")?;
        self.expect_byte(b'?', "processing instruction")?;
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'?' && self.bytes.get(self.pos + 1) == Some(&b'>') {
                self.pos += 2;
                return Ok(());
            }
            self.bump_byte();
        }
        Err(self.error(XmlErrorKind::UnexpectedEof("processing instruction")))
    }

    fn skip_comment(&mut self) -> Result<(), XmlError> {
        self.expect_byte(b'<', "comment")?;
        self.expect_byte(b'!', "comment")?;
        self.expect_byte(b'-', "comment")?;
        self.expect_byte(b'-', "comment")?;
        // The comment ends at the first '>' preceded by at least two '-'.
        let mut dashes = 0usize;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'-' => {
                    dashes += 1;
                    self.pos += 1;
                }
                b'>' if dashes >= 2 => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    dashes = 0;
                    self.bump_byte();
                }
            }
        }
        Err(self.error(XmlErrorKind::UnexpectedEof("comment")))
    }

    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        self.expect_byte(b'<', "DOCTYPE")?;
        self.expect_byte(b'!', "DOCTYPE")?;
        // Consume until the matching '>', tracking nested '[' ... ']' for
        // internal subsets.
        let mut bracket_depth = 0usize;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'[' => {
                    bracket_depth += 1;
                    self.pos += 1;
                }
                b']' => {
                    bracket_depth = bracket_depth.saturating_sub(1);
                    self.pos += 1;
                }
                b'>' if bracket_depth == 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => self.bump_byte(),
            }
        }
        Err(self.error(XmlErrorKind::UnexpectedEof("DOCTYPE")))
    }

    fn is_name_start(c: char) -> bool {
        c.is_alphabetic() || c == '_' || c == ':'
    }

    fn is_name_char(c: char) -> bool {
        Self::is_name_start(c) || c.is_numeric() || c == '-' || c == '.'
    }

    fn is_ascii_name_byte(b: u8) -> bool {
        b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.')
    }

    #[allow(clippy::expect_used)] // checked invariant, documented at each site
    /// Scans a name and interns it straight from the borrowed slice —
    /// no intermediate `String` ever materializes.
    fn parse_name(&mut self) -> Result<Name, XmlError> {
        let start = self.pos;
        match self.peek_char() {
            Some(c) if Self::is_name_start(c) => self.pos += c.len_utf8(),
            Some(found) => {
                return Err(self.error(XmlErrorKind::Unexpected {
                    found,
                    expected: "a name",
                }))
            }
            None => return Err(self.error(XmlErrorKind::UnexpectedEof("name"))),
        }
        loop {
            match self.bytes.get(self.pos) {
                // ASCII fast path: one byte, one table check.
                Some(&b) if b.is_ascii() => {
                    if Self::is_ascii_name_byte(b) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                Some(_) => {
                    let c = self.peek_char().expect("in-bounds");
                    if Self::is_name_char(c) {
                        self.pos += c.len_utf8();
                    } else {
                        break;
                    }
                }
                None => break,
            }
        }
        Ok(self.names.intern(&self.input[start..self.pos]))
    }

    #[allow(clippy::expect_used)] // checked invariant, documented at each site
    /// Decodes the entity at `pos` (positioned *after* the `&`).
    fn parse_entity(&mut self) -> Result<char, XmlError> {
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error(XmlErrorKind::UnexpectedEof("entity"))),
                Some(b';') => break,
                Some(&b) => {
                    // Advance whole characters so the length check and
                    // the error slice below always sit on char
                    // boundaries (a body of multi-byte chars must not
                    // split one).
                    if b.is_ascii() {
                        self.bump_byte();
                    } else {
                        let c = self.peek_char().expect("in-bounds");
                        self.pos += c.len_utf8();
                    }
                    if self.pos - start > 12 {
                        return Err(self.error(XmlErrorKind::UnknownEntity(
                            self.input[start..self.pos].to_owned(),
                        )));
                    }
                }
            }
        }
        let body = &self.input[start..self.pos];
        self.pos += 1; // ';'
        match body {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "apos" => Ok('\''),
            "quot" => Ok('"'),
            _ => {
                if let Some(hex) = body.strip_prefix("#x").or_else(|| body.strip_prefix("#X")) {
                    u32::from_str_radix(hex, 16)
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.error(XmlErrorKind::BadCharRef(body.to_owned())))
                } else if let Some(dec) = body.strip_prefix('#') {
                    dec.parse::<u32>()
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.error(XmlErrorKind::BadCharRef(body.to_owned())))
                } else {
                    Err(self.error(XmlErrorKind::UnknownEntity(body.to_owned())))
                }
            }
        }
    }

    #[allow(clippy::expect_used)] // checked invariant, documented at each site
    /// Parses a quoted attribute value. Entity-free values — the common
    /// case — are returned as a borrowed slice of the input; values with
    /// entities build an owned buffer from bulk runs.
    fn parse_attr_value(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let quote = match self.bytes.get(self.pos) {
            Some(&b @ (b'"' | b'\'')) => {
                self.pos += 1;
                b
            }
            Some(_) => {
                let found = self.peek_char().expect("in-bounds");
                return Err(self.error(XmlErrorKind::Unexpected {
                    found,
                    expected: "a quoted attribute value",
                }));
            }
            None => return Err(self.error(XmlErrorKind::UnexpectedEof("attribute value"))),
        };
        let start = self.pos;
        let mut value: Option<String> = None;
        let mut run_start = start;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error(XmlErrorKind::UnexpectedEof("attribute value"))),
                Some(&b) if b == quote => {
                    let out = match value {
                        Some(mut v) => {
                            v.push_str(&self.input[run_start..self.pos]);
                            Cow::Owned(v)
                        }
                        None => Cow::Borrowed(&self.input[start..self.pos]),
                    };
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'&') => {
                    let v =
                        value.get_or_insert_with(|| String::with_capacity(self.pos - start + 16));
                    v.push_str(&self.input[run_start..self.pos]);
                    self.pos += 1;
                    let c = self.parse_entity()?;
                    v.push(c);
                    run_start = self.pos;
                }
                Some(_) => self.bump_byte(),
            }
        }
    }

    #[allow(clippy::expect_used)] // checked invariant, documented at each site
    fn parse_element<S: Sink>(&mut self, sink: &mut S, depth: usize) -> Result<S::Out, XmlError> {
        if depth >= self.options.max_depth {
            return Err(self.error(XmlErrorKind::TooDeep(self.options.max_depth)));
        }
        self.expect_byte(b'<', "element")?;
        let name = self.parse_name()?;
        let mut element = sink.elem(name);

        // Attributes.
        loop {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect_byte(b'>', "self-closing tag")?;
                    return Ok(sink.finish(element));
                }
                Some(_) => {
                    let c = self.peek_char().expect("in-bounds");
                    if !Self::is_name_start(c) {
                        return Err(self.error(XmlErrorKind::Unexpected {
                            found: c,
                            expected: "attribute, '>' or '/>'",
                        }));
                    }
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    self.expect_byte(b'=', "attribute")?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    sink.attr(&mut element, attr_name, value);
                }
                None => return Err(self.error(XmlErrorKind::UnexpectedEof("start tag"))),
            }
        }

        // Content. Every text run is flushed before a child element
        // starts and before this element ends, so the run buffer is empty
        // here and when this element returns.
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error(XmlErrorKind::UnexpectedEof("element content"))),
                Some(b'<') => match self.bytes.get(self.pos + 1) {
                    Some(b'/') => {
                        self.flush_text(sink, &mut element);
                        self.pos += 2; // "</"
                        let close = self.parse_name()?;
                        self.skip_ws();
                        self.expect_byte(b'>', "end tag")?;
                        if close != name {
                            return Err(self.error(XmlErrorKind::MismatchedTag {
                                open: name.as_str().to_owned(),
                                close: close.as_str().to_owned(),
                            }));
                        }
                        return Ok(sink.finish(element));
                    }
                    Some(b'!') => {
                        if self.bytes.get(self.pos + 2) == Some(&b'[') {
                            // CDATA section: <![CDATA[ ... ]]>
                            if !self.bytes[self.pos..].starts_with(b"<![CDATA[") {
                                return Err(self.error(XmlErrorKind::Unexpected {
                                    found: '[',
                                    expected: "CDATA section",
                                }));
                            }
                            self.pos += "<![CDATA[".len();
                            self.read_cdata()?;
                        } else {
                            self.flush_text(sink, &mut element);
                            self.skip_comment()?;
                        }
                    }
                    Some(b'?') => {
                        self.flush_text(sink, &mut element);
                        self.skip_pi()?;
                    }
                    _ => {
                        self.flush_text(sink, &mut element);
                        sink.child_start(&mut element);
                        let child = self.parse_element(sink, depth + 1)?;
                        sink.child(&mut element, child);
                    }
                },
                Some(b'&') => {
                    self.pos += 1;
                    let c = self.parse_entity()?;
                    self.text_run.push(c);
                }
                Some(_) => {
                    // Bulk text run: scan to the next markup or entity
                    // and copy the whole run at once.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'<' || b == b'&' {
                            break;
                        }
                        if b == b'\n' || b == b'\r' {
                            self.bump_byte();
                        } else {
                            self.pos += 1;
                        }
                    }
                    self.text_run.push_str(&self.input[start..self.pos]);
                }
            }
        }
    }

    fn read_cdata(&mut self) -> Result<(), XmlError> {
        // Already consumed "<![CDATA[". Copy the content in one run,
        // delimited by "]]>".
        let run_start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error(XmlErrorKind::UnexpectedEof("CDATA section"))),
                Some(b']')
                    if self.bytes.get(self.pos + 1) == Some(&b']')
                        && self.bytes.get(self.pos + 2) == Some(&b'>') =>
                {
                    self.text_run.push_str(&self.input[run_start..self.pos]);
                    self.pos += 3;
                    return Ok(());
                }
                Some(_) => self.bump_byte(),
            }
        }
    }

    fn flush_text<S: Sink>(&mut self, sink: &mut S, element: &mut S::Elem) {
        if self.text_run.is_empty() {
            return;
        }
        if !self.options.ignore_whitespace_text || !self.text_run.chars().all(char::is_whitespace) {
            sink.text(element, &self.text_run);
        }
        self.text_run.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_element() {
        let e = parse("<a/>").unwrap();
        assert_eq!(e.name, "a");
        assert!(e.attributes.is_empty());
        assert!(e.children.is_empty());
        let e2 = parse("<a></a>").unwrap();
        assert_eq!(e, e2);
    }

    #[test]
    fn attributes_single_and_double_quoted() {
        let e = parse(r#"<a x="1" y='two'/>"#).unwrap();
        assert_eq!(e.attribute("x"), Some("1"));
        assert_eq!(e.attribute("y"), Some("two"));
    }

    #[test]
    fn attribute_spacing_variants() {
        let e = parse("<a x = \"1\"  y=\"2\" />").unwrap();
        assert_eq!(e.attribute("x"), Some("1"));
        assert_eq!(e.attribute("y"), Some("2"));
    }

    #[test]
    fn nested_elements_and_text() {
        let e = parse("<root><item>Hello!</item></root>").unwrap();
        assert_eq!(e.children.len(), 1);
        match &e.children[0] {
            XmlNode::Element(item) => {
                assert_eq!(item.name, "item");
                assert_eq!(item.text(), "Hello!");
            }
            other => panic!("expected element, got {other:?}"),
        }
    }

    #[test]
    fn whitespace_only_text_dropped_by_default() {
        let e = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(e.children.len(), 2);
    }

    #[test]
    fn whitespace_text_kept_when_configured() {
        let opts = XmlOptions {
            ignore_whitespace_text: false,
            ..XmlOptions::default()
        };
        let e = parse_with("<a> <b/> </a>", &opts).unwrap();
        assert_eq!(e.children.len(), 3);
    }

    #[test]
    fn mixed_content_preserved() {
        let e = parse("<p>one <b>two</b> three</p>").unwrap();
        assert_eq!(e.children.len(), 3);
        assert_eq!(e.text(), "one  three");
    }

    #[test]
    fn predefined_entities_decode() {
        let e = parse("<a x=\"&lt;&amp;&quot;\">&gt;&apos;</a>").unwrap();
        assert_eq!(e.attribute("x"), Some("<&\""));
        assert_eq!(e.text(), ">'");
    }

    #[test]
    fn numeric_character_references() {
        let e = parse("<a>&#65;&#x42;&#x1F600;</a>").unwrap();
        assert_eq!(e.text(), "AB\u{1F600}");
    }

    #[test]
    fn unknown_entity_is_error() {
        let err = parse("<a>&nbsp;</a>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnknownEntity(_)));
    }

    #[test]
    fn overlong_multibyte_entity_is_error_not_panic() {
        // The 12-byte limit used to fire mid-character and panic on the
        // char-boundary slice; it must error cleanly instead.
        for doc in [
            "<a>&ééééééé;</a>",
            "<a x=\"&ééééééé;\"/>",
            "<a>&日本語キーです;</a>",
        ] {
            let err = parse(doc).unwrap_err();
            assert!(matches!(err.kind, XmlErrorKind::UnknownEntity(_)), "{doc}");
        }
    }

    #[test]
    fn bad_char_ref_is_error() {
        let err = parse("<a>&#xD800;</a>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::BadCharRef(_)));
    }

    #[test]
    fn cdata_sections() {
        let e = parse("<a><![CDATA[<not-a-tag> & raw]]></a>").unwrap();
        assert_eq!(e.text(), "<not-a-tag> & raw");
    }

    #[test]
    fn cdata_with_brackets() {
        let e = parse("<a><![CDATA[x]y]]z]]></a>").unwrap();
        assert_eq!(e.text(), "x]y]]z");
    }

    #[test]
    fn comments_are_skipped() {
        let e = parse("<a><!-- hi --><b/><!-- --- --></a>").unwrap();
        assert_eq!(e.child_elements().count(), 1);
    }

    #[test]
    fn xml_declaration_and_doctype_skipped() {
        let e = parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE doc [<!ELEMENT doc ANY>]>\n<doc/>").unwrap();
        assert_eq!(e.name, "doc");
    }

    #[test]
    fn processing_instructions_in_content() {
        let e = parse("<a><?php echo ?><b/></a>").unwrap();
        assert_eq!(e.child_elements().count(), 1);
    }

    #[test]
    fn namespaced_names_kept_verbatim() {
        let e = parse(r#"<ns:a xmlns:ns="http://x" ns:attr="1"><ns:b/></ns:a>"#).unwrap();
        assert_eq!(e.name, "ns:a");
        assert_eq!(e.attribute("ns:attr"), Some("1"));
        assert_eq!(e.child_elements().next().unwrap().name, "ns:b");
    }

    #[test]
    fn non_ascii_names_intern() {
        let e = parse("<čaj típ=\"zelený\">42</čaj>").unwrap();
        assert_eq!(e.name, "čaj");
        assert_eq!(e.attribute("típ"), Some("zelený"));
        assert_eq!(e.text(), "42");
    }

    #[test]
    fn mismatched_tags_error() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_element_error() {
        let err = parse("<a><b>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnexpectedEof(_)));
    }

    #[test]
    fn trailing_content_error() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::TrailingContent));
    }

    #[test]
    fn trailing_comment_ok() {
        assert!(parse("<a/>\n<!-- done -->\n").is_ok());
    }

    #[test]
    fn no_root_error() {
        let err = parse("   ").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::NoRoot));
    }

    #[test]
    fn depth_limit() {
        let deep = "<a>".repeat(300) + &"</a>".repeat(300);
        let err = parse(&deep).unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::TooDeep(256)));
    }

    #[test]
    fn error_positions_are_tracked() {
        let err = parse("<a>\n  <b x=>\n</a>").unwrap_err();
        assert_eq!(err.line, 2);
    }

    /// Only the spec's `S` production counts as markup whitespace: the
    /// retained reference parser accidentally accepted any Unicode
    /// whitespace between attributes, which is not well-formed XML.
    #[test]
    fn unicode_whitespace_in_markup_is_rejected() {
        for doc in ["<a\u{00A0}x=\"1\"/>", "<a x=\"1\"\u{2003}/>"] {
            assert!(parse(doc).is_err(), "{doc:?} should be rejected");
            // The divergence from the lenient reference is intentional:
            assert!(crate::reference::parse(doc).is_ok());
        }
        // ...while Unicode whitespace inside text/attribute *content*
        // is data, not markup, and passes through both parsers:
        let e = parse("<a x=\"\u{00A0}\">\u{2003}ok</a>").unwrap();
        assert_eq!(e.attribute("x"), Some("\u{00A0}"));
    }

    /// LF, CRLF and bare-CR (classic-Mac) line endings all advance the
    /// error line the same way — the XML analogue of the CSV bare-CR
    /// line-counting fix; the retained reference parser counts only LF.
    #[test]
    fn bare_cr_line_endings_count_in_error_positions() {
        for (doc, line, column) in [
            ("<a>\n<b>\n<bad @></a>", 3, 6),
            ("<a>\r\n<b>\r\n<bad @></a>", 3, 6),
            ("<a>\r<b>\r<bad @></a>", 3, 6),
        ] {
            let err = parse(doc).unwrap_err();
            assert_eq!((err.line, err.column), (line, column), "{doc:?}");
        }
    }

    #[test]
    fn error_column_counts_characters_not_bytes() {
        // "žluť" is 4 characters but 6 bytes; the column of the error
        // after it must count characters, as an editor shows them.
        let err = parse("<a>\n<žluť x=@>\n</a>").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.column, 9, "column must be in characters");
    }

    #[test]
    fn parse_value_agrees_with_parse_then_encode() {
        let docs = [
            r#"<root id="1"><item>Hello!</item></root>"#,
            r##"<a i="42" f="2.5" b="true" s="hey" m="#N/A"/>"##,
            "<n>  42 </n>",
            "<a>   </a>",
            "<p>text <b>bold</b> more</p>",
            "<doc><p>one</p><p>two</p></doc>",
            "<a><![CDATA[<not-a-tag> & raw]]></a>",
            "<a x=\"&lt;&amp;&quot;\">&gt;&apos;</a>",
            "<a>\n  <b/>\n  <c/>\n</a>",
            "<čaj típ=\"zelený\">42</čaj>",
        ];
        for doc in docs {
            assert_eq!(
                parse_value(doc).unwrap(),
                parse(doc).unwrap().to_value(),
                "mismatch on {doc}"
            );
        }
    }

    #[test]
    fn parse_value_propagates_errors() {
        assert!(matches!(
            parse_value("<a><b></a></b>").unwrap_err().kind,
            XmlErrorKind::MismatchedTag { .. }
        ));
        assert!(parse_value("<a>&nope;</a>").is_err());
        let deep = "<a>".repeat(300) + &"</a>".repeat(300);
        assert!(matches!(
            parse_value(&deep).unwrap_err().kind,
            XmlErrorKind::TooDeep(256)
        ));
    }

    #[test]
    fn paper_doc_sample_parses() {
        // The §2.2 example document.
        let e = parse(
            "<doc>\n\
               <heading>Working with JSON</heading>\n\
               <p>Type providers make this easy.</p>\n\
               <heading>Working with XML</heading>\n\
               <p>Processing XML is as easy as JSON.</p>\n\
               <image source=\"xml.png\" />\n\
             </doc>",
        )
        .unwrap();
        assert_eq!(e.name, "doc");
        let names: Vec<_> = e.child_elements().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["heading", "p", "heading", "p", "image"]);
        assert_eq!(
            e.child_elements().last().unwrap().attribute("source"),
            Some("xml.png")
        );
    }
}
