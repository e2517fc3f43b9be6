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
//! [`crate::reference`] so benchmarks can quantify the difference.

use crate::encode::EncodeOptions;
use crate::{Attribute, Element, XmlNode};
use std::borrow::Cow;
use std::fmt;
use tfd_csv::literal::parse_literal;
use tfd_value::intern::NameMemo;
use tfd_value::{body_name, Interner, Name, Value};

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
    let mut sink = ValueSink {
        options: encode.clone(),
        body: body_name(),
    };
    let root = p.parse_element(&mut sink, 0)?;
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
    each_value(p, encode, &mut |v| docs.push(v)).map_err(|(_, e)| e)?;
    Ok(docs)
}

/// [`parse_many_values_in`] handing each document to `each` as soon as
/// its root element closes, so a caller folding the documents never
/// holds more than one of them.
///
/// Unlike the other entry points, it parses `input` exactly as given: a
/// leading byte-order mark is an error here, because this is how the
/// ingest pipeline parses a bundle cut from the middle of a stream.
///
/// # Errors
///
/// As [`parse_many_values`], paired with the byte offset just past the
/// root element of the last document handed to `each` (0 when none
/// was). That offset is a record boundary of
/// [`stream::BoundaryScanner`](crate::stream::BoundaryScanner) over the
/// same bytes, so parsing can resume there once the failing record is
/// dealt with.
///
/// ```
/// let mut docs = 0;
/// let (parsed_to, _) = tfd_xml::parse_many_values_each(
///     "<a/>\n<!-- c --><b/>\n<c x=1/>",
///     &tfd_xml::XmlOptions::default(),
///     &tfd_xml::EncodeOptions::default(),
///     &tfd_value::Interner::new(),
///     &mut |_| docs += 1,
/// )
/// .unwrap_err();
/// assert_eq!((docs, parsed_to), (2, 19));
/// ```
pub fn parse_many_values_each(
    input: &str,
    options: &XmlOptions,
    encode: &EncodeOptions,
    interner: &Interner,
    each: &mut dyn FnMut(Value),
) -> Result<(), (usize, XmlError)> {
    each_value(
        XmlParser::new_in(input, options.clone(), interner),
        encode,
        each,
    )
}

/// Hands the value of every document `p` parses to `each`; an error
/// comes with the offset just past the last root element handed out.
fn each_value(
    mut p: XmlParser<'_>,
    encode: &EncodeOptions,
    each: &mut dyn FnMut(Value),
) -> Result<(), (usize, XmlError)> {
    let mut sink = ValueSink {
        options: encode.clone(),
        body: body_name(),
    };
    let mut parsed_to = 0;
    while p.skip_prolog_opt().map_err(|e| (parsed_to, e))? {
        each(p.parse_element(&mut sink, 0).map_err(|e| (parsed_to, e))?);
        parsed_to = p.pos;
    }
    Ok(())
}

/// How parsed pieces are assembled into an output document. Two
/// instantiations exist: [`ElementSink`] (the [`Element`] tree) and
/// [`ValueSink`] (the §6.2 encoding into the universal [`Value`], with
/// literal inference applied to attributes and text). The parser is
/// generic over the sink so both outputs share the single byte-level
/// pass.
trait Sink {
    /// Per-element accumulator.
    type Elem;
    /// Finished node for a completed element.
    type Out;

    fn elem(&mut self, name: Name) -> Self::Elem;
    fn attr(&mut self, e: &mut Self::Elem, name: Name, value: Cow<'_, str>);
    /// A text run that survived whitespace filtering.
    fn text(&mut self, e: &mut Self::Elem, run: String);
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
    fn text(&mut self, e: &mut Element, run: String) {
        e.children.push(XmlNode::Text(run));
    }
    fn child(&mut self, e: &mut Element, child: Element) {
        e.children.push(XmlNode::Element(child));
    }
    fn finish(&mut self, e: Element) -> Element {
        e
    }
}

struct ValueSink {
    options: EncodeOptions,
    body: Name,
}

/// Accumulator for one element being encoded as a value: attribute
/// fields, encoded child elements and the concatenated surviving text.
struct ValueElem {
    name: Name,
    fields: Vec<(Name, Value)>,
    children: Vec<Value>,
    text: String,
}

impl Sink for ValueSink {
    type Elem = ValueElem;
    type Out = Value;

    fn elem(&mut self, name: Name) -> ValueElem {
        ValueElem {
            name,
            fields: Vec::new(),
            children: Vec::new(),
            text: String::new(),
        }
    }
    fn attr(&mut self, e: &mut ValueElem, name: Name, value: Cow<'_, str>) {
        // Literal inference straight off the (usually borrowed) slice —
        // numeric/boolean/null attributes allocate nothing.
        e.fields
            .push((name, parse_literal(&value, &self.options.literals)));
    }
    fn text(&mut self, e: &mut ValueElem, run: String) {
        if e.text.is_empty() {
            e.text = run; // steal the first run's buffer
        } else {
            e.text.push_str(&run);
        }
    }
    fn child(&mut self, e: &mut ValueElem, child: Value) {
        e.children.push(child);
    }
    fn finish(&mut self, e: ValueElem) -> Value {
        // The §6.2 body rules of `crate::encode::element_to_value`:
        // text-only bodies are trimmed and literal-inferred, elements
        // make a collection (interleaved text is dropped), and an empty
        // body omits the `•` field so inference marks it optional.
        let mut fields = e.fields;
        if e.children.is_empty() {
            let trimmed = e.text.trim();
            if !trimmed.is_empty() {
                fields.push((self.body, parse_literal(trimmed, &self.options.literals)));
            }
        } else {
            fields.push((self.body, Value::List(e.children)));
        }
        Value::record(e.name, fields)
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
        }
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

        // Content.
        let mut text_run = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error(XmlErrorKind::UnexpectedEof("element content"))),
                Some(b'<') => match self.bytes.get(self.pos + 1) {
                    Some(b'/') => {
                        self.flush_text(sink, &mut element, &mut text_run);
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
                            self.read_cdata(&mut text_run)?;
                        } else {
                            self.flush_text(sink, &mut element, &mut text_run);
                            self.skip_comment()?;
                        }
                    }
                    Some(b'?') => {
                        self.flush_text(sink, &mut element, &mut text_run);
                        self.skip_pi()?;
                    }
                    _ => {
                        self.flush_text(sink, &mut element, &mut text_run);
                        let child = self.parse_element(sink, depth + 1)?;
                        sink.child(&mut element, child);
                    }
                },
                Some(b'&') => {
                    self.pos += 1;
                    let c = self.parse_entity()?;
                    text_run.push(c);
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
                    text_run.push_str(&self.input[start..self.pos]);
                }
            }
        }
    }

    fn read_cdata(&mut self, text_run: &mut String) -> Result<(), XmlError> {
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
                    text_run.push_str(&self.input[run_start..self.pos]);
                    self.pos += 3;
                    return Ok(());
                }
                Some(_) => self.bump_byte(),
            }
        }
    }

    fn flush_text<S: Sink>(&mut self, sink: &mut S, element: &mut S::Elem, text_run: &mut String) {
        if text_run.is_empty() {
            return;
        }
        let run = std::mem::take(text_run);
        if self.options.ignore_whitespace_text && run.chars().all(char::is_whitespace) {
            return;
        }
        sink.text(element, run);
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
