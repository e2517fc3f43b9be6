//! Single-pass, byte-level JSON parsing with precise error positions.
//!
//! This is the hot path of the whole pipeline: a type provider parses
//! every sample document through here before inference runs. The parser
//! therefore works directly on the input bytes with **no intermediate
//! token values**:
//!
//! * escape-free string literals are handed on as *borrowed* slices of
//!   the input — the overwhelmingly common case for both keys and values
//!   — and only strings containing escapes are decoded, into one buffer
//!   the parser reuses;
//! * object keys reach the sink before their values: the `Value` and
//!   [`Json`] sinks intern them into [`Name`] symbols straight from the
//!   slice, so a million-row array of records allocates its key strings
//!   once, not a million times, and the σ-walk sink of
//!   [`parse_many_values_each`] compares them as bytes without interning
//!   at all;
//! * numbers parse straight from the input span (shared int/float fast
//!   path), with no per-token `String`;
//! * line/column positions are not tracked per character: the parser
//!   keeps only the current line number and the byte offset of its start,
//!   and an error **computes** its column by counting characters (not
//!   bytes — multi-byte UTF-8 input reports the same columns an editor
//!   shows) only when the error is actually raised.
//!
//! The previous lexer+parser pipeline is retained unchanged as
//! [`crate::reference`] so benchmarks can quantify the difference.

use crate::lexer::{LexErrorKind, Pos};
use crate::Json;
use std::fmt;
use tfd_value::intern::NameMemo;
use tfd_value::visit::{Leaf, RecordFold, RecordWalk, Visitor};
use tfd_value::{body_name, Field, Interner, Name, Value, BODY_NAME};

/// What went wrong while parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseErrorKind {
    /// A lexical error (bad literal, bad escape, stray character).
    Lex(LexErrorKind),
    /// A grammatical error: found a token where another was required.
    Unexpected {
        /// Description of the offending token.
        found: String,
        /// What the parser was looking for.
        expected: String,
    },
    /// Extra content after the end of the top-level document.
    TrailingContent(String),
    /// Document nesting exceeded [`ParserOptions::max_depth`].
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

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::Lex(e) => write!(f, "{e}"),
            ParseErrorKind::Unexpected { found, expected } => {
                write!(f, "expected {expected}, found {found}")
            }
            ParseErrorKind::TrailingContent(tok) => {
                write!(f, "unexpected {tok} after end of document")
            }
            ParseErrorKind::TooDeep(limit) => {
                write!(f, "document nesting exceeds limit of {limit}")
            }
            ParseErrorKind::InvalidUtf8 => write!(f, "input is not valid UTF-8"),
            ParseErrorKind::RecordTooLarge(limit) => {
                write!(f, "record exceeds size limit of {limit} bytes")
            }
        }
    }
}

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// Source position of the error.
    pub pos: Pos,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.kind, self.pos)
    }
}

impl std::error::Error for ParseError {}

impl From<crate::lexer::LexError> for ParseError {
    fn from(e: crate::lexer::LexError) -> Self {
        ParseError {
            kind: ParseErrorKind::Lex(e.kind),
            pos: e.pos,
        }
    }
}

/// Parser configuration.
#[derive(Debug, Clone)]
pub struct ParserOptions {
    /// Maximum container nesting depth (guards against stack exhaustion on
    /// adversarial inputs). Default: 128.
    pub max_depth: usize,
}

impl Default for ParserOptions {
    fn default() -> Self {
        ParserOptions { max_depth: 128 }
    }
}

/// Parses a complete JSON document.
///
/// Object keys are interned into the process-default [`Name`] arena,
/// which lives for the process lifetime. That is the right trade for
/// one-shot runs over schema-shaped data — keys repeat across rows —
/// but a long-running process parsing corpora whose keys are themselves
/// *data* (objects used as maps with unbounded key vocabularies) should
/// use the `_in` entry points ([`parse_value_in`],
/// [`parse_many_values_in`]) with a scoped
/// [`Interner`](tfd_value::Interner) that is dropped — reclaiming the
/// vocabulary — when the corpus is done.
///
/// # Errors
///
/// Returns a [`ParseError`] with line/column information when the input is
/// not valid JSON (per RFC 8259) or nests deeper than the default limit.
///
/// ```
/// let doc = tfd_json::parse("[1, 2.5, null]")?;
/// assert_eq!(doc.items().unwrap().len(), 3);
/// # Ok::<(), tfd_json::ParseError>(())
/// ```
pub fn parse(input: &str) -> Result<Json, ParseError> {
    parse_with(input, &ParserOptions::default())
}

/// Parses a complete JSON document under explicit [`ParserOptions`].
///
/// # Errors
///
/// As [`parse`], plus [`ParseErrorKind::TooDeep`] when nesting exceeds
/// `options.max_depth`.
pub fn parse_with(input: &str, options: &ParserOptions) -> Result<Json, ParseError> {
    let mut p = Parser::new(input, options.max_depth).skip_bom();
    p.skip_ws();
    let doc = p.parse_value(&mut JsonSink::new(), 0)?;
    p.expect_eof()?;
    Ok(doc)
}

/// Parses a document straight into the universal data [`Value`] of §3.4,
/// skipping the [`Json`] intermediate entirely: objects become `•`-named
/// records with interned field names, arrays become collections.
///
/// This is the parse→infer hot path — one pass over the bytes, one
/// allocation per container or escaped/owned string, zero per name.
///
/// ```
/// let v = tfd_json::parse_value(r#"{ "a": 1 }"#)?;
/// assert_eq!(v.record_name(), Some(tfd_value::BODY_NAME));
/// assert_eq!(v.field("a"), Some(&tfd_value::Value::Int(1)));
/// # Ok::<(), tfd_json::ParseError>(())
/// ```
pub fn parse_value(input: &str) -> Result<Value, ParseError> {
    parse_value_with(input, &ParserOptions::default())
}

/// [`parse_value`] under explicit [`ParserOptions`].
///
/// # Errors
///
/// As [`parse_value`], plus [`ParseErrorKind::TooDeep`] when nesting
/// exceeds `options.max_depth`.
pub fn parse_value_with(input: &str, options: &ParserOptions) -> Result<Value, ParseError> {
    parse_value_in(input, options, Interner::global())
}

/// [`parse_value_with`] interning object keys into a caller-supplied
/// arena — the corpus-scoped hot path. Names in the returned value
/// borrow from `interner`'s storage; [`Value::reintern`] whatever must
/// outlive it.
///
/// # Errors
///
/// As [`parse_value_with`].
///
/// ```
/// let corpus = tfd_value::Interner::new();
/// let v = tfd_json::parse_value_in(r#"{ "a": 1 }"#, &Default::default(), &corpus)?;
/// assert_eq!(v.field("a"), Some(&tfd_value::Value::Int(1)));
/// # Ok::<(), tfd_json::ParseError>(())
/// ```
pub fn parse_value_in(
    input: &str,
    options: &ParserOptions,
    interner: &Interner,
) -> Result<Value, ParseError> {
    let mut p = Parser::new(input, options.max_depth).skip_bom();
    p.skip_ws();
    let doc = p.parse_value(&mut ValueSink::new(interner), 0)?;
    p.expect_eof()?;
    Ok(doc)
}

/// Parses several whitespace-separated JSON documents (JSON-lines style),
/// used when a type provider is given multiple samples in one file.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered.
///
/// ```
/// let docs = tfd_json::parse_many("{\"a\":1}\n{\"a\":2}")?;
/// assert_eq!(docs.len(), 2);
/// # Ok::<(), tfd_json::ParseError>(())
/// ```
pub fn parse_many(input: &str) -> Result<Vec<Json>, ParseError> {
    let mut p = Parser::new(input, ParserOptions::default().max_depth).skip_bom();
    let mut sink = JsonSink::new();
    let mut docs = Vec::new();
    p.skip_ws();
    while !p.at_eof() {
        docs.push(p.parse_value(&mut sink, 0)?);
        p.skip_ws();
    }
    Ok(docs)
}

/// Parses several whitespace-separated JSON documents straight into
/// universal [`Value`]s — the reference the ingest pipeline's
/// differential suites compare against.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered.
///
/// ```
/// let docs = tfd_json::parse_many_values("{\"a\":1}\n{\"a\":2}")?;
/// assert_eq!(docs.len(), 2);
/// # Ok::<(), tfd_json::ParseError>(())
/// ```
pub fn parse_many_values(input: &str) -> Result<Vec<Value>, ParseError> {
    parse_many_values_with(input, &ParserOptions::default())
}

/// [`parse_many_values`] under explicit [`ParserOptions`].
///
/// # Errors
///
/// As [`parse_many_values`], plus [`ParseErrorKind::TooDeep`] when any
/// document nests past `options.max_depth`.
pub fn parse_many_values_with(
    input: &str,
    options: &ParserOptions,
) -> Result<Vec<Value>, ParseError> {
    parse_many_values_in(input, options, Interner::global())
}

/// [`parse_many_values_with`] interning object keys into a
/// caller-supplied arena (see [`parse_value_in`]).
///
/// # Errors
///
/// As [`parse_many_values_with`].
pub fn parse_many_values_in(
    input: &str,
    options: &ParserOptions,
    interner: &Interner,
) -> Result<Vec<Value>, ParseError> {
    let mut docs = Vec::new();
    let p = Parser::new(input, options.max_depth).skip_bom();
    fold_values(p, interner, &mut docs).map_err(|(_, e)| e)?;
    Ok(docs)
}

/// Folds the documents of `input` into `fold` as they are parsed, so a
/// caller folding them never holds more than one.
///
/// A document the fold offers a [walk](RecordFold::walk) for is parsed
/// straight into that walk: no [`Value`] is built and no key is
/// interned. When the walk declines the document, it is parsed again
/// from its start into a `Value` and [pushed](RecordFold::push). Every
/// other document is parsed into a `Value` and pushed. The same parser
/// code runs either way, so errors and their positions do not depend
/// on the fold.
///
/// Unlike the other entry points, it parses `input` exactly as given: a
/// leading byte-order mark is an error here, because this is how the
/// ingest pipeline parses a bundle cut from the middle of a stream.
///
/// # Errors
///
/// As [`parse_many_values_with`], paired with the byte offset just past
/// the last document folded (0 when none was). That offset is a record
/// boundary of [`stream::BoundaryScanner`](crate::stream::BoundaryScanner)
/// over the same bytes, so parsing can resume there once the failing
/// record is dealt with.
///
/// ```
/// let mut docs = Vec::new();
/// let (parsed_to, _) = tfd_json::parse_many_values_each(
///     "{\"a\":1} [2]\n{\"a\" 1}",
///     &tfd_json::ParserOptions::default(),
///     &tfd_value::Interner::new(),
///     &mut docs,
/// )
/// .unwrap_err();
/// assert_eq!((docs.len(), parsed_to), (2, 11));
/// ```
pub fn parse_many_values_each<F: RecordFold + ?Sized>(
    input: &str,
    options: &ParserOptions,
    interner: &Interner,
    fold: &mut F,
) -> Result<(), (usize, ParseError)> {
    fold_values(Parser::new(input, options.max_depth), interner, fold)
}

/// Folds every document `p` parses into `fold`, walked or built (see
/// [`parse_many_values_each`]); an error comes with the offset just past
/// the last document folded.
fn fold_values<F: RecordFold + ?Sized>(
    mut p: Parser<'_>,
    interner: &Interner,
    fold: &mut F,
) -> Result<(), (usize, ParseError)> {
    let mut sink = ValueSink::new(interner);
    let mut parsed_to = 0;
    p.skip_ws();
    while !p.at_eof() {
        let start = p.mark();
        let walked = match fold.walk() {
            Some(walk) => {
                let mut walk = WalkSink { walk, open: true };
                p.parse_value(&mut walk, 0).map_err(|e| (parsed_to, e))?;
                walk.walk.finish()
            }
            None => false,
        };
        if !walked {
            p.rewind(start);
            fold.push(p.parse_value(&mut sink, 0).map_err(|e| (parsed_to, e))?);
        }
        parsed_to = p.pos;
        p.skip_ws();
    }
    Ok(())
}

/// How parsed pieces are assembled into an output document, in the
/// order the parser meets them: an object's key reaches the sink before
/// its value is parsed. Three instantiations exist: [`JsonSink`] (the
/// [`Json`] tree), [`ValueSink`] (the universal [`Value`] with interned
/// names) and [`WalkSink`] (a [`Visitor`]'s events, building nothing).
/// The parser is generic over the sink so every output shares the
/// single byte-level pass, its checks and its error positions.
trait Sink {
    type Out;
    type Key;
    type Obj;
    type Arr;

    fn int(&mut self, i: i64) -> Self::Out;
    /// A float literal, its grammar already checked; `None` when `span`
    /// does not convert to an `f64`.
    fn float(&mut self, span: &str) -> Option<Self::Out>;
    fn boolean(&mut self, b: bool) -> Self::Out;
    fn null(&mut self) -> Self::Out;
    fn string(&mut self, s: &str) -> Self::Out;
    fn obj_new(&mut self) -> Self::Obj;
    fn key(&mut self, key: &str) -> Self::Key;
    fn obj_push(&mut self, obj: &mut Self::Obj, key: Self::Key, value: Self::Out);
    fn obj_finish(&mut self, obj: Self::Obj) -> Self::Out;
    fn arr_new(&mut self) -> Self::Arr;
    fn arr_push(&mut self, arr: &mut Self::Arr, item: Self::Out);
    fn arr_finish(&mut self, arr: Self::Arr) -> Self::Out;
}

/// Builds [`Json`] trees, interning keys into the process-default arena.
struct JsonSink {
    names: NameMemo<'static>,
}

impl JsonSink {
    fn new() -> JsonSink {
        JsonSink {
            names: NameMemo::new(Interner::global()),
        }
    }
}

impl Sink for JsonSink {
    type Out = Json;
    type Key = Name;
    type Obj = Vec<(Name, Json)>;
    type Arr = Vec<Json>;

    fn int(&mut self, i: i64) -> Json {
        Json::Int(i)
    }
    fn float(&mut self, span: &str) -> Option<Json> {
        span.parse().ok().map(Json::Float)
    }
    fn boolean(&mut self, b: bool) -> Json {
        Json::Bool(b)
    }
    fn null(&mut self) -> Json {
        Json::Null
    }
    fn string(&mut self, s: &str) -> Json {
        Json::String(s.to_owned())
    }
    fn obj_new(&mut self) -> Self::Obj {
        Vec::new()
    }
    fn key(&mut self, key: &str) -> Name {
        self.names.intern(key)
    }
    fn obj_push(&mut self, obj: &mut Self::Obj, key: Name, value: Json) {
        obj.push((key, value));
    }
    fn obj_finish(&mut self, obj: Self::Obj) -> Json {
        Json::Object(obj)
    }
    fn arr_new(&mut self) -> Self::Arr {
        Vec::new()
    }
    fn arr_push(&mut self, arr: &mut Self::Arr, item: Json) {
        arr.push(item);
    }
    fn arr_finish(&mut self, arr: Self::Arr) -> Json {
        Json::Array(arr)
    }
}

/// Builds universal [`Value`]s. Keys intern through a memo into the
/// arena (the process-default arena for the legacy entry points, a
/// corpus arena for the `_in` variants), so repeated keys take no lock.
struct ValueSink<'i> {
    names: NameMemo<'i>,
    body: Name,
}

impl<'i> ValueSink<'i> {
    fn new(interner: &'i Interner) -> ValueSink<'i> {
        ValueSink {
            names: NameMemo::new(interner),
            body: body_name(),
        }
    }
}

impl Sink for ValueSink<'_> {
    type Out = Value;
    type Key = Name;
    type Obj = Vec<Field>;
    type Arr = Vec<Value>;

    fn int(&mut self, i: i64) -> Value {
        Value::Int(i)
    }
    fn float(&mut self, span: &str) -> Option<Value> {
        span.parse().ok().map(Value::Float)
    }
    fn boolean(&mut self, b: bool) -> Value {
        Value::Bool(b)
    }
    fn null(&mut self) -> Value {
        Value::Null
    }
    fn string(&mut self, s: &str) -> Value {
        Value::Str(s.to_owned())
    }
    fn obj_new(&mut self) -> Self::Obj {
        Vec::new()
    }
    fn key(&mut self, key: &str) -> Name {
        self.names.intern(key)
    }
    fn obj_push(&mut self, obj: &mut Self::Obj, key: Name, value: Value) {
        obj.push(Field { name: key, value });
    }
    fn obj_finish(&mut self, obj: Self::Obj) -> Value {
        Value::Record {
            name: self.body,
            fields: obj,
        }
    }
    fn arr_new(&mut self) -> Self::Arr {
        Vec::new()
    }
    fn arr_push(&mut self, arr: &mut Self::Arr, item: Value) {
        arr.push(item);
    }
    fn arr_finish(&mut self, arr: Self::Arr) -> Value {
        Value::List(arr)
    }
}

/// Sends a document's events to a [`Visitor`] and builds nothing.
/// Objects are `•` records, as [`ValueSink`] names them; floats are never
/// converted. Once the visitor declines, the rest of the document is
/// only parsed, so its grammar is still checked to the end.
struct WalkSink<W> {
    walk: W,
    /// The visitor still wants events.
    open: bool,
}

impl<W: Visitor> WalkSink<W> {
    fn send(&mut self, event: impl FnOnce(&mut W) -> bool) {
        if self.open {
            self.open = event(&mut self.walk);
        }
    }
}

impl<W: Visitor> Sink for WalkSink<W> {
    type Out = ();
    type Key = ();
    type Obj = ();
    type Arr = ();

    fn int(&mut self, i: i64) {
        self.send(|w| w.leaf(Leaf::Int(i)));
    }
    fn float(&mut self, _span: &str) -> Option<()> {
        // The grammar `parse_number` checked is a subset of what
        // `f64::from_str` accepts, so every span converts.
        self.send(|w| w.leaf(Leaf::Float));
        Some(())
    }
    fn boolean(&mut self, _: bool) {
        self.send(|w| w.leaf(Leaf::Bool));
    }
    fn null(&mut self) {
        self.send(|w| w.leaf(Leaf::Null));
    }
    fn string(&mut self, s: &str) {
        self.send(|w| w.leaf(Leaf::Str(s)));
    }
    fn obj_new(&mut self) {
        self.send(|w| w.record_start(BODY_NAME));
    }
    fn key(&mut self, key: &str) {
        self.send(|w| w.key(key));
    }
    fn obj_push(&mut self, _: &mut (), _: (), _: ()) {}
    fn obj_finish(&mut self, _: ()) {
        self.send(Visitor::record_end);
    }
    fn arr_new(&mut self) {
        self.send(Visitor::list_start);
    }
    fn arr_push(&mut self, _: &mut (), _: ()) {}
    fn arr_finish(&mut self, _: ()) {
        self.send(Visitor::list_end);
    }
}

/// Where a parser stands, to return to.
#[derive(Clone, Copy)]
struct Mark {
    pos: usize,
    line: usize,
    line_start: usize,
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    /// Current byte offset.
    pos: usize,
    /// Current 1-based line.
    line: usize,
    /// Byte offset where the current line starts (columns are computed
    /// from it, in characters, only when an error is raised).
    line_start: usize,
    max_depth: usize,
    /// The decoded text of the last string literal that held an escape,
    /// reused from one such literal to the next.
    unescaped: String,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, max_depth: usize) -> Parser<'a> {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
            max_depth,
            unescaped: String::new(),
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
    /// itself. Offsets still count the mark's bytes; columns do not.
    fn skip_bom(mut self) -> Self {
        if self.input.starts_with('\u{feff}') {
            self.pos = '\u{feff}'.len_utf8();
            self.line_start = self.pos;
        }
        self
    }

    /// The source position of `offset`, with the column counted in
    /// *characters* since the start of the current line. Only called on
    /// error paths; the happy path never counts columns.
    fn pos_of(&self, offset: usize) -> Pos {
        Pos {
            offset,
            line: self.line,
            column: self.input[self.line_start..offset].chars().count() + 1,
        }
    }

    fn cur_pos(&self) -> Pos {
        self.pos_of(self.pos)
    }

    fn err(&self, kind: LexErrorKind, at: usize) -> ParseError {
        ParseError {
            kind: ParseErrorKind::Lex(kind),
            pos: self.pos_of(at),
        }
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.line_start = self.pos;
                }
                _ => break,
            }
        }
    }

    /// A short description of whatever starts at the current position,
    /// used in "found ..." error messages.
    fn describe_here(&self) -> String {
        match self.bytes.get(self.pos) {
            None => "end of input".to_owned(),
            Some(b'{') => "'{'".to_owned(),
            Some(b'}') => "'}'".to_owned(),
            Some(b'[') => "'['".to_owned(),
            Some(b']') => "']'".to_owned(),
            Some(b':') => "':'".to_owned(),
            Some(b',') => "','".to_owned(),
            Some(b'"') => "string".to_owned(),
            Some(b) if b.is_ascii_digit() || *b == b'-' => "number".to_owned(),
            Some(b't' | b'f') => "boolean".to_owned(),
            Some(b'n') => "'null'".to_owned(),
            Some(_) => {
                let c = self.input[self.pos..].chars().next().unwrap_or('?');
                format!("{c:?}")
            }
        }
    }

    fn unexpected<T>(&self, expected: &str) -> Result<T, ParseError> {
        // A stray character that cannot start any token is a lexical
        // error (matching the reference tokenizer); a well-formed token
        // in the wrong place is a grammatical one.
        match self.bytes.get(self.pos) {
            Some(b) if !b"{}[]:,\"-0123456789tfn".contains(b) => {
                let c = self.input[self.pos..].chars().next().unwrap_or('?');
                Err(self.err(LexErrorKind::UnexpectedChar(c), self.pos))
            }
            _ => Err(ParseError {
                kind: ParseErrorKind::Unexpected {
                    found: self.describe_here(),
                    expected: expected.to_owned(),
                },
                pos: self.cur_pos(),
            }),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.at_eof() {
            Ok(())
        } else {
            Err(ParseError {
                kind: ParseErrorKind::TrailingContent(self.describe_here()),
                pos: self.cur_pos(),
            })
        }
    }

    /// Parses one value; the caller must have skipped leading whitespace.
    fn parse_value<S: Sink>(&mut self, sink: &mut S, depth: usize) -> Result<S::Out, ParseError> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.parse_object(sink, depth),
            Some(b'[') => self.parse_array(sink, depth),
            Some(b'"') => {
                let s = self.parse_string()?;
                Ok(sink.string(s))
            }
            Some(b) if *b == b'-' || b.is_ascii_digit() => self.parse_number(sink),
            Some(b't') => {
                self.expect_keyword("true")?;
                Ok(sink.boolean(true))
            }
            Some(b'f') => {
                self.expect_keyword("false")?;
                Ok(sink.boolean(false))
            }
            Some(b'n') => {
                self.expect_keyword("null")?;
                Ok(sink.null())
            }
            _ => self.unexpected("a JSON value"),
        }
    }

    fn expect_keyword(&mut self, word: &'static str) -> Result<(), ParseError> {
        let end = self.pos + word.len();
        let matches = self.bytes.get(self.pos..end) == Some(word.as_bytes())
            && !matches!(self.bytes.get(end), Some(b) if b.is_ascii_alphabetic());
        if matches {
            self.pos = end;
            Ok(())
        } else {
            let c = self.input[self.pos..].chars().next().unwrap_or('?');
            Err(self.err(LexErrorKind::UnexpectedChar(c), self.pos))
        }
    }

    fn check_depth(&self, depth: usize) -> Result<(), ParseError> {
        if depth >= self.max_depth {
            Err(ParseError {
                kind: ParseErrorKind::TooDeep(self.max_depth),
                pos: self.cur_pos(),
            })
        } else {
            Ok(())
        }
    }

    fn parse_object<S: Sink>(&mut self, sink: &mut S, depth: usize) -> Result<S::Out, ParseError> {
        self.check_depth(depth)?;
        self.pos += 1; // '{'
        self.skip_ws();
        let mut obj = sink.obj_new();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(sink.obj_finish(obj));
        }
        loop {
            if self.bytes.get(self.pos) != Some(&b'"') {
                return self.unexpected("an object key (string)");
            }
            // The sink takes the key straight from the (usually borrowed)
            // slice, before the value: no String materializes for
            // escape-free keys.
            let key = self.parse_string()?;
            let key = sink.key(key);
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return self.unexpected("':'");
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.parse_value(sink, depth + 1)?;
            sink.obj_push(&mut obj, key, value);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(sink.obj_finish(obj));
                }
                _ => return self.unexpected("',' or '}'"),
            }
        }
    }

    fn parse_array<S: Sink>(&mut self, sink: &mut S, depth: usize) -> Result<S::Out, ParseError> {
        self.check_depth(depth)?;
        self.pos += 1; // '['
        self.skip_ws();
        let mut items = sink.arr_new();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(sink.arr_finish(items));
        }
        loop {
            let item = self.parse_value(sink, depth + 1)?;
            sink.arr_push(&mut items, item);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(sink.arr_finish(items));
                }
                _ => return self.unexpected("',' or ']'"),
            }
        }
    }

    /// Parses a string literal. Escape-free contents — the common case —
    /// are returned as a borrowed slice of the input; only strings with
    /// escapes are decoded, into the parser's reused buffer.
    fn parse_string(&mut self) -> Result<&str, ParseError> {
        let quote = self.pos;
        self.pos += 1; // opening '"'
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err(LexErrorKind::UnterminatedString, quote)),
                Some(b'"') => {
                    let s = &self.input[start..self.pos];
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    // Escape found: switch to the decoding slow path,
                    // seeded with everything scanned so far.
                    let mut out = std::mem::take(&mut self.unescaped);
                    out.clear();
                    out.push_str(&self.input[start..self.pos]);
                    self.unescaped = self.parse_string_escaped(quote, out)?;
                    return Ok(&self.unescaped);
                }
                Some(&b) if b < 0x20 => {
                    return Err(self.err(LexErrorKind::ControlCharInString(b as char), quote));
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Continues a string literal from its first escape, decoding into
    /// `out`.
    fn parse_string_escaped(
        &mut self,
        quote: usize,
        mut out: String,
    ) -> Result<String, ParseError> {
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err(LexErrorKind::UnterminatedString, quote)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.pos;
                    self.pos += 1;
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return Err(self.err(LexErrorKind::UnterminatedString, quote));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.parse_unicode_escape(esc)?),
                        other => {
                            return Err(
                                self.err(LexErrorKind::BadEscape((other as char).to_string()), esc)
                            );
                        }
                    }
                }
                Some(&b) if b < 0x20 => {
                    return Err(self.err(LexErrorKind::ControlCharInString(b as char), quote));
                }
                Some(_) => {
                    // Copy a maximal escape-free run in one push.
                    let run_start = self.pos;
                    while matches!(
                        self.bytes.get(self.pos),
                        Some(&b) if b != b'"' && b != b'\\' && b >= 0x20
                    ) {
                        self.pos += 1;
                    }
                    out.push_str(&self.input[run_start..self.pos]);
                }
            }
        }
    }

    /// Parses the `XXXX` of a `\uXXXX` escape (after `\u` is consumed),
    /// combining surrogate pairs.
    fn parse_unicode_escape(&mut self, esc: usize) -> Result<char, ParseError> {
        let hi = self.parse_hex4(esc)?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: must be followed by a \uXXXX low surrogate.
            if self.bytes.get(self.pos) != Some(&b'\\')
                || self.bytes.get(self.pos + 1) != Some(&b'u')
            {
                return Err(self.err(LexErrorKind::BadUnicodeEscape, esc));
            }
            self.pos += 2;
            let lo = self.parse_hex4(esc)?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err(LexErrorKind::BadUnicodeEscape, esc));
            }
            let cp = 0x10000 + ((u32::from(hi) - 0xD800) << 10) + (u32::from(lo) - 0xDC00);
            char::from_u32(cp).ok_or_else(|| self.err(LexErrorKind::BadUnicodeEscape, esc))
        } else if (0xDC00..0xE000).contains(&hi) {
            Err(self.err(LexErrorKind::BadUnicodeEscape, esc))
        } else {
            char::from_u32(u32::from(hi))
                .ok_or_else(|| self.err(LexErrorKind::BadUnicodeEscape, esc))
        }
    }

    fn parse_hex4(&mut self, esc: usize) -> Result<u16, ParseError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err(LexErrorKind::BadUnicodeEscape, esc));
            };
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err(LexErrorKind::BadUnicodeEscape, esc))?;
            v = (v << 4) | d as u16;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Parses a number straight from the input span: one scan validates
    /// the RFC 8259 grammar, then integers take a no-allocation
    /// accumulation fast path and everything else (and out-of-range
    /// integers) parses as `f64` from the borrowed span.
    fn parse_number<S: Sink>(&mut self, sink: &mut S) -> Result<S::Out, ParseError> {
        let start = self.pos;
        let negative = self.bytes.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.bytes.get(self.pos) {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.bytes.get(self.pos), Some(b) if b.is_ascii_digit()) {
                    self.pos += 1;
                    return Err(self.bad_number(start));
                }
            }
            Some(b) if b.is_ascii_digit() => {
                while matches!(self.bytes.get(self.pos), Some(b) if b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.bad_number(start)),
        }
        let int_end = self.pos;
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.bytes.get(self.pos), Some(b) if b.is_ascii_digit()) {
                return Err(self.bad_number(start));
            }
            while matches!(self.bytes.get(self.pos), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.bytes.get(self.pos), Some(b) if b.is_ascii_digit()) {
                return Err(self.bad_number(start));
            }
            while matches!(self.bytes.get(self.pos), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }

        if !is_float {
            // Fast path: ≤18 digits always fit an i64; accumulate
            // directly from the bytes with no intermediate text.
            let digits = &self.bytes[int_start..int_end];
            if digits.len() <= 18 {
                let mut v: i64 = 0;
                for &d in digits {
                    v = v * 10 + i64::from(d - b'0');
                }
                return Ok(sink.int(if negative { -v } else { v }));
            }
            if let Ok(i) = self.input[start..self.pos].parse::<i64>() {
                return Ok(sink.int(i));
            }
            // Out-of-range integers degrade to floats (JSON allows
            // arbitrary precision; we keep the value approximately).
        }
        sink.float(&self.input[start..self.pos])
            .ok_or_else(|| self.bad_number(start))
    }

    fn bad_number(&self, start: usize) -> ParseError {
        let end = (self.pos + 1).min(self.input.len());
        // Snap to a character boundary for the error payload.
        let end = (end..=self.input.len())
            .find(|&i| self.input.is_char_boundary(i))
            .unwrap_or(self.input.len());
        self.err(
            LexErrorKind::BadNumber(self.input[start..end].trim_end().to_owned()),
            start,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_primitives() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("3.5").unwrap(), Json::Float(3.5));
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(r#""hi""#).unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn parses_empty_containers() {
        assert_eq!(parse("{}").unwrap(), Json::Object(vec![]));
        assert_eq!(parse("[]").unwrap(), Json::Array(vec![]));
    }

    #[test]
    fn parses_nested_document() {
        let doc = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(
            doc,
            Json::Object(vec![
                (
                    "a".into(),
                    Json::Array(vec![
                        Json::Int(1),
                        Json::Object(vec![("b".into(), Json::Null)])
                    ])
                ),
                ("c".into(), Json::String("x".into())),
            ])
        );
    }

    #[test]
    fn preserves_key_order_and_duplicates() {
        let doc = parse(r#"{"b":1,"a":2,"b":3}"#).unwrap();
        match doc {
            Json::Object(m) => {
                assert_eq!(m.len(), 3);
                assert_eq!(m[0].0, "b");
                assert_eq!(m[2], ("b".into(), Json::Int(3)));
            }
            _ => panic!("expected object"),
        }
    }

    #[test]
    fn whitespace_everywhere() {
        let doc = parse(" \t\n{ \"a\" :\r\n [ 1 , 2 ] } \n").unwrap();
        assert_eq!(
            doc,
            Json::Object(vec![(
                "a".into(),
                Json::Array(vec![Json::Int(1), Json::Int(2)])
            )])
        );
    }

    #[test]
    fn escape_sequences_decode() {
        assert_eq!(
            parse(r#""a\"b\\c\/d\be\ff\ng\rh\ti""#).unwrap(),
            Json::String("a\"b\\c/d\u{8}e\u{c}f\ng\rh\ti".into())
        );
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::String("A".into()));
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Json::String("\u{e9}".into()));
        assert_eq!(
            parse("\"\\uD83D\\uDE00\"").unwrap(),
            Json::String("\u{1F600}".into())
        );
        // Escapes mid-string keep both the prefix and the tail:
        assert_eq!(
            parse(r#""pre\nmid\tpost""#).unwrap(),
            Json::String("pre\nmid\tpost".into())
        );
    }

    #[test]
    fn raw_non_ascii_passes_through() {
        assert_eq!(parse("\"čaj 😀\"").unwrap(), Json::String("čaj 😀".into()));
    }

    #[test]
    fn string_errors_are_lexical() {
        assert!(matches!(
            parse(r#""abc"#).unwrap_err().kind,
            ParseErrorKind::Lex(LexErrorKind::UnterminatedString)
        ));
        assert!(matches!(
            parse("\"a\nb\"").unwrap_err().kind,
            ParseErrorKind::Lex(LexErrorKind::ControlCharInString('\n'))
        ));
        assert!(matches!(
            parse(r#""\q""#).unwrap_err().kind,
            ParseErrorKind::Lex(LexErrorKind::BadEscape(_))
        ));
        assert!(parse(r#""\uD83D""#).is_err());
        assert!(parse(r#""\uDE00""#).is_err());
        assert!(parse(r#""\uD83Dx""#).is_err());
        assert!(parse(r#""\u00g1""#).is_err());
        assert!(parse(r#""\u12""#).is_err());
    }

    #[test]
    fn number_grammar_enforced() {
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("0").unwrap(), Json::Int(0));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("1E+2").unwrap(), Json::Float(100.0));
        assert_eq!(parse("-2.5e-1").unwrap(), Json::Float(-0.25));
        for bad in ["01", "-", "1.", "1.e3", "1e", "1e+"] {
            assert!(
                matches!(
                    parse(bad).unwrap_err().kind,
                    ParseErrorKind::Lex(LexErrorKind::BadNumber(_))
                ),
                "{bad} should be a bad number"
            );
        }
    }

    #[test]
    fn huge_integer_degrades_to_float() {
        match parse("123456789012345678901234567890").unwrap() {
            Json::Float(f) => assert!(f > 1e29),
            t => panic!("expected float, got {t:?}"),
        }
        // 19 digits that still fit i64 stay exact:
        assert_eq!(parse("9223372036854775807").unwrap(), Json::Int(i64::MAX));
        assert_eq!(parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
    }

    #[test]
    fn rejects_trailing_content() {
        let err = parse("1 2").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::TrailingContent(_)));
    }

    #[test]
    fn rejects_trailing_comma_in_array() {
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn rejects_trailing_comma_in_object() {
        assert!(parse(r#"{"a":1,}"#).is_err());
    }

    #[test]
    fn rejects_missing_colon() {
        let err = parse(r#"{"a" 1}"#).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Unexpected { .. }));
    }

    #[test]
    fn rejects_nonstring_keys() {
        assert!(parse("{1: 2}").is_err());
    }

    #[test]
    fn rejects_bare_comma() {
        assert!(parse(",").is_err());
        assert!(parse("[,]").is_err());
    }

    #[test]
    fn rejects_unclosed_containers() {
        assert!(parse("[1, 2").is_err());
        assert!(parse(r#"{"a": 1"#).is_err());
    }

    #[test]
    fn rejects_bad_keywords() {
        assert!(parse("nul").is_err());
        assert!(parse("True").is_err());
        assert!(parse("truex").is_err());
    }

    #[test]
    fn error_position_is_precise() {
        let err = parse("{\n  \"a\": @\n}").unwrap_err();
        assert_eq!(err.pos.line, 2);
        assert_eq!(err.pos.column, 8);
    }

    #[test]
    fn error_column_counts_characters_not_bytes() {
        // "čaj" is 3 characters but 4 bytes: the error column after it
        // must count characters, exactly as an editor displays them.
        let err = parse("{ \"čaj\": @ }").unwrap_err();
        assert_eq!(err.pos.line, 1);
        assert_eq!(err.pos.column, 10, "column must be in characters");
        // On a later line only the current line's characters count:
        let err = parse("{\n  \"日本語キー\": @\n}").unwrap_err();
        assert_eq!(err.pos.line, 2);
        assert_eq!(err.pos.column, 12);
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = parse(&deep).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::TooDeep(128)));
        // And a custom limit: max_depth counts nested containers, so four
        // nested arrays are allowed and five are not.
        let opts = ParserOptions { max_depth: 4 };
        assert!(parse_with("[[[[[1]]]]]", &opts).is_err());
        assert!(parse_with("[[[[1]]]]", &opts).is_ok());
    }

    #[test]
    fn parse_many_reads_json_lines() {
        let docs = parse_many("{\"a\":1}\n[2]\n\"x\"").unwrap();
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[1], Json::Array(vec![Json::Int(2)]));
    }

    #[test]
    fn parse_many_empty_input() {
        assert_eq!(parse_many("  \n ").unwrap(), vec![]);
    }

    #[test]
    fn parse_many_propagates_errors() {
        assert!(parse_many("{\"a\":1}\n[2,]").is_err());
    }

    #[test]
    fn error_display_mentions_position() {
        let err = parse("[1, @]").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "got: {msg}");
    }

    #[test]
    fn parse_value_goes_straight_to_records() {
        let v = parse_value(r#"{ "name": "Jan", "age": 25 }"#).unwrap();
        assert_eq!(v.record_name(), Some(tfd_value::BODY_NAME));
        assert_eq!(v.field("name"), Some(&Value::str("Jan")));
        assert_eq!(v.field("age"), Some(&Value::Int(25)));
    }

    #[test]
    fn parse_value_agrees_with_parse_to_value() {
        let docs = [
            r#"{"a": [1, 2.5, null, {"b": true}], "c": "x"}"#,
            r#"[ { "name":"Jan", "age":25 }, { "name":"Tomas" } ]"#,
            "[]",
            "{}",
            r#""just a string""#,
            "-17",
            r#"{"esc": "a\nb\u0041"}"#,
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
    fn parse_value_depth_limit() {
        let opts = ParserOptions { max_depth: 4 };
        assert!(parse_value_with("[[[[[1]]]]]", &opts).is_err());
        assert!(parse_value_with("[[[[1]]]]", &opts).is_ok());
    }

    #[test]
    fn paper_people_sample_parses() {
        // The §2.1 sample document.
        let doc = parse(
            r#"[ { "name":"Jan", "age":25 },
                { "name":"Tomas" },
                { "name":"Alexander", "age":3.5 } ]"#,
        )
        .unwrap();
        let items = doc.items().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].get("age"), Some(&Json::Int(25)));
        assert_eq!(items[1].get("age"), None);
        assert_eq!(items[2].get("age"), Some(&Json::Float(3.5)));
    }

    #[test]
    fn paper_worldbank_sample_parses() {
        // The §2.3 sample document.
        let doc = parse(
            r#"[ { "pages": 5 },
                [ { "indicator": "GC.DOD.TOTL.GD.ZS",
                    "date": "2012", "value": null },
                  { "indicator": "GC.DOD.TOTL.GD.ZS",
                    "date": "2010", "value": "35.14229" } ] ]"#,
        )
        .unwrap();
        let items = doc.items().unwrap();
        assert_eq!(items.len(), 2);
        assert!(matches!(items[0], Json::Object(_)));
        assert!(matches!(items[1], Json::Array(_)));
    }
}
