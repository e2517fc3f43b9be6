//! The format-generic ingest pipeline: one driver, [`run`], for every
//! source, job count and recovery policy.
//!
//! The paper's multi-sample inference is a semilattice fold (Fig. 3:
//! `σi = csh(σi−1, S(di))`), which makes corpus inference associative
//! and commutative — so how records arrive does not matter, only their
//! document order. [`run`] is that fold over any [`Source`], driven by
//! one [`IngestConfig`] value:
//!
//! 1. **boundary scan** — the format's [resumable boundary scanner]
//!    finds record ends in `chunk_size` windows (read from a [`Read`],
//!    or lent zero-copy from in-memory bytes); JSON container records
//!    are found 64 bytes at a time by the structural-block walk of
//!    [`tfd_value::scan::json_blocks`], everything else by the format's
//!    per-byte state machine. The first record is the format prologue
//!    (the CSV header row) that every bundle is seeded with;
//! 2. **whole-record bundles** — everything up to the last boundary of a
//!    window becomes one bundle, so a bundle never splits a record;
//! 3. **one-shot parse straight into σ, resumed past bad records** —
//!    the format's multi-record parser ([`DataFormat::parse_bundle`])
//!    parses the bundle whole, folding each record into the bundle's
//!    [`InferAccumulator`] as soon as it is parsed. Every front-end
//!    walks a record after a covered one straight against σ — a JSON
//!    document, an XML document's §6.2 encoding, a CSV row's cells — so
//!    a record σ already covers is counted without being built (see
//!    [`crate::stream`]); a record the walk declines is built and
//!    pushed. When the parse fails, what
//!    it folded stays folded: it reports the boundary it got to, one
//!    short boundary scan from there finds the end of the failing
//!    record, that record alone is re-parsed (where the
//!    record-size cap, the UTF-8 check and its error position apply),
//!    and the whole parse resumes after it. A bundle that holds invalid
//!    UTF-8 or could hold an over-sized record is scanned once for the
//!    records at fault, and the stretches between them parse whole. A
//!    bad record thus costs its own re-parse plus one short scan, not
//!    its bundle's;
//! 4. **document-order join** — the per-bundle shapes join with [`csh`]
//!    in document order, which reproduces the sequential fold byte for
//!    byte (`tests/parallel_agreement.rs`).
//!
//! `jobs = 1` runs all of this inline on the calling thread; `jobs > 1`
//! hands bundles to parser workers through a byte-budgeted work queue
//! while the calling thread reads and scans. Fail-fast is the Skip-mode path with
//! an error budget of 0, mapped back to the raw error. Stream-global
//! error positions ([`TextPos`]) are derived only when an error
//! surfaces: an in-memory source re-walks its bytes up to the failing
//! bundle, and a reader's workers settle each bundle's span (a
//! vectorized newline count) because its bytes do not outlive the
//! bundle.
//!
//! [resumable boundary scanner]: tfd_json::stream::BoundaryScanner

pub use crate::corpus::{infer_files_parallel, infer_sources_parallel, CorpusSource, FileSummary};
use crate::csh::csh;
use crate::infer::InferOptions;
use crate::recover::{ErrorReport, Recovered, RecoveryMode, RecoveryPolicy, PARSER_STACK_BYTES};
use crate::stream::{InferAccumulator, StreamError, StreamFormat, StreamSummary};
use crate::Shape;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use tfd_value::visit::RecordFold;
use tfd_value::{Interner, Name, Value};

// --- Dynamic dispatch: one place that maps a runtime `StreamFormat` to
// --- the static witnesses. ---

/// Dispatches `$body` with `$F` bound to the witness for `$fmt`.
macro_rules! with_format {
    ($fmt:expr, $F:ident => $body:expr) => {
        match $fmt {
            StreamFormat::Json => {
                type $F = JsonFormat;
                $body
            }
            StreamFormat::Xml => {
                type $F = XmlFormat;
                $body
            }
            StreamFormat::Csv => {
                type $F = CsvFormat;
                $body
            }
        }
    };
}

/// A position in a byte stream, carried across bundle boundaries so
/// record-local error positions can be lifted into the stream-global
/// frame. Which fields matter depends on the format (JSON reports
/// offset/line/char-column, XML line/char-column, CSV line only);
/// [`DataFormat::advance_pos`] keeps all of them current under the
/// format's own line-ending rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextPos {
    /// 0-based byte offset.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
    /// 1-based character column on the current line.
    pub column: usize,
    /// Whether the previous byte was `\r` (CRLF pairs count one line in
    /// the XML/CSV rules).
    pub prev_cr: bool,
}

impl TextPos {
    /// The start of a stream.
    pub fn start() -> TextPos {
        TextPos {
            offset: 0,
            line: 1,
            column: 1,
            prev_cr: false,
        }
    }

    /// The position reached by advancing from `self` over a stretch
    /// whose own span (advanced from [`TextPos::start`]) is `span`.
    pub fn then(self, span: &TextPos) -> TextPos {
        let (line, column) = compose_line_col(&self, span.line, span.column);
        TextPos {
            offset: self.offset + span.offset,
            line,
            column,
            prev_cr: if span.offset > 0 {
                span.prev_cr
            } else {
                self.prev_cr
            },
        }
    }
}

impl Default for TextPos {
    fn default() -> Self {
        TextPos::start()
    }
}

/// One front-end, as the ingest pipeline sees it: the one-shot parsers,
/// the scan-only boundary finder, the prologue, and the position
/// arithmetic that makes bundling transparent.
///
/// The trait is implemented by three zero-sized witnesses —
/// [`JsonFormat`], [`XmlFormat`], [`CsvFormat`] — and everything
/// downstream of the front-ends dispatches through it instead of
/// hand-copied per-format match arms. All implementations use the
/// format's default parser options (the ones the one-shot `parse_value`
/// entry points use).
pub trait DataFormat {
    /// The front-end's parse error.
    type Error: std::error::Error + Clone + Send + 'static;
    /// The scan-only record-boundary finder.
    type Boundaries: Send;
    /// Per-corpus parse context extracted by [`DataFormat::prologue`]
    /// and seeded into every bundle parse (the CSV header names; `()`
    /// for the self-describing formats).
    type Context: Clone + Default + Send + Sync;

    /// Format name for diagnostics (`"json"`, `"xml"`, `"csv"`).
    const NAME: &'static str;

    /// The inference preset this format's values are folded with.
    fn infer_options() -> InferOptions;

    /// One-shot parse of a single document to the universal value,
    /// interning names into `interner`.
    fn parse_value(text: &str, interner: &Interner) -> Result<Value, Self::Error>;

    /// One-shot parse of a whole multi-record corpus, one value per
    /// record (documents for JSON/XML, data rows for CSV), interning
    /// names into `interner`.
    fn parse_many_values(text: &str, interner: &Interner) -> Result<Vec<Value>, Self::Error>;

    /// Parses a bundle of whole records — a stretch between two
    /// boundaries of [`DataFormat::scan`], past the prologue — seeded
    /// with the prologue context and nesting at most `max_depth` deep
    /// when set, folding each record into `fold` — the bundle's
    /// [`InferAccumulator`] — as soon as it is parsed. Every format
    /// parses a record straight into the fold's [walk](RecordFold::walk)
    /// when it offers one, so a record σ already covers is counted
    /// without being built; every other record is built and
    /// [pushed](RecordFold::push).
    /// Error positions are local to `text`.
    ///
    /// # Errors
    ///
    /// The first malformed record in `text`, paired with the offset just
    /// past the last record folded into `fold` (0 when none was). That
    /// offset is a [`DataFormat::scan`] boundary of `text` (for CSV,
    /// past the row's line terminator), so the run can settle the
    /// failing record on its own and resume whole-parsing after it.
    fn parse_bundle(
        text: &str,
        ctx: &Self::Context,
        max_depth: Option<usize>,
        interner: &Interner,
        fold: &mut impl RecordFold,
    ) -> Result<(), (usize, Self::Error)>;

    /// A fresh boundary scanner.
    fn boundaries() -> Self::Boundaries;

    /// Feeds a chunk through the boundary scanner; `boundary` receives
    /// the chunk-relative offset just past each completed record — a
    /// position where a fresh parser sees exactly the remaining record
    /// sequence, and a fresh scanner finds exactly the remaining
    /// boundaries.
    fn scan(scanner: &mut Self::Boundaries, chunk: &[u8], boundary: &mut dyn FnMut(usize));

    /// Whether a bare `\r` (and a CRLF pair, once) ends a line; JSON
    /// counts only `\n`.
    const CR_ENDS_LINE: bool;

    /// Consumes the format prologue from the corpus's first complete
    /// record (`first_record` is the bytes up to the first boundary, or
    /// the whole corpus when it has none). CSV parses its header row
    /// here — interning the column names into `interner` — while the
    /// self-describing formats consume nothing. Returns the consumed
    /// byte count and the context every bundle is seeded with.
    ///
    /// # Errors
    ///
    /// A malformed prologue (e.g. a CSV header quoting error), with
    /// positions local to `first_record`.
    fn prologue(
        _first_record: &[u8],
        _interner: &Interner,
    ) -> Result<(usize, Self::Context), Self::Error> {
        Ok((0, Self::Context::default()))
    }

    /// Lifts the record-stream fold's shape to the one-shot corpus
    /// shape (CSV folds rows and re-wraps them as a collection; the
    /// record-per-document formats are the identity).
    fn wrap_corpus_shape(shape: Shape) -> Shape {
        shape
    }

    /// The `[start, end)` range of a record's own bytes within `slice`,
    /// one boundary-to-boundary stretch: JSON and XML records start after
    /// the whitespace separating them, CSV records end before their line
    /// ending. The record-size cap measures this range, and a
    /// [`record_too_large`](DataFormat::record_too_large) error sits at
    /// its start.
    fn record_extent(slice: &[u8]) -> (usize, usize) {
        let start = slice
            .iter()
            .position(|b| !matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
            .unwrap_or(slice.len());
        (start, slice.len())
    }

    /// Advances `pos` over `bytes` under this format's line-ending rule
    /// ([`DataFormat::CR_ENDS_LINE`]); columns count characters, so
    /// UTF-8 continuation bytes extend the previous one.
    fn advance_pos(pos: &mut TextPos, bytes: &[u8]) {
        pos.offset += bytes.len();
        if !Self::CR_ENDS_LINE || !bytes.contains(&b'\r') {
            // Only `\n` ends a line here — the overwhelming case.
            let tail = match bytes.iter().rposition(|&b| b == b'\n') {
                Some(last) => {
                    pos.line += bytes.iter().filter(|&&b| b == b'\n').count();
                    pos.column = 1;
                    &bytes[last + 1..]
                }
                None => bytes,
            };
            pos.column += if tail.is_ascii() {
                tail.len()
            } else {
                tail.iter().filter(|&&b| b & 0xC0 != 0x80).count()
            };
            if !bytes.is_empty() {
                pos.prev_cr = false;
            }
            return;
        }
        for &b in bytes {
            if b == b'\r' || (b == b'\n' && !pos.prev_cr) {
                pos.line += 1;
            }
            if b == b'\r' || b == b'\n' {
                pos.column = 1;
            } else {
                pos.column += usize::from(b & 0xC0 != 0x80);
            }
            pos.prev_cr = b == b'\r';
        }
    }

    /// Translates an error's local position into the stream-global
    /// frame, given the position where its text starts.
    fn shift_error(e: Self::Error, start: &TextPos) -> Self::Error;

    /// Wraps the format error into the format-erased [`StreamError`].
    fn wrap_error(e: Self::Error) -> StreamError;

    /// This format's record-size-cap error, at `pos`.
    fn record_too_large(limit: usize, pos: &TextPos) -> Self::Error;

    /// This format's invalid-UTF-8 error, at `pos` (the first invalid
    /// byte).
    fn invalid_utf8(pos: &TextPos) -> Self::Error;
}

/// Composes a local (line, column) into the frame of `start`: positions
/// on the first local line continue `start`'s column; later lines stand
/// on their own.
fn compose_line_col(start: &TextPos, line: usize, column: usize) -> (usize, usize) {
    (
        start.line + line - 1,
        if line == 1 {
            start.column + column - 1
        } else {
            column
        },
    )
}

/// The JSON front-end witness.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonFormat;

impl DataFormat for JsonFormat {
    type Error = tfd_json::ParseError;
    type Boundaries = tfd_json::stream::BoundaryScanner;
    type Context = ();

    const NAME: &'static str = "json";
    const CR_ENDS_LINE: bool = false;

    fn infer_options() -> InferOptions {
        InferOptions::json()
    }

    fn parse_value(text: &str, interner: &Interner) -> Result<Value, Self::Error> {
        tfd_json::parse_value_in(text, &tfd_json::ParserOptions::default(), interner)
    }

    fn parse_many_values(text: &str, interner: &Interner) -> Result<Vec<Value>, Self::Error> {
        tfd_json::parse_many_values_in(text, &tfd_json::ParserOptions::default(), interner)
    }

    fn parse_bundle(
        text: &str,
        _ctx: &(),
        max_depth: Option<usize>,
        interner: &Interner,
        fold: &mut impl RecordFold,
    ) -> Result<(), (usize, Self::Error)> {
        let mut opts = tfd_json::ParserOptions::default();
        if let Some(depth) = max_depth {
            opts.max_depth = depth;
        }
        tfd_json::parse_many_values_each(text, &opts, interner, fold)
    }

    fn boundaries() -> Self::Boundaries {
        tfd_json::stream::BoundaryScanner::new()
    }

    fn scan(scanner: &mut Self::Boundaries, chunk: &[u8], boundary: &mut dyn FnMut(usize)) {
        scanner.feed(chunk, &mut |off| boundary(off));
    }

    fn shift_error(e: Self::Error, start: &TextPos) -> Self::Error {
        let (line, column) = compose_line_col(start, e.pos.line, e.pos.column);
        tfd_json::ParseError {
            kind: e.kind,
            pos: tfd_json::Pos {
                offset: start.offset + e.pos.offset,
                line,
                column,
            },
        }
    }

    fn wrap_error(e: Self::Error) -> StreamError {
        StreamError::Json(e)
    }

    fn record_too_large(limit: usize, pos: &TextPos) -> Self::Error {
        json_error(tfd_json::ParseErrorKind::RecordTooLarge(limit), pos)
    }

    fn invalid_utf8(pos: &TextPos) -> Self::Error {
        json_error(tfd_json::ParseErrorKind::InvalidUtf8, pos)
    }
}

fn json_error(kind: tfd_json::ParseErrorKind, pos: &TextPos) -> tfd_json::ParseError {
    tfd_json::ParseError {
        kind,
        pos: tfd_json::Pos {
            offset: pos.offset,
            line: pos.line,
            column: pos.column,
        },
    }
}

/// The XML front-end witness.
#[derive(Debug, Clone, Copy, Default)]
pub struct XmlFormat;

impl DataFormat for XmlFormat {
    type Error = tfd_xml::XmlError;
    type Boundaries = tfd_xml::stream::BoundaryScanner;
    type Context = ();

    const NAME: &'static str = "xml";
    const CR_ENDS_LINE: bool = true;

    fn infer_options() -> InferOptions {
        InferOptions::xml()
    }

    fn parse_value(text: &str, interner: &Interner) -> Result<Value, Self::Error> {
        tfd_xml::parse_value_in(
            text,
            &tfd_xml::XmlOptions::default(),
            &tfd_xml::EncodeOptions::default(),
            interner,
        )
    }

    fn parse_many_values(text: &str, interner: &Interner) -> Result<Vec<Value>, Self::Error> {
        tfd_xml::parse_many_values_in(
            text,
            &tfd_xml::XmlOptions::default(),
            &tfd_xml::EncodeOptions::default(),
            interner,
        )
    }

    fn parse_bundle(
        text: &str,
        _ctx: &(),
        max_depth: Option<usize>,
        interner: &Interner,
        fold: &mut impl RecordFold,
    ) -> Result<(), (usize, Self::Error)> {
        let mut opts = tfd_xml::XmlOptions::default();
        if let Some(depth) = max_depth {
            opts.max_depth = depth;
        }
        tfd_xml::parse_many_values_each(
            text,
            &opts,
            &tfd_xml::EncodeOptions::default(),
            interner,
            fold,
        )
    }

    fn boundaries() -> Self::Boundaries {
        tfd_xml::stream::BoundaryScanner::new()
    }

    fn scan(scanner: &mut Self::Boundaries, chunk: &[u8], boundary: &mut dyn FnMut(usize)) {
        scanner.feed(chunk, &mut |off| boundary(off));
    }

    fn shift_error(e: Self::Error, start: &TextPos) -> Self::Error {
        let (line, column) = compose_line_col(start, e.line, e.column);
        tfd_xml::XmlError {
            kind: e.kind,
            line,
            column,
        }
    }

    fn wrap_error(e: Self::Error) -> StreamError {
        StreamError::Xml(e)
    }

    fn record_too_large(limit: usize, pos: &TextPos) -> Self::Error {
        tfd_xml::XmlError {
            kind: tfd_xml::XmlErrorKind::RecordTooLarge(limit),
            line: pos.line,
            column: pos.column,
        }
    }

    fn invalid_utf8(pos: &TextPos) -> Self::Error {
        tfd_xml::XmlError {
            kind: tfd_xml::XmlErrorKind::InvalidUtf8,
            line: pos.line,
            column: pos.column,
        }
    }
}

/// The CSV front-end witness.
#[derive(Debug, Clone, Copy, Default)]
pub struct CsvFormat;

impl DataFormat for CsvFormat {
    type Error = tfd_csv::CsvError;
    type Boundaries = tfd_csv::stream::BoundaryScanner;
    /// The header row's interned column names.
    type Context = Arc<Vec<Name>>;

    const NAME: &'static str = "csv";
    const CR_ENDS_LINE: bool = true;

    fn infer_options() -> InferOptions {
        InferOptions::csv()
    }

    fn parse_value(text: &str, interner: &Interner) -> Result<Value, Self::Error> {
        tfd_csv::parse_value_in(
            text,
            &tfd_csv::CsvOptions::default(),
            csv_literals(),
            interner,
        )
    }

    fn parse_many_values(text: &str, interner: &Interner) -> Result<Vec<Value>, Self::Error> {
        match Self::parse_value(text, interner)? {
            Value::List(rows) => Ok(rows),
            other => unreachable!("the CSV front-end yields a row list, got {other}"),
        }
    }

    fn parse_bundle(
        text: &str,
        ctx: &Self::Context,
        _max_depth: Option<usize>,
        _interner: &Interner,
        fold: &mut impl RecordFold,
    ) -> Result<(), (usize, Self::Error)> {
        tfd_csv::parse_rows_in(
            text,
            &tfd_csv::CsvOptions::default(),
            csv_literals(),
            ctx,
            fold,
        )
    }

    fn boundaries() -> Self::Boundaries {
        tfd_csv::stream::BoundaryScanner::new()
    }

    fn scan(scanner: &mut Self::Boundaries, chunk: &[u8], boundary: &mut dyn FnMut(usize)) {
        scanner.feed(chunk, &mut |off| boundary(off));
    }

    /// The CSV prologue is the header row: it is parsed once here (with
    /// the one-shot splitter, so trimming and interning behave as in
    /// [`tfd_csv::parse_value`]) and its names seed every bundle parse.
    fn prologue(
        first_record: &[u8],
        interner: &Interner,
    ) -> Result<(usize, Self::Context), Self::Error> {
        let text = utf8::<Self>(first_record)?;
        let headers = tfd_csv::parse_header_in(text, &tfd_csv::CsvOptions::default(), interner)?;
        Ok((first_record.len(), Arc::new(headers)))
    }

    fn wrap_corpus_shape(shape: Shape) -> Shape {
        // The one-shot CSV front-end yields the corpus as a collection
        // of rows; the record fold folds the rows themselves.
        Shape::list(shape)
    }

    fn record_extent(slice: &[u8]) -> (usize, usize) {
        let end = slice.len()
            - if slice.ends_with(b"\r\n") {
                2
            } else {
                usize::from(slice.ends_with(b"\n") || slice.ends_with(b"\r"))
            };
        (0, end)
    }

    fn shift_error(e: Self::Error, start: &TextPos) -> Self::Error {
        use tfd_csv::CsvError::*;
        match e {
            UnterminatedQuote(l) => UnterminatedQuote(start.line + l - 1),
            CharAfterQuote(l, c) => CharAfterQuote(start.line + l - 1, c),
            InvalidUtf8(l) => InvalidUtf8(start.line + l - 1),
            RecordTooLarge(limit, l) => RecordTooLarge(limit, start.line + l - 1),
            Empty => Empty,
        }
    }

    fn wrap_error(e: Self::Error) -> StreamError {
        StreamError::Csv(e)
    }

    fn record_too_large(limit: usize, pos: &TextPos) -> Self::Error {
        tfd_csv::CsvError::RecordTooLarge(limit, pos.line)
    }

    fn invalid_utf8(pos: &TextPos) -> Self::Error {
        tfd_csv::CsvError::InvalidUtf8(pos.line)
    }
}

/// The CSV literal rules every bundle and record parse uses, built once
/// (the default missing-value list is seven `String`s and a `Vec`).
fn csv_literals() -> &'static tfd_csv::LiteralOptions {
    static LITERALS: OnceLock<tfd_csv::LiteralOptions> = OnceLock::new();
    LITERALS.get_or_init(tfd_csv::LiteralOptions::default)
}

/// The position `bytes[..k]` advances to from the start of `bytes`.
fn local_pos<F: DataFormat>(bytes: &[u8], k: usize) -> TextPos {
    let mut pos = TextPos::start();
    F::advance_pos(&mut pos, &bytes[..k]);
    pos
}

/// `bytes` as text, or the format's invalid-UTF-8 error at the first
/// bad byte (local to `bytes`).
fn utf8<F: DataFormat>(bytes: &[u8]) -> Result<&str, F::Error> {
    std::str::from_utf8(bytes).map_err(|e| F::invalid_utf8(&local_pos::<F>(bytes, e.valid_up_to())))
}

// --- The driver ---

/// Everything one ingest run is configured by: which front-end, how
/// many workers, how big a read (and an in-memory bundle) is, how
/// malformed input is handled, and the inference preset.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// The front-end records are parsed with.
    pub format: StreamFormat,
    /// Parser workers; 1 runs inline on the calling thread.
    pub jobs: usize,
    /// Bytes per read from a reader, and the window an in-memory source
    /// is cut into bundles by.
    pub chunk_size: usize,
    /// Fail fast or skip malformed records, plus the resource caps.
    pub policy: RecoveryPolicy,
    /// The inference preset the records are folded with.
    pub options: InferOptions,
}

impl IngestConfig {
    /// One job, [`DEFAULT_CHUNK_SIZE`](crate::stream::DEFAULT_CHUNK_SIZE),
    /// fail-fast, and the format's own inference preset.
    pub fn new(format: StreamFormat) -> IngestConfig {
        IngestConfig {
            format,
            jobs: 1,
            chunk_size: crate::stream::DEFAULT_CHUNK_SIZE,
            policy: RecoveryPolicy::default(),
            options: infer_options_dyn(format),
        }
    }
}

/// Where a run's bytes come from.
pub enum Source<'a> {
    /// A corpus already in memory: bundles borrow from it, nothing is
    /// copied.
    Bytes(&'a [u8]),
    /// Any reader, consumed in `chunk_size` reads in bounded memory.
    Reader(Box<dyn Read + 'a>),
}

/// Runs the parse→infer pipeline over `source` as `config` says,
/// interning every name into `interner` (all workers share the arena,
/// so dropping it after the run reclaims the corpus vocabulary at once).
///
/// The returned `summary.shape` is the *record fold* (for CSV: the row
/// shape); lift it with [`wrap_corpus_shape_dyn`] to match the one-shot
/// corpus shape. In Skip mode `report` lists what was dropped; the
/// shape equals, byte for byte, a fail-fast run over the corpus with the
/// bad records deleted.
///
/// # Errors
///
/// Fail-fast: the first error in document order, with stream-global
/// positions. Skip: [`StreamError::TooManyErrors`] once more than
/// `policy.max_errors` records were dropped. Both: I/O errors, and the
/// format's empty-input error (CSV has no header to read).
///
/// ```
/// use tfd_core::engine::{run, IngestConfig, Source};
/// use tfd_core::{RecoveryPolicy, StreamFormat};
///
/// let corpus = br#"{"a": 1} {"a": ???} {"a": 2.5, "b": true}"#;
/// let config = IngestConfig {
///     jobs: 2,
///     policy: RecoveryPolicy::skip(),
///     ..IngestConfig::new(StreamFormat::Json)
/// };
/// let out = run(Source::Bytes(corpus), &config, &tfd_value::Interner::new())?;
/// assert_eq!(out.summary.records, 2);
/// assert_eq!(out.report.total(), 1);
/// # Ok::<(), tfd_core::stream::StreamError>(())
/// ```
pub fn run(
    source: Source<'_>,
    config: &IngestConfig,
    interner: &Interner,
) -> Result<Recovered, StreamError> {
    let outcome = with_format!(config.format, F => Run::<F>::new(config, interner).drive(source));
    match (outcome, config.policy.mode) {
        (Err(StreamError::TooManyErrors { first, .. }), RecoveryMode::FailFast) => Err(*first),
        (outcome, _) => outcome,
    }
}

/// `source` past one leading UTF-8 byte-order mark, and the mark's length
/// (0 when there is none). The one-shot parsers skip the mark the same
/// way, so both agree on shapes and on error positions.
fn skip_bom(source: Source<'_>) -> Result<(Source<'_>, usize), StreamError> {
    const BOM: &[u8] = "\u{feff}".as_bytes();
    match source {
        Source::Bytes(bytes) => Ok(match bytes.strip_prefix(BOM) {
            Some(rest) => (Source::Bytes(rest), BOM.len()),
            None => (Source::Bytes(bytes), 0),
        }),
        Source::Reader(mut reader) => {
            let mut head = Vec::with_capacity(BOM.len());
            (&mut reader)
                .take(BOM.len() as u64)
                .read_to_end(&mut head)
                .map_err(StreamError::Io)?;
            let bom = if head == BOM {
                head.clear();
                BOM.len()
            } else {
                0
            };
            let rest = std::io::Cursor::new(head).chain(reader);
            Ok((Source::Reader(Box::new(rest)), bom))
        }
    }
}

/// A stretch of the stream between two record boundaries, bound for a
/// parser (a bundle of whole records).
struct Bundle<'a, C> {
    /// Document order.
    idx: usize,
    /// Absolute byte offset of the first byte.
    start: usize,
    bytes: Cow<'a, [u8]>,
    ctx: Arc<C>,
}

/// One settled stretch of the stream, in document order: a parsed
/// bundle, or a stretch the scanning thread settled itself (the
/// prologue, or an over-sized record it dropped unread).
struct Seg<E> {
    idx: usize,
    /// Absolute byte range.
    start: usize,
    end: usize,
    /// The stretch's own span, when its bytes will not be around to
    /// derive positions from (reader sources).
    span: Option<TextPos>,
    shape: Shape,
    records: usize,
    /// What was dropped, positioned relative to `start`.
    report: ErrorReport<E>,
}

impl<E> Seg<E> {
    fn settled(idx: usize, start: usize, end: usize, span: Option<TextPos>) -> Seg<E> {
        Seg {
            idx,
            start,
            end,
            span,
            shape: Shape::Bottom,
            records: 0,
            report: ErrorReport::new(),
        }
    }
}

/// One run's shared state: the configuration plus the error tally the
/// scanning thread and the workers stop on.
struct Run<'c, F: DataFormat> {
    config: &'c IngestConfig,
    interner: &'c Interner,
    /// Skipped records tolerated before the run aborts (0 = fail-fast).
    budget: usize,
    /// Errors found so far, across all threads.
    errors: AtomicUsize,
    /// The smallest segment index holding an error. Once the budget is
    /// blown, bundles past it cannot change the outcome (its first
    /// error is the report's) and are dropped unparsed.
    first_bad: AtomicUsize,
    _format: std::marker::PhantomData<fn() -> F>,
}

impl<'c, F: DataFormat> Run<'c, F> {
    fn new(config: &'c IngestConfig, interner: &'c Interner) -> Self {
        Run {
            config,
            interner,
            budget: match config.policy.mode {
                RecoveryMode::FailFast => 0,
                RecoveryMode::Skip => config.policy.max_errors,
            },
            errors: AtomicUsize::new(0),
            first_bad: AtomicUsize::new(usize::MAX),
            _format: std::marker::PhantomData,
        }
    }

    fn chunk(&self) -> usize {
        self.config.chunk_size.max(1)
    }

    /// True once the run's outcome is certainly "budget exceeded".
    fn aborted(&self) -> bool {
        self.errors.load(Ordering::Relaxed) > self.budget
    }

    fn note_errors(&self, idx: usize, n: usize) {
        if n > 0 {
            self.errors.fetch_add(n, Ordering::Relaxed);
            self.first_bad.fetch_min(idx, Ordering::Relaxed);
        }
    }

    #[allow(clippy::expect_used)] // spawn failure and worker panics are re-raised, never swallowed
    fn drive(&self, source: Source<'_>) -> Result<Recovered, StreamError> {
        let (source, bom) = skip_bom(source)?;
        let corpus = match &source {
            Source::Bytes(bytes) => Some(*bytes),
            Source::Reader(_) => None,
        };
        // An in-memory corpus never yields more bundles than windows.
        let workers = match corpus {
            Some(bytes) => self.config.jobs.min(bytes.len() / self.chunk() + 1),
            None => self.config.jobs,
        };
        let mut segs = Vec::new();
        let produced = if workers <= 1 {
            self.produce(source, &mut segs, &mut |b| self.settle(b))
        } else {
            // One window of queued bytes per worker: with the scan off
            // the critical path the workers are the bottleneck, and a
            // deeper queue only holds more windows in memory.
            let queue = WorkQueue::new(workers.saturating_mul(self.chunk()));
            std::thread::scope(|scope| {
                let queue = &queue;
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        std::thread::Builder::new()
                            .stack_size(PARSER_STACK_BYTES)
                            .spawn_scoped(scope, move || {
                                let mut out = Vec::new();
                                while let Some(bundle) = queue.pop() {
                                    out.extend(self.settle(bundle));
                                }
                                out
                            })
                            .expect("spawn a parser worker")
                    })
                    .collect();
                let closer = CloseOnDrop(queue);
                let produced = self.produce(source, &mut segs, &mut |b| {
                    let size = b.bytes.len();
                    queue.push(b, size);
                    None
                });
                drop(closer);
                for h in handles {
                    segs.extend(h.join().expect("parser worker panicked"));
                }
                produced
            })
        };
        let bytes = *produced.as_ref().unwrap_or(&0) + bom as u64;
        let joined = self.join(segs, corpus, bom, bytes);
        match produced {
            // A lost stream outranks the errors before it, unless those
            // already decided the run.
            Err(fatal) if !matches!(joined, Err(StreamError::TooManyErrors { .. })) => Err(fatal),
            _ => joined,
        }
    }

    /// The scanning side: windows of `chunk_size` bytes — lent by the
    /// corpus, or read from the reader — through the [`Scanner`].
    fn produce<'a>(
        &self,
        source: Source<'a>,
        segs: &mut Vec<Seg<F::Error>>,
        dispatch: &mut dyn FnMut(Bundle<'a, F::Context>) -> Option<Seg<F::Error>>,
    ) -> Result<u64, StreamError> {
        let mut s = Scanner::<F>::new(self);
        match source {
            Source::Bytes(corpus) => {
                for window in corpus.chunks(self.chunk()) {
                    if self.aborted() {
                        break;
                    }
                    s.window(window, Some(corpus), segs, dispatch)?;
                }
                s.finish(Some(corpus), segs, dispatch)
            }
            Source::Reader(mut reader) => {
                let mut buf = vec![0u8; self.chunk()];
                while !self.aborted() {
                    let n = reader.read(&mut buf).map_err(StreamError::Io)?;
                    if n == 0 {
                        break;
                    }
                    s.window(&buf[..n], None, segs, dispatch)?;
                }
                s.finish(None, segs, dispatch)
            }
        }
    }

    /// Parses one bundle into its fold and skip report.
    fn settle(&self, b: Bundle<'_, F::Context>) -> Option<Seg<F::Error>> {
        if self.aborted() && b.idx > self.first_bad.load(Ordering::Relaxed) {
            return None;
        }
        let mut fold = BundleFold {
            run: self,
            bytes: &b.bytes,
            ctx: &b.ctx,
            acc: InferAccumulator::new(self.config.options.clone()),
            report: ErrorReport::new(),
            cursor: (0, TextPos::start()),
        };
        fold.all();
        let BundleFold { acc, report, .. } = fold;
        self.note_errors(b.idx, report.total());
        let span =
            matches!(b.bytes, Cow::Owned(_)).then(|| local_pos::<F>(&b.bytes, b.bytes.len()));
        Some(Seg {
            idx: b.idx,
            start: b.start,
            end: b.start + b.bytes.len(),
            span,
            records: acc.records(),
            shape: acc.finish(),
            report,
        })
    }

    /// Joins the segments in document order: shapes by `csh`, reports by
    /// position. Stream-global positions are derived here, and only when
    /// an error needs one; they start `bom` bytes (a skipped byte-order
    /// mark, which takes no column) into the stream.
    fn join(
        &self,
        mut segs: Vec<Seg<F::Error>>,
        corpus: Option<&[u8]>,
        bom: usize,
        bytes: u64,
    ) -> Result<Recovered, StreamError> {
        segs.sort_unstable_by_key(|s| s.idx);
        let total: usize = segs.iter().map(|s| s.report.total()).sum();
        let mut report = ErrorReport::new();
        if let Some(last) = segs.iter().rposition(|s| !s.report.is_empty()) {
            let mut at = TextPos {
                offset: bom,
                ..TextPos::start()
            };
            let mut off = 0;
            for seg in &mut segs[..=last] {
                if let Some(corpus) = corpus {
                    F::advance_pos(&mut at, &corpus[off..seg.start]);
                    off = seg.start;
                }
                let local = std::mem::take(&mut seg.report);
                report.merge(local.map(|e| F::wrap_error(F::shift_error(e, &at))));
                if total > self.budget && !report.is_empty() {
                    break; // only the first error in document order is reported
                }
                if let Some(span) = seg.span {
                    at = at.then(&span);
                    off = seg.end;
                }
            }
        }
        if total > self.budget {
            return Err(report.into_budget_error(self.budget));
        }
        let mut shape = Shape::Bottom;
        let mut records = 0;
        for seg in segs {
            shape = csh(shape, seg.shape);
            records += seg.records;
        }
        Ok(Recovered {
            summary: StreamSummary {
                shape,
                records,
                bytes,
            },
            report,
        })
    }
}

/// One bundle being folded: whole-parsed as far as it goes, and when a
/// record fails, that record alone is settled on its own before
/// whole-parsing resumes at the next boundary. Offsets are
/// bundle-relative.
struct BundleFold<'f, 'c, F: DataFormat> {
    run: &'f Run<'c, F>,
    bytes: &'f [u8],
    ctx: &'f F::Context,
    acc: InferAccumulator,
    report: ErrorReport<F::Error>,
    /// A bundle offset and its position, advanced only forward, so
    /// positioning every error in a bundle stays linear.
    cursor: (usize, TextPos),
}

impl<F: DataFormat> BundleFold<'_, '_, F> {
    /// True once this bundle alone decides the run.
    fn over_budget(&self) -> bool {
        self.report.total() > self.run.budget
    }

    /// Folds the whole bundle. A bundle within the record cap cannot hold
    /// an over-sized record, so, valid UTF-8, it whole-parses as it is;
    /// otherwise one scan finds the records that hold invalid UTF-8 or
    /// exceed the cap, and the stretches between them whole-parse.
    fn all(&mut self) {
        let limit = self.run.config.policy.max_record_bytes;
        let bytes = self.bytes;
        if bytes.len() <= limit {
            if let Ok(text) = std::str::from_utf8(bytes) {
                return self.stretch(text, 0);
            }
        }
        let (mut clean, mut start) = (0, 0);
        while start < bytes.len() && !self.over_budget() {
            let end = start + record_end::<F>(&bytes[start..]);
            let record = &bytes[start..end];
            let (from, to) = F::record_extent(record);
            if to - from > limit || std::str::from_utf8(record).is_err() {
                self.valid_stretch(clean, start);
                self.record(start, end);
                clean = end;
            }
            start = end;
        }
        self.valid_stretch(clean, bytes.len());
    }

    /// [`BundleFold::stretch`] over `bytes[from..to]`, whose records all
    /// passed the UTF-8 check one by one.
    fn valid_stretch(&mut self, from: usize, to: usize) {
        if from < to && !self.over_budget() {
            match std::str::from_utf8(&self.bytes[from..to]) {
                Ok(text) => self.stretch(text, from),
                Err(_) => unreachable!("records valid one by one are valid together"),
            }
        }
    }

    /// Whole-parses `text`, the whole records from bundle offset `base`:
    /// what parses folds as it is parsed, and at a failure the failing
    /// record — from the boundary the parser reports to the next one
    /// (one short scan) — is settled on its own, and parsing resumes
    /// after it.
    fn stretch(&mut self, text: &str, base: usize) {
        let policy = &self.run.config.policy;
        let mut at = 0;
        while at < text.len() && !self.over_budget() {
            let parsed = F::parse_bundle(
                &text[at..],
                self.ctx,
                policy.max_depth,
                self.run.interner,
                &mut self.acc,
            );
            let Err((parsed_to, _)) = parsed else { return };
            let start = at + parsed_to;
            let mut end = start + record_end::<F>(&text.as_bytes()[start..]);
            // Boundaries are character boundaries; never slice mid-char.
            while !text.is_char_boundary(end) {
                end += 1;
            }
            self.record(base + start, base + end);
            at = end;
        }
    }

    /// Settles the record `bytes[start..end]` on its own, reporting its
    /// error at its bundle-relative position.
    fn record(&mut self, start: usize, end: usize) {
        if let Err(e) = self.one(&self.bytes[start..end]) {
            let (off, pos) = &mut self.cursor;
            F::advance_pos(pos, &self.bytes[*off..start]);
            *off = start;
            self.report.record(F::shift_error(e, pos));
        }
    }

    /// One record, all or nothing: its values fold only if it is within
    /// the record cap, valid UTF-8, and parses.
    fn one(&mut self, record: &[u8]) -> Result<(), F::Error> {
        let policy = &self.run.config.policy;
        let limit = policy.max_record_bytes;
        let (from, to) = F::record_extent(record);
        if to - from > limit {
            return Err(F::record_too_large(limit, &local_pos::<F>(record, from)));
        }
        let mut values = Vec::new();
        let text = utf8::<F>(record)?;
        F::parse_bundle(
            text,
            self.ctx,
            policy.max_depth,
            self.run.interner,
            &mut values,
        )
        .map_err(|(_, e)| e)?;
        values.iter().for_each(|v| self.acc.push(v));
        Ok(())
    }
}

/// The length of the record at the front of `bytes`, which start at a
/// boundary: the first boundary a fresh scanner finds, or all of
/// `bytes` for an unterminated tail. The scan goes in doubling pieces,
/// so it reads about as far as the record reaches.
fn record_end<F: DataFormat>(bytes: &[u8]) -> usize {
    let mut scanner = F::boundaries();
    let (mut fed, mut piece) = (0, 256);
    while fed < bytes.len() {
        let to = bytes.len().min(fed + piece);
        let mut first = None;
        F::scan(&mut scanner, &bytes[fed..to], &mut |off| {
            first.get_or_insert(fed + off);
        });
        if let Some(end) = first {
            return end;
        }
        fed = to;
        piece *= 2;
    }
    bytes.len()
}

/// The scanning side of a run: cuts the stream into whole-record
/// bundles, consumes the prologue, and — for a reader — bounds the one
/// record it has to buffer.
struct Scanner<'r, 'c, F: DataFormat> {
    run: &'r Run<'c, F>,
    boundaries: F::Boundaries,
    /// Reader sources: the bytes from `open` to `read` (the open record).
    pending: Vec<u8>,
    /// Absolute offset of the first byte not yet in a segment.
    open: usize,
    /// Absolute offset past the last byte scanned.
    read: usize,
    /// Absolute boundaries past `open`, not yet cut at.
    cuts: Vec<usize>,
    ctx: Option<Arc<F::Context>>,
    /// Reader sources: an over-sized record being dropped unread.
    dropping: Option<Seg<F::Error>>,
    next_idx: usize,
}

impl<'r, 'c, F: DataFormat> Scanner<'r, 'c, F> {
    fn new(run: &'r Run<'c, F>) -> Self {
        Scanner {
            run,
            boundaries: F::boundaries(),
            pending: Vec::new(),
            open: 0,
            read: 0,
            cuts: Vec::new(),
            ctx: None,
            dropping: None,
            next_idx: 0,
        }
    }

    fn idx(&mut self) -> usize {
        self.next_idx += 1;
        self.next_idx - 1
    }

    /// The bytes `[from, to)`: lent by the corpus, or from `pending`.
    fn bytes<'b>(&'b self, corpus: Option<&'b [u8]>, from: usize, to: usize) -> &'b [u8] {
        match corpus {
            Some(c) => &c[from..to],
            None => &self.pending[from - self.open..to - self.open],
        }
    }

    /// A settled segment `[open, to)`, advancing `open`; reader sources
    /// record its span now, since its bytes go.
    fn settle_here(
        &mut self,
        corpus: Option<&[u8]>,
        to: usize,
        report: ErrorReport<F::Error>,
    ) -> Seg<F::Error> {
        let span = corpus
            .is_none()
            .then(|| local_pos::<F>(self.bytes(None, self.open, to), to - self.open));
        let idx = self.idx();
        self.run.note_errors(idx, report.total());
        let seg = Seg {
            report,
            ..Seg::settled(idx, self.open, to, span)
        };
        if corpus.is_none() {
            self.pending.drain(..to - self.open);
        }
        self.open = to;
        seg
    }

    /// Scans one window: hunts the prologue, cuts a bundle at the last
    /// boundary, and bounds the open record.
    fn window<'a>(
        &mut self,
        window: &[u8],
        corpus: Option<&'a [u8]>,
        segs: &mut Vec<Seg<F::Error>>,
        dispatch: &mut dyn FnMut(Bundle<'a, F::Context>) -> Option<Seg<F::Error>>,
    ) -> Result<(), StreamError> {
        let base = self.read;
        self.read += window.len();
        let cuts = &mut self.cuts;
        F::scan(&mut self.boundaries, window, &mut |off| {
            cuts.push(base + off)
        });
        let mut rest = window;
        if let Some(mut seg) = self.dropping.take() {
            // The dropped record's bytes are discarded up to its end.
            let end = self.cuts.first().copied();
            let mut span = seg.span.unwrap_or_default();
            F::advance_pos(&mut span, &window[..end.map_or(window.len(), |e| e - base)]);
            seg.span = Some(span);
            let Some(end) = end else {
                self.dropping = Some(seg);
                return Ok(());
            };
            seg.end = end;
            segs.push(seg);
            self.cuts.remove(0);
            self.open = end;
            rest = &window[end - base..];
        }
        if corpus.is_none() {
            self.pending.extend_from_slice(rest);
        }
        // The prologue hunt: a record that fails as the prologue is
        // dropped and the next one tried — what deleting it would mean.
        while self.ctx.is_none() {
            let Some(&end) = self.cuts.first() else { break };
            self.prologue(corpus, end, segs);
        }
        if let (Some(ctx), Some(&last)) = (&self.ctx, self.cuts.last()) {
            let ctx = Arc::clone(ctx);
            self.cuts.clear();
            if last > self.open {
                self.cut(corpus, last, ctx, segs, dispatch);
            }
        }
        // Reader sources hold only the open record now: bound it, so one
        // unterminated record cannot buffer the rest of the stream.
        if corpus.is_none() {
            let limit = self.run.config.policy.max_record_bytes;
            let (from, to) = F::record_extent(&self.pending);
            if to - from > limit {
                let mut report = ErrorReport::new();
                report.record(F::record_too_large(
                    limit,
                    &local_pos::<F>(&self.pending, from),
                ));
                let read = self.read;
                let seg = self.settle_here(None, read, report);
                self.dropping = Some(seg);
            }
        }
        Ok(())
    }

    /// Tries `[open, end)` as the prologue.
    fn prologue(&mut self, corpus: Option<&[u8]>, end: usize, segs: &mut Vec<Seg<F::Error>>) {
        match F::prologue(self.bytes(corpus, self.open, end), self.run.interner) {
            Ok((consumed, ctx)) => {
                self.ctx = Some(Arc::new(ctx));
                if consumed > 0 {
                    let seg = self.settle_here(corpus, self.open + consumed, ErrorReport::new());
                    segs.push(seg);
                }
            }
            Err(e) => {
                let mut report = ErrorReport::new();
                report.record(e);
                let seg = self.settle_here(corpus, end, report);
                segs.push(seg);
            }
        }
        let open = self.open;
        self.cuts.retain(|&c| c > open);
    }

    /// Cuts `[open, to)` into a bundle and hands it on.
    fn cut<'a>(
        &mut self,
        corpus: Option<&'a [u8]>,
        to: usize,
        ctx: Arc<F::Context>,
        segs: &mut Vec<Seg<F::Error>>,
        dispatch: &mut dyn FnMut(Bundle<'a, F::Context>) -> Option<Seg<F::Error>>,
    ) {
        let bytes = match corpus {
            Some(c) => Cow::Borrowed(&c[self.open..to]),
            None => {
                let rest = self.pending.split_off(to - self.open);
                Cow::Owned(std::mem::replace(&mut self.pending, rest))
            }
        };
        let bundle = Bundle {
            idx: self.idx(),
            start: self.open,
            bytes,
            ctx,
        };
        self.open = to;
        segs.extend(dispatch(bundle));
    }

    /// End of input: the last prologue candidate and the tail bundle.
    fn finish<'a>(
        mut self,
        corpus: Option<&'a [u8]>,
        segs: &mut Vec<Seg<F::Error>>,
        dispatch: &mut dyn FnMut(Bundle<'a, F::Context>) -> Option<Seg<F::Error>>,
    ) -> Result<u64, StreamError> {
        if let Some(mut seg) = self.dropping.take() {
            seg.end = self.read; // the over-sized record ran to the end
            segs.push(seg);
            return Ok(self.read as u64);
        }
        if self.run.aborted() {
            return Ok(self.read as u64); // the outcome is decided
        }
        if self.ctx.is_none() && self.open < self.read {
            let read = self.read;
            self.prologue(corpus, read, segs);
        }
        if self.ctx.is_none() {
            // No record could serve as the prologue: the corpus is empty,
            // or Skip mode dropped every candidate, which leaves what an
            // empty corpus is. That is not a skippable record: CSV has no
            // header to read, the other formats hold no records.
            let (_, ctx) = F::prologue(&[], self.run.interner).map_err(F::wrap_error)?;
            self.ctx = Some(Arc::new(ctx));
        }
        if let Some(ctx) = self.ctx.clone() {
            if self.open < self.read {
                let read = self.read;
                self.cut(corpus, read, ctx, segs, dispatch);
            }
        }
        Ok(self.read as u64)
    }
}

// --- The parallel side: a byte-budgeted injector queue shared by all
// --- workers. ---

/// A byte-budgeted multi-consumer work queue — the mutex-protected
/// injector variant of a work-stealing deque (no new deps). The scanning
/// thread pushes bundles tagged with their byte size; whichever worker
/// goes idle first pops the next one, so a bundle holding one oversized
/// record never stalls the rest of the pool.
///
/// `push` blocks while the queued bytes exceed the budget — that
/// back-pressure is what keeps reader memory bounded — but always admits
/// at least one item, so a single bundle larger than the whole budget
/// still makes progress. `pop` drains remaining items after
/// [`close`](WorkQueue::close), then returns `None`.
struct WorkQueue<T> {
    state: Mutex<QueueState<T>>,
    can_pop: Condvar,
    can_push: Condvar,
    cap_bytes: usize,
}

struct QueueState<T> {
    items: VecDeque<(T, usize)>,
    bytes: usize,
    closed: bool,
}

#[allow(clippy::expect_used)] // lock poisoning == a worker panicked, which already aborts the scope
impl<T> WorkQueue<T> {
    fn new(cap_bytes: usize) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                bytes: 0,
                closed: false,
            }),
            can_pop: Condvar::new(),
            can_push: Condvar::new(),
            cap_bytes,
        }
    }

    /// Enqueues `item`, blocking while the queue is over its byte
    /// budget (unless it is empty — one item is always admitted).
    fn push(&self, item: T, size: usize) {
        let mut st = self.state.lock().expect("queue lock");
        while !st.items.is_empty() && st.bytes.saturating_add(size) > self.cap_bytes {
            st = self.can_push.wait(st).expect("queue lock");
        }
        st.bytes += size;
        st.items.push_back((item, size));
        drop(st);
        self.can_pop.notify_one();
    }

    /// Takes the oldest queued item, blocking while the queue is empty
    /// and open. `None` means closed-and-drained: the worker is done.
    fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if let Some((item, size)) = st.items.pop_front() {
                st.bytes -= size;
                drop(st);
                self.can_push.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.can_pop.wait(st).expect("queue lock");
        }
    }

    /// Marks the end of input and wakes every blocked worker.
    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.can_pop.notify_all();
        self.can_push.notify_all();
    }
}

/// Closes the queue however the scanning side exits (a panic included),
/// so workers blocked in `pop` always let the scope join.
struct CloseOnDrop<'q, T>(&'q WorkQueue<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The inference preset for a runtime-chosen format.
pub fn infer_options_dyn(format: StreamFormat) -> InferOptions {
    with_format!(format, F => F::infer_options())
}

/// [`DataFormat::parse_value`] for a runtime-chosen format.
///
/// # Errors
///
/// The format's parse error, format-erased.
pub fn parse_value_dyn_in(
    format: StreamFormat,
    text: &str,
    interner: &Interner,
) -> Result<Value, StreamError> {
    with_format!(format, F => F::parse_value(text, interner).map_err(F::wrap_error))
}

/// [`DataFormat::parse_many_values`] for a runtime-chosen format.
///
/// # Errors
///
/// The format's parse error, format-erased.
pub fn parse_many_values_dyn_in(
    format: StreamFormat,
    text: &str,
    interner: &Interner,
) -> Result<Vec<Value>, StreamError> {
    with_format!(format, F => F::parse_many_values(text, interner).map_err(F::wrap_error))
}

/// Lifts the record fold's shape to the one-shot corpus shape for a
/// runtime-chosen format (CSV re-wraps its row fold as a collection).
pub fn wrap_corpus_shape_dyn(format: StreamFormat, shape: Shape) -> Shape {
    with_format!(format, F => F::wrap_corpus_shape(shape))
}

/// [`run`] over an in-memory corpus, fail-fast.
///
/// # Errors
///
/// As [`run`].
pub fn infer_slice_dyn_in(
    format: StreamFormat,
    corpus: &[u8],
    options: &InferOptions,
    jobs: usize,
    interner: &Interner,
) -> Result<StreamSummary, StreamError> {
    let config = IngestConfig {
        jobs,
        options: options.clone(),
        ..IngestConfig::new(format)
    };
    run(Source::Bytes(corpus), &config, interner).map(|r| r.summary)
}

/// [`run`] over a reader, fail-fast.
///
/// # Errors
///
/// As [`run`].
pub fn infer_reader_parallel_dyn_in<'r, R: Read + Send + 'r>(
    format: StreamFormat,
    reader: R,
    options: &InferOptions,
    chunk_size: usize,
    jobs: usize,
    interner: &Interner,
) -> Result<StreamSummary, StreamError> {
    let config = IngestConfig {
        jobs,
        chunk_size,
        options: options.clone(),
        ..IngestConfig::new(format)
    };
    run(Source::Reader(Box::new(reader)), &config, interner).map(|r| r.summary)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tfd_value::corpus::Rng;

    /// Serves `bytes`, then fails every later read.
    struct Failing(&'static [u8]);

    impl Read for Failing {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::Error::other("disk gone"));
            }
            let n = buf.len().min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn config(jobs: usize, policy: RecoveryPolicy) -> IngestConfig {
        IngestConfig {
            jobs,
            chunk_size: 4,
            policy,
            ..IngestConfig::new(StreamFormat::Json)
        }
    }

    #[test]
    fn a_lost_stream_is_an_io_error() {
        for jobs in [1, 2] {
            for policy in [RecoveryPolicy::default(), RecoveryPolicy::skip()] {
                let source = Source::Reader(Box::new(Failing(b"{\"a\": 1}\n{\"a\"")));
                let err = run(source, &config(jobs, policy), &Interner::new()).unwrap_err();
                assert!(matches!(err, StreamError::Io(_)), "jobs {jobs}: {err:?}");
            }
        }
    }

    #[test]
    fn a_parse_error_before_a_lost_stream_wins_in_document_order() {
        for jobs in [1, 2] {
            let source = Source::Reader(Box::new(Failing(b"{\"a\": @}\n{\"a\": 1}\n")));
            let err = run(
                source,
                &config(jobs, RecoveryPolicy::default()),
                &Interner::new(),
            )
            .unwrap_err();
            assert!(matches!(err, StreamError::Json(_)), "jobs {jobs}: {err:?}");
        }
    }

    /// A corpus laid out like a real file: records from `good` and
    /// (at a per-corpus rate, so runs of them and all-bad corpora occur)
    /// from `bad`, joined by `seps`, with `junk` straight after some
    /// records and a final separator only sometimes.
    fn layout(rng: &mut Rng, good: &[&str], bad: &[&str], seps: &[&str], junk: &[&str]) -> String {
        let pick = |rng: &mut Rng, items: &[&str]| {
            items[rng.below(items.len() as u64) as usize].to_owned()
        };
        let rate = [0.0, 0.3, 0.7, 1.0][rng.below(4) as usize];
        let mut text = String::new();
        for i in 0..1 + rng.below(14) {
            if i > 0 {
                text += &pick(rng, seps);
            }
            let records = if rng.chance(rate) { bad } else { good };
            text += &pick(rng, records);
            if !junk.is_empty() && rng.chance(0.2) {
                text += &pick(rng, junk);
            }
        }
        if rng.chance(0.5) {
            text += &pick(rng, seps);
        }
        text
    }

    /// Parses `text` as `run` does — whole, then past each failing
    /// record — and asserts every offset reported with an error is 0 or a
    /// `scan` boundary of the same bytes. Returns the errors seen.
    fn reported_offsets_are_boundaries<F: DataFormat>(text: &str, ctx: &F::Context) -> usize {
        let mut ends = Vec::new();
        F::scan(&mut F::boundaries(), text.as_bytes(), &mut |off| {
            ends.push(off)
        });
        let interner = Interner::new();
        let (mut at, mut errors) = (0, 0);
        let mut acc = InferAccumulator::new(F::infer_options());
        while let Err((off, _)) = F::parse_bundle(&text[at..], ctx, None, &interner, &mut acc) {
            let reported = at + off;
            assert!(
                off == 0 || ends.contains(&reported),
                "{}: offset {off} from {at} is not a boundary {ends:?} of {text:?}",
                F::NAME
            );
            errors += 1;
            match ends.iter().find(|&&end| end > reported) {
                Some(&end) => at = end,
                None => break,
            }
        }
        errors
    }

    #[test]
    fn parse_bundle_reports_a_scan_boundary_with_its_error() {
        let mut rng = Rng::new(7);
        let interner = Interner::new();
        let header = Arc::new(vec![interner.intern("a"), interner.intern("b")]);
        let (mut json, mut xml, mut csv) = (0, 0, 0);
        for _ in 0..400 {
            let text = layout(
                &mut rng,
                &[
                    r#"{"a": 1}"#,
                    "[1, 2]",
                    r#""s""#,
                    "12",
                    "-0.5",
                    "true",
                    "null",
                    r#"{"b": {"c": [true]}}"#,
                ],
                &[r#"{"bad": @}"#, "[1,]", r#"{"a" 1}"#, "0123", "tru", "}"],
                &["\n", "\r\n", "\n\n", " ", ""],
                &["x", "@", "é"],
            );
            json += reported_offsets_are_boundaries::<JsonFormat>(&text, &());
            let text = layout(
                &mut rng,
                &[
                    "<a/>",
                    r#"<r x="1">t</r>"#,
                    "<r><s/>text</r>",
                    "<?xml version=\"1.0\"?><a/>",
                ],
                &[
                    "<bad x=1></bad>",
                    "<r>&undef;</r>",
                    "<a><b></a></b>",
                    "<r>&aaaaaaaaaaaaaaaaaaaa;</r>",
                ],
                &["\n", "\r\n", "\n\n", "\n<!-- c -->\n", "\n<?pi x?>\n", ""],
                &["junk", "x"],
            );
            xml += reported_offsets_are_boundaries::<XmlFormat>(&text, &());
            let text = layout(
                &mut rng,
                &["1,x", "2,\"q,q\"", "", "3,\"multi\nline\""],
                &["\"x\"y,9", "\"p\"!,q"],
                &["\n", "\r\n", "\r"],
                &[],
            );
            csv += reported_offsets_are_boundaries::<CsvFormat>(&text, &header);
        }
        assert!(json > 100 && xml > 100 && csv > 100, "{json} {xml} {csv}");
    }

    #[test]
    fn text_positions_compose() {
        let mut whole = TextPos::start();
        JsonFormat::advance_pos(&mut whole, "ab\nčd\nef".as_bytes());
        let (mut head, mut tail) = (TextPos::start(), TextPos::start());
        JsonFormat::advance_pos(&mut head, "ab\nč".as_bytes());
        JsonFormat::advance_pos(&mut tail, "d\nef".as_bytes());
        assert_eq!(head.then(&tail), whole);
        assert_eq!(head.then(&TextPos::start()), head);
    }
}
