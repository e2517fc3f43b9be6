//! RFC 4180 CSV parsing — single-pass, byte-level.
//!
//! Supports quoted fields (with `""` escapes, embedded delimiters and
//! newlines), CRLF, LF and bare-CR line endings, configurable delimiters,
//! and optional headerless mode (columns are then named `Column1`,
//! `Column2`, … as F# Data does).
//!
//! Like the byte-level JSON parser (`tfd_json::parser`), this is hot-path
//! code: a type provider pushes every sample file through here before
//! inference runs. The splitter therefore works directly on the input
//! bytes:
//!
//! * unquoted fields and quoted fields without `""` escapes are *borrowed*
//!   slices of the input (`Cow::Borrowed`) — one bulk copy materializes
//!   the owned row cell, instead of a per-character `String::push` loop;
//! * only fields containing `""` escapes build an owned buffer (seeded
//!   with the scanned escape-free prefix);
//! * the record/field structure is discovered in the same single pass —
//!   there is no separate tokenize step and no lookahead clone.
//!
//! Two RFC 4180 deviations of the previous char-level implementation are
//! fixed here (the old behavior survives unchanged in
//! [`crate::reference`]):
//!
//! 1. a quote is only special at **field start** — `ab"c,d"e` parses as
//!    the two literal fields `ab"c` and `d"e` instead of swallowing the
//!    delimiter;
//! 2. a bare `\r` inside a quoted field counts as a line break, so error
//!    positions are right on classic-Mac line endings.

use crate::literal::{parse_literal, LiteralOptions};
use crate::CsvFile;
use std::borrow::Cow;
use std::fmt;
use tfd_value::{body_name, Interner, Name, Value};

/// CSV parser configuration.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter; defaults to `,`. Use `;` or `\t` for common
    /// regional/TSV variants.
    pub delimiter: char,
    /// When `true` (default) the first row provides column names;
    /// otherwise columns are named `Column1`, `Column2`, ….
    pub has_header: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            has_header: true,
        }
    }
}

/// Errors produced by the CSV parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The input contained no rows at all (and a header was required).
    Empty,
    /// A quoted field was never closed; the payload is the 1-based line
    /// where the field started.
    UnterminatedQuote(usize),
    /// A closing quote was followed by a stray character; payload is the
    /// 1-based line and the offending character.
    CharAfterQuote(usize, char),
    /// The byte stream is not valid UTF-8; the payload is the 1-based
    /// line where the invalid sequence starts. Only the byte-fed ingest
    /// pipeline (`tfd_core::engine::run`) reports this: the one-shot
    /// entry points take `&str` and cannot observe it.
    InvalidUtf8(usize),
    /// A single record exceeded the ingest pipeline's byte cap; the
    /// payload is the configured limit and the 1-based line where the
    /// record starts. Only `tfd_core::engine::run` reports this — the
    /// one-shot entry points already hold the whole input.
    RecordTooLarge(usize, usize),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Empty => write!(f, "input contains no rows"),
            CsvError::UnterminatedQuote(line) => {
                write!(f, "unterminated quoted field starting on line {line}")
            }
            CsvError::CharAfterQuote(line, c) => {
                write!(
                    f,
                    "unexpected character {c:?} after closing quote on line {line}"
                )
            }
            CsvError::InvalidUtf8(line) => {
                write!(f, "input is not valid UTF-8 on line {line}")
            }
            CsvError::RecordTooLarge(limit, line) => {
                write!(
                    f,
                    "record starting on line {line} exceeds size limit of {limit} bytes"
                )
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Parses CSV text with default [`CsvOptions`] (comma-delimited, first
/// row is the header).
///
/// # Errors
///
/// Returns [`CsvError`] for empty input or malformed quoting.
///
/// ```
/// let f = tfd_csv::parse("a,b\n1,\"x,y\"\n")?;
/// assert_eq!(f.rows()[0], vec!["1".to_owned(), "x,y".to_owned()]);
/// # Ok::<(), tfd_csv::CsvError>(())
/// ```
pub fn parse(input: &str) -> Result<CsvFile, CsvError> {
    parse_with(input, &CsvOptions::default())
}

/// Parses CSV text with explicit options.
///
/// # Errors
///
/// Returns [`CsvError`] for empty input (in header mode) or malformed
/// quoting.
pub fn parse_with(input: &str, options: &CsvOptions) -> Result<CsvFile, CsvError> {
    let mut splitter = RecordSplitter::new(strip_bom(input), options.delimiter);
    let mut fields: Vec<Cow<'_, str>> = Vec::new();
    let mut records: Vec<Vec<String>> = Vec::new();
    if options.has_header {
        if !splitter.next_record(&mut fields)? {
            return Err(CsvError::Empty);
        }
        // Header names are trimmed: the paper's air-quality sample writes
        // "Ozone, Temp, ..." yet the provided type has fields Ozone/Temp.
        let headers = fields.iter().map(|h| h.trim().to_owned()).collect();
        while splitter.next_record(&mut fields)? {
            records.push(fields.drain(..).map(Cow::into_owned).collect());
        }
        Ok(CsvFile::new(headers, records))
    } else {
        while splitter.next_record(&mut fields)? {
            records.push(fields.drain(..).map(Cow::into_owned).collect());
        }
        let width = records.iter().map(Vec::len).max().unwrap_or(0);
        let headers = (1..=width).map(|i| format!("Column{i}")).collect();
        Ok(CsvFile::new(headers, records))
    }
}

/// Parses CSV text straight into the universal data [`Value`] of §2.3
/// ("We treat CSV files as lists of records"), skipping the [`CsvFile`]
/// intermediate entirely — the parse→infer hot path, mirroring
/// `tfd_json::parse_value`.
///
/// One pass over the bytes: column names are interned once per file,
/// each cell feeds [`parse_literal`] directly from its (usually
/// borrowed) slice, so cells holding numbers, booleans, dates or `#N/A`
/// allocate nothing at all.
///
/// # Errors
///
/// As [`parse`].
///
/// ```
/// use tfd_value::Value;
/// let v = tfd_csv::parse_value("a,b\n1,x\n")?;
/// assert_eq!(v.elements().unwrap()[0].field("a"), Some(&Value::Int(1)));
/// # Ok::<(), tfd_csv::CsvError>(())
/// ```
pub fn parse_value(input: &str) -> Result<Value, CsvError> {
    parse_value_with(input, &CsvOptions::default(), &LiteralOptions::default())
}

/// [`parse_value`] under explicit CSV and literal-inference options.
///
/// Produces exactly the same value as
/// `parse_with(input, options)?.to_value_with(literals)` (the round-trip
/// suite asserts this), without materializing row `String`s.
///
/// # Errors
///
/// As [`parse_with`].
pub fn parse_value_with(
    input: &str,
    options: &CsvOptions,
    literals: &LiteralOptions,
) -> Result<Value, CsvError> {
    parse_value_in(input, options, literals, Interner::global())
}

/// [`parse_value_with`] interning column names into a caller-supplied
/// arena — the corpus-scoped hot path. Names in the returned value
/// borrow from `interner`'s storage; [`Value::reintern`] whatever must
/// outlive it.
///
/// # Errors
///
/// As [`parse_value_with`].
pub fn parse_value_in(
    input: &str,
    options: &CsvOptions,
    literals: &LiteralOptions,
    interner: &Interner,
) -> Result<Value, CsvError> {
    let mut splitter = RecordSplitter::new(strip_bom(input), options.delimiter);
    let mut fields: Vec<Cow<'_, str>> = Vec::new();
    let row_name = body_name();
    if options.has_header {
        let headers = header_names(&mut splitter, interner)?;
        let mut rows = Vec::new();
        each_row(&mut splitter, &headers, literals, &mut |row| rows.push(row))?;
        Ok(Value::List(rows))
    } else {
        // Headerless mode needs the max width before columns can be
        // named; parse cells eagerly, name and pad afterwards.
        let mut raw_rows: Vec<Vec<Value>> = Vec::new();
        let mut width = 0usize;
        while splitter.next_record(&mut fields)? {
            width = width.max(fields.len());
            raw_rows.push(fields.iter().map(|c| parse_literal(c, literals)).collect());
        }
        let headers: Vec<Name> = (1..=width)
            .map(|i| interner.intern(format!("Column{i}")))
            .collect();
        let missing = parse_literal("", literals);
        Ok(Value::List(
            raw_rows
                .into_iter()
                .map(|mut row| {
                    row.resize(width, missing.clone());
                    Value::record(row_name, headers.iter().copied().zip(row))
                })
                .collect(),
        ))
    }
}

/// Parses the header row at the front of `input` into the interned,
/// trimmed column names — the prologue the ingest pipeline seeds every
/// bundle parse with ([`parse_rows_in`]).
///
/// # Errors
///
/// [`CsvError::Empty`] when `input` holds no record, else as [`parse`].
pub fn parse_header_in(
    input: &str,
    options: &CsvOptions,
    interner: &Interner,
) -> Result<Vec<Name>, CsvError> {
    header_names(&mut RecordSplitter::new(input, options.delimiter), interner)
}

/// Parses header-less data rows against already-parsed column `headers`,
/// handing each row record to `each` as soon as it is split — the rows
/// [`parse_value_with`] would return after the header, without
/// collecting them.
///
/// # Errors
///
/// As [`parse`]; rows before the first error have already been handed
/// to `each`.
pub fn parse_rows_in(
    input: &str,
    options: &CsvOptions,
    literals: &LiteralOptions,
    headers: &[Name],
    each: &mut dyn FnMut(Value),
) -> Result<(), CsvError> {
    let mut splitter = RecordSplitter::new(input, options.delimiter);
    each_row(&mut splitter, headers, literals, each)
}

/// `input` past one leading UTF-8 byte-order mark, so it does not end up
/// in the first column's name. Only the one-shot entry points strip it:
/// the ingest pipeline skips the mark at stream offset 0 itself, and
/// hands [`parse_header_in`] and [`parse_rows_in`] text without one.
fn strip_bom(input: &str) -> &str {
    input.strip_prefix('\u{feff}').unwrap_or(input)
}

/// Reads the next record as the header row: trimmed names (the paper's
/// air-quality sample writes "Ozone, Temp, ..." yet the provided type has
/// fields Ozone/Temp), interned into `interner`.
fn header_names(
    splitter: &mut RecordSplitter<'_>,
    interner: &Interner,
) -> Result<Vec<Name>, CsvError> {
    let mut fields: Vec<Cow<'_, str>> = Vec::new();
    if !splitter.next_record(&mut fields)? {
        return Err(CsvError::Empty);
    }
    Ok(fields.iter().map(|h| interner.intern(h.trim())).collect())
}

/// Reads every remaining record as a `•`-named row over `headers`:
/// short rows pad with empty cells, extra cells are dropped.
fn each_row(
    splitter: &mut RecordSplitter<'_>,
    headers: &[Name],
    literals: &LiteralOptions,
    each: &mut dyn FnMut(Value),
) -> Result<(), CsvError> {
    let row_name = body_name();
    let mut fields: Vec<Cow<'_, str>> = Vec::new();
    while splitter.next_record(&mut fields)? {
        each(Value::record(
            row_name,
            headers.iter().enumerate().map(|(i, &h)| {
                let cell = fields.get(i).map(Cow::as_ref).unwrap_or("");
                (h, parse_literal(cell, literals))
            }),
        ));
    }
    Ok(())
}

/// Streaming byte-level record splitter: one pass over the input,
/// borrowed cells wherever the source text needs no unescaping, and a
/// caller-owned field buffer reused across records.
///
/// Slicing at delimiter/quote/CR/LF positions is UTF-8-safe: ASCII bytes
/// only occur as standalone characters, and a multi-byte delimiter is
/// matched from its lead byte, which likewise only occurs at a character
/// boundary.
struct RecordSplitter<'a> {
    input: &'a str,
    bytes: &'a [u8],
    delim_buf: [u8; 4],
    delim_len: usize,
    pos: usize,
    line: usize,
}

impl<'a> RecordSplitter<'a> {
    fn new(input: &'a str, delimiter: char) -> RecordSplitter<'a> {
        let mut delim_buf = [0u8; 4];
        let delim_len = delimiter.encode_utf8(&mut delim_buf).len();
        RecordSplitter {
            input,
            bytes: input.as_bytes(),
            delim_buf,
            delim_len,
            pos: 0,
            line: 1,
        }
    }

    /// Clears `fields` and reads the next record into it. `Ok(false)`
    /// signals end of input (with `fields` left empty).
    fn next_record(&mut self, fields: &mut Vec<Cow<'a, str>>) -> Result<bool, CsvError> {
        fields.clear();
        self.next_record_each(|f| fields.push(f))
    }

    /// Reads the next record, handing each field to `push` as it
    /// completes (no intermediate collection). `Ok(false)` signals end
    /// of input.
    fn next_record_each(&mut self, mut push: impl FnMut(Cow<'a, str>)) -> Result<bool, CsvError> {
        if self.pos >= self.bytes.len() {
            return Ok(false);
        }
        let delim: [u8; 4] = self.delim_buf;
        let delim = &delim[..self.delim_len];
        let d0 = delim[0];
        loop {
            // --- One field, starting at `self.pos`. ---
            let field: Cow<'a, str> = if self.bytes[self.pos] == b'"' {
                self.quoted_field(delim)?
            } else {
                // Unquoted fast path: SWAR-scan to the next delimiter
                // byte or line ending instead of stepping byte by byte.
                // Mid-field quotes are literal content (RFC 4180 fix 1),
                // so the scan need not stop at them.
                let start = self.pos;
                loop {
                    match crate::scan::find_any3(&self.bytes[self.pos..], d0, b'\n', b'\r') {
                        None => {
                            self.pos = self.bytes.len();
                            break;
                        }
                        Some(off) => {
                            self.pos += off;
                            let b = self.bytes[self.pos];
                            if b != d0 || self.bytes[self.pos..].starts_with(delim) {
                                break;
                            }
                            // A delimiter lead byte that is not a full
                            // (multi-byte) delimiter: ordinary content.
                            self.pos += 1;
                        }
                    }
                }
                Cow::Borrowed(&self.input[start..self.pos])
            };
            push(field);

            // --- Terminator: delimiter continues the record, a line
            // ending or EOF finishes it. ---
            match self.bytes.get(self.pos) {
                Some(&b) if b == d0 && self.bytes[self.pos..].starts_with(delim) => {
                    self.pos += delim.len();
                    // EOF right after a delimiter means one last empty
                    // field ends both the record and the input.
                    if self.pos == self.bytes.len() {
                        push(Cow::Borrowed(""));
                        return Ok(true);
                    }
                }
                Some(b'\n') => {
                    self.pos += 1;
                    self.line += 1;
                    return Ok(true);
                }
                Some(b'\r') => {
                    self.pos += if self.bytes.get(self.pos + 1) == Some(&b'\n') {
                        2
                    } else {
                        1
                    };
                    self.line += 1;
                    return Ok(true);
                }
                None => return Ok(true),
                Some(_) => unreachable!("field scan stops only at delimiter, CR, LF or EOF"),
            }
        }
    }

    #[allow(clippy::expect_used)] // checked invariant, documented at each site
    /// Parses a `"`-opened field. Escape-free contents — the common case
    /// — are returned as a borrowed slice; a `""` escape switches to an
    /// owned buffer seeded with the prefix scanned so far.
    fn quoted_field(&mut self, delim: &[u8]) -> Result<Cow<'a, str>, CsvError> {
        let quote_line = self.line;
        self.pos += 1; // opening '"'
        let start = self.pos;
        let mut owned: Option<String> = None;
        let mut run_start = start;
        loop {
            // Bulk-skip ordinary quoted content: only quotes and line
            // endings (which the error positions must count) matter.
            if let Some(off) = crate::scan::find_any3(&self.bytes[self.pos..], b'"', b'\n', b'\r') {
                self.pos += off;
            } else {
                self.pos = self.bytes.len();
            }
            match self.bytes.get(self.pos) {
                None => return Err(CsvError::UnterminatedQuote(quote_line)),
                Some(b'"') => {
                    if self.bytes.get(self.pos + 1) == Some(&b'"') {
                        // Escaped quote: flush the run plus one '"', then
                        // continue after the pair.
                        let out = owned
                            .get_or_insert_with(|| String::with_capacity(self.pos - start + 16));
                        out.push_str(&self.input[run_start..self.pos]);
                        out.push('"');
                        self.pos += 2;
                        run_start = self.pos;
                    } else {
                        let content = match owned {
                            Some(mut out) => {
                                out.push_str(&self.input[run_start..self.pos]);
                                Cow::Owned(out)
                            }
                            None => Cow::Borrowed(&self.input[start..self.pos]),
                        };
                        self.pos += 1; // closing '"'
                                       // After the closing quote only a delimiter, a line
                                       // ending or EOF may follow.
                        match self.bytes.get(self.pos) {
                            None | Some(b'\n' | b'\r') => {}
                            Some(_) if self.bytes[self.pos..].starts_with(delim) => {}
                            Some(_) => {
                                let c = self.input[self.pos..].chars().next().expect("in-bounds");
                                return Err(CsvError::CharAfterQuote(self.line, c));
                            }
                        }
                        return Ok(content);
                    }
                }
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(b'\r') => {
                    // A bare CR is a line break too (RFC 4180 fix 2); CRLF
                    // counts once, via the '\n' arm.
                    if self.bytes.get(self.pos + 1) != Some(&b'\n') {
                        self.line += 1;
                    }
                    self.pos += 1;
                }
                Some(_) => unreachable!("scan stops only at quote, CR, LF or EOF"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(input: &str) -> Vec<Vec<String>> {
        parse(input).unwrap().rows().to_vec()
    }

    #[test]
    fn simple_file() {
        let f = parse("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(f.headers(), &["a", "b"]);
        assert_eq!(
            f.rows(),
            &[
                vec!["1".to_owned(), "2".into()],
                vec!["3".into(), "4".into()]
            ]
        );
    }

    #[test]
    fn no_trailing_newline() {
        assert_eq!(rows("a\n1"), vec![vec!["1".to_owned()]]);
    }

    #[test]
    fn trailing_newline_adds_no_phantom_row() {
        assert_eq!(rows("a\n1\n"), vec![vec!["1".to_owned()]]);
    }

    #[test]
    fn crlf_line_endings() {
        let f = parse("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(f.rows(), &[vec!["1".to_owned(), "2".into()]]);
    }

    #[test]
    fn bare_cr_separates_records() {
        assert_eq!(
            rows("a\r1\r2"),
            vec![vec!["1".to_owned()], vec!["2".into()]]
        );
    }

    #[test]
    fn quoted_fields_with_delimiters() {
        assert_eq!(rows("a\n\"x,y\""), vec![vec!["x,y".to_owned()]]);
    }

    #[test]
    fn quoted_fields_with_newlines() {
        assert_eq!(rows("a\n\"x\ny\""), vec![vec!["x\ny".to_owned()]]);
    }

    #[test]
    fn escaped_quotes() {
        assert_eq!(
            rows("a\n\"he said \"\"hi\"\"\""),
            vec![vec!["he said \"hi\"".to_owned()]]
        );
    }

    #[test]
    fn empty_fields() {
        assert_eq!(
            rows("a,b,c\n1,,3"),
            vec![vec!["1".to_owned(), "".into(), "3".into()]]
        );
        assert_eq!(rows("a,b\n,"), vec![vec!["".to_owned(), "".into()]]);
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert_eq!(parse("a\n\"oops"), Err(CsvError::UnterminatedQuote(2)));
    }

    #[test]
    fn char_after_quote_is_error() {
        assert!(matches!(
            parse("a\n\"x\"y"),
            Err(CsvError::CharAfterQuote(2, 'y'))
        ));
    }

    #[test]
    fn empty_input_is_error_with_header() {
        assert_eq!(parse(""), Err(CsvError::Empty));
    }

    #[test]
    fn headerless_mode_names_columns() {
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let f = parse_with("1,2\n3,4\n", &opts).unwrap();
        assert_eq!(f.headers(), &["Column1", "Column2"]);
        assert_eq!(f.row_count(), 2);
    }

    #[test]
    fn headerless_empty_input_is_ok() {
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let f = parse_with("", &opts).unwrap();
        assert_eq!(f.row_count(), 0);
    }

    #[test]
    fn semicolon_delimiter() {
        let opts = CsvOptions {
            delimiter: ';',
            ..CsvOptions::default()
        };
        let f = parse_with("a;b\n1;2\n", &opts).unwrap();
        assert_eq!(f.rows(), &[vec!["1".to_owned(), "2".into()]]);
    }

    #[test]
    fn tab_delimiter() {
        let opts = CsvOptions {
            delimiter: '\t',
            ..CsvOptions::default()
        };
        let f = parse_with("a\tb\n1\t2\n", &opts).unwrap();
        assert_eq!(f.rows(), &[vec!["1".to_owned(), "2".into()]]);
    }

    #[test]
    fn multibyte_delimiter() {
        let opts = CsvOptions {
            delimiter: '§',
            ..CsvOptions::default()
        };
        let f = parse_with("a§b\n1§\"x§y\"\n", &opts).unwrap();
        assert_eq!(f.headers(), &["a", "b"]);
        assert_eq!(f.rows(), &[vec!["1".to_owned(), "x§y".into()]]);
    }

    // --- Regression tests for the two RFC 4180 fixes. Both inputs are
    // mis-parsed by the retained char-level `crate::reference` parser
    // (see the `bug_*` tests there). ---

    /// Fix 1: a quote appearing mid-field is literal content; only a
    /// quote at field start opens a quoted field.
    #[test]
    fn midfield_quote_is_literal() {
        assert_eq!(
            rows("h1,h2\nab\"c,d\"e"),
            vec![vec!["ab\"c".to_owned(), "d\"e".into()]]
        );
        // The reference parser swallows the delimiter (EOF variant) or
        // rejects the row outright:
        assert_eq!(
            crate::reference::parse("h1,h2\nab\"c,d\"").unwrap().rows(),
            &[vec!["abc,d".to_owned()]]
        );
        assert_eq!(
            crate::reference::parse("h1,h2\nab\"c,d\"e"),
            Err(CsvError::CharAfterQuote(2, 'e'))
        );
    }

    /// Fix 1 corollary: a field that merely *ends* with content after a
    /// leading non-quote keeps its quotes verbatim.
    #[test]
    fn trailing_and_inner_quotes_stay_literal() {
        assert_eq!(rows("h\na\"b\"\n"), vec![vec!["a\"b\"".to_owned()]]);
        assert_eq!(rows("h\nab\"\n"), vec![vec!["ab\"".to_owned()]]);
        assert_eq!(rows("h\n x\"y\n"), vec![vec![" x\"y".to_owned()]]);
    }

    /// Fix 2: a bare `\r` inside a quoted field advances the line
    /// counter, so errors after it report the right line.
    #[test]
    fn bare_cr_in_quoted_field_counts_lines() {
        // `x` sits on physical line 3: after `h\n` and the quoted `\r`.
        assert_eq!(parse("h\n\"a\rb\"x"), Err(CsvError::CharAfterQuote(3, 'x')));
        // The reference parser reports line 2 for the same input:
        assert_eq!(
            crate::reference::parse("h\n\"a\rb\"x"),
            Err(CsvError::CharAfterQuote(2, 'x'))
        );
        // A CRLF inside quotes still counts once:
        assert_eq!(
            parse("h\n\"a\r\nb\"x"),
            Err(CsvError::CharAfterQuote(3, 'x'))
        );
        // And a later unterminated quote reports its true start line.
        assert_eq!(
            parse("h\n\"a\rb\",ok\n\"oops"),
            Err(CsvError::UnterminatedQuote(4))
        );
    }

    /// Quoted-field content keeps its line endings verbatim.
    #[test]
    fn quoted_line_endings_preserved_verbatim() {
        assert_eq!(rows("a\n\"x\r\ny\""), vec![vec!["x\r\ny".to_owned()]]);
        assert_eq!(rows("a\n\"x\ry\""), vec![vec!["x\ry".to_owned()]]);
    }

    #[test]
    fn quoted_field_at_eof() {
        assert_eq!(rows("a\n\"x\""), vec![vec!["x".to_owned()]]);
        assert_eq!(rows("a,b\n1,\"x\""), vec![vec!["1".to_owned(), "x".into()]]);
        assert_eq!(rows("a\n\"\""), vec![vec!["".to_owned()]]);
    }

    #[test]
    fn empty_line_yields_single_empty_cell_record() {
        // Matches the char-level reference: an empty line is a record
        // with one empty field, not nothing.
        assert_eq!(rows("a\n\n1"), vec![vec!["".to_owned()], vec!["1".into()]]);
    }

    #[test]
    fn utf8_in_cells_and_headers() {
        let f = parse("sloupec,météo\nžluťoučký,🌧\n").unwrap();
        assert_eq!(f.headers(), &["sloupec", "météo"]);
        assert_eq!(f.rows(), &[vec!["žluťoučký".to_owned(), "🌧".into()]]);
    }

    #[test]
    fn parse_value_agrees_with_parse_to_value() {
        let docs = [
            "a,b\n1,x\n2,y\n",
            "a,b\n1\n2,y,z\n",                      // ragged rows
            "a\n\"x,y\"\n\"he said \"\"hi\"\"\"\n", // quoting
            "Ozone, Temp\n41, 67\n17.5, #N/A\n",    // trimmed headers, nulls
            "a,b\r\n1,2\r\n",
            "a\n",
        ];
        for doc in docs {
            assert_eq!(
                parse_value(doc).unwrap(),
                parse(doc).unwrap().to_value(),
                "mismatch on {doc:?}"
            );
        }
    }

    #[test]
    fn parse_value_headerless_agrees_with_parse_to_value() {
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let lits = LiteralOptions::default();
        for doc in ["1,2\n3,4,5\n", "", "x\n"] {
            assert_eq!(
                parse_value_with(doc, &opts, &lits).unwrap(),
                parse_with(doc, &opts).unwrap().to_value_with(&lits),
                "mismatch on {doc:?}"
            );
        }
    }

    #[test]
    fn parse_value_propagates_errors() {
        assert_eq!(parse_value(""), Err(CsvError::Empty));
        assert_eq!(
            parse_value("a\n\"oops"),
            Err(CsvError::UnterminatedQuote(2))
        );
    }

    #[test]
    fn paper_airquality_sample() {
        // The §6.2 example file.
        let input = "Ozone, Temp, Date, Autofilled\n\
                     41, 67, 2012-05-01, 0\n\
                     36.3, 72, 2012-05-02, 1\n\
                     12.1, 74, 3 kveten, 0\n\
                     17.5, #N/A, 2012-05-04, 0\n";
        let f = parse(input).unwrap();
        assert_eq!(f.headers(), &["Ozone", "Temp", "Date", "Autofilled"]);
        assert_eq!(f.row_count(), 4);
        // Cells keep their raw spacing; literal inference trims.
        let v = f.to_value();
        let rows = v.elements().unwrap();
        use tfd_value::Value;
        assert_eq!(rows[0].field("Ozone"), Some(&Value::Int(41)));
        assert_eq!(rows[1].field("Ozone"), Some(&Value::Float(36.3)));
        assert_eq!(rows[3].field("Temp"), Some(&Value::Null));
        assert_eq!(rows[2].field("Date"), Some(&Value::str("3 kveten")));
        assert_eq!(rows[0].field("Autofilled"), Some(&Value::Int(0)));
    }
}
