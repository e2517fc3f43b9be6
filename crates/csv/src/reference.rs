//! The retained char-level CSV parser — the honesty baseline for the
//! byte-level `crate::parser`.
//!
//! This module preserves the pre-byte-level implementation **verbatim**,
//! including two quoting bugs that the byte-level parser fixes:
//!
//! 1. a `"` appearing *mid-field* (e.g. `ab"c,d"e`) is treated as opening
//!    a quoted field, silently swallowing the delimiter — per RFC 4180 a
//!    quote is only special at field start;
//! 2. a bare `\r` inside a quoted field does not increment the line
//!    counter, so `UnterminatedQuote`/`CharAfterQuote` report wrong lines
//!    on classic-Mac line endings.
//!
//! Keeping the old behavior intact lets the regression tests in
//! `crate::parser` demonstrate the fixes against a live implementation,
//! and gives `tests/parser_roundtrips.rs` and perfbench's oracle
//! (`perfbench/src/oracle.rs`) an independent parser to agree with on
//! well-formed input. Do not fix bugs here; fix them in
//! `crate::parser`.

use crate::parser::{CsvError, CsvOptions};
use crate::CsvFile;

/// Parses CSV text with default [`CsvOptions`] through the retained
/// char-level state machine.
///
/// # Errors
///
/// Returns [`CsvError`] for empty input or malformed quoting.
pub fn parse(input: &str) -> Result<CsvFile, CsvError> {
    parse_with(input, &CsvOptions::default())
}

/// Parses CSV text with explicit options through the retained char-level
/// state machine.
///
/// # Errors
///
/// Returns [`CsvError`] for empty input (in header mode) or malformed
/// quoting.
pub fn parse_with(input: &str, options: &CsvOptions) -> Result<CsvFile, CsvError> {
    let mut records = split_records(input, options.delimiter)?;
    if options.has_header {
        if records.is_empty() {
            return Err(CsvError::Empty);
        }
        let headers = records
            .remove(0)
            .into_iter()
            .map(|h| h.trim().to_owned())
            .collect();
        Ok(CsvFile::new(headers, records))
    } else {
        let width = records.iter().map(Vec::len).max().unwrap_or(0);
        let headers = (1..=width).map(|i| format!("Column{i}")).collect();
        Ok(CsvFile::new(headers, records))
    }
}

/// State machine over characters; returns one `Vec<String>` per record.
fn split_records(input: &str, delimiter: char) -> Result<Vec<Vec<String>>, CsvError> {
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    // `started` tracks whether the current record has any content, so a
    // trailing newline does not produce a phantom empty record.
    let mut started = false;
    let mut line = 1usize;

    let mut chars = input.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                started = true;
                let quote_line = line;
                // Quoted field: consume until the closing quote.
                loop {
                    match chars.next() {
                        None => return Err(CsvError::UnterminatedQuote(quote_line)),
                        Some('"') => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                field.push('"');
                            } else {
                                break;
                            }
                        }
                        Some('\n') => {
                            line += 1;
                            field.push('\n');
                        }
                        Some(c) => field.push(c),
                    }
                }
                // After the closing quote only a delimiter or line end may follow.
                match chars.peek() {
                    None => {}
                    Some(&c2) if c2 == delimiter || c2 == '\n' || c2 == '\r' => {}
                    Some(&c2) => return Err(CsvError::CharAfterQuote(line, c2)),
                }
            }
            '\r' => {
                // Part of CRLF; the '\n' branch finishes the record. A bare
                // CR is treated as a record separator too.
                if chars.peek() != Some(&'\n') {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                    started = false;
                    line += 1;
                }
            }
            '\n' => {
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
                started = false;
                line += 1;
            }
            c if c == delimiter => {
                started = true;
                record.push(std::mem::take(&mut field));
            }
            c => {
                started = true;
                field.push(c);
            }
        }
    }
    if started || !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(input: &str) -> Vec<Vec<String>> {
        parse(input).unwrap().rows().to_vec()
    }

    #[test]
    fn reference_still_parses_the_happy_path() {
        let f = parse("a,b\n1,\"x,y\"\r\n3,4").unwrap();
        assert_eq!(f.headers(), &["a", "b"]);
        assert_eq!(
            f.rows(),
            &[
                vec!["1".to_owned(), "x,y".into()],
                vec!["3".into(), "4".into()]
            ]
        );
    }

    /// Documents retained bug 1: a mid-field quote opens a quoted field,
    /// so `ab"c,d"` swallows the delimiter into one cell and `ab"c,d"e`
    /// is rejected outright. The byte-level parser keeps mid-field quotes
    /// literal (see `crate::parser` regression tests).
    #[test]
    fn bug_midfield_quote_swallows_delimiter() {
        assert_eq!(rows("h\nab\"c,d\""), vec![vec!["abc,d".to_owned()]]);
        assert_eq!(
            parse("h\nab\"c,d\"e"),
            Err(CsvError::CharAfterQuote(2, 'e'))
        );
    }

    /// Documents retained bug 2: bare `\r` inside a quoted field does not
    /// advance the line counter, so the error line is wrong on
    /// classic-Mac line endings. The stray `x` sits on physical line 3
    /// (after `h\n` and the `\r` inside the quotes), but the reference
    /// reports line 2. The byte-level parser reports 3.
    #[test]
    fn bug_bare_cr_in_quoted_field_miscounts_lines() {
        assert_eq!(parse("h\n\"a\rb\"x"), Err(CsvError::CharAfterQuote(2, 'x')));
    }
}
