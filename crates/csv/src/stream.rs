//! The resumable CSV record-boundary scanner.
//!
//! [`BoundaryScanner`] accepts arbitrary `feed(&[u8])` slices — the
//! corpus may be split at **any** byte boundary, including inside a CRLF
//! pair, a `""` escape, a quoted field or a multi-byte delimiter — and
//! reports where each record ends (line endings outside quoted fields).
//! It is an explicit state machine with one state per quoting situation
//! (`CMode`), a partial-match counter for multi-byte delimiters and a
//! pending-LF state for CRLF pairs split across chunks.
//!
//! The ingest pipeline (`tfd_core::engine::run`) parses the header record
//! once ([`parse_header_in`](crate::parse_header_in)), cuts the rest into
//! whole-record bundles at these boundaries and splits each bundle with
//! [`parse_rows_in`](crate::parse_rows_in), seeded with the header names.

use crate::parser::CsvOptions;

/// Scanner state between two consumed bytes. Every variant is resumable:
/// a chunk may end (and the next begin) in any of them. The `u8` on
/// `Start`/`Unquoted`/`AfterQuote` counts delimiter bytes matched so far
/// (multi-byte delimiters can straddle chunks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CMode {
    /// After a record-ending line break (or at stream start): the next
    /// byte, whatever it is, opens a record.
    Between,
    /// A record just ended at a `\r`; a following `\n` belongs to that
    /// same (CRLF) line ending.
    PendingLf,
    /// At the start of a field — the one place a quote is special.
    Start(u8),
    /// Inside unquoted field content (quotes here are literal).
    Unquoted(u8),
    /// Inside a quoted field (line endings here are content).
    Quoted,
    /// Inside a quoted field, immediately after a `"`: either the first
    /// half of a `""` escape or the field's closing quote.
    QuoteQuote,
    /// After a closing quote: only a delimiter or line ending may
    /// follow; anything else is the one-shot `CharAfterQuote` error,
    /// reproduced when the record is parsed.
    AfterQuote(u8),
}

/// A scan-only record-boundary finder: it never materializes a row, only
/// reports where records end (line endings outside quoted fields).
///
/// The ingest pipeline (`tfd_core::engine`) cuts corpora into bundles
/// that never split a row at these offsets. A boundary after a bare
/// `\r` is deliberately *deferred* until the next byte proves it is not
/// the first half of a CRLF pair — so a reported offset is always a
/// position where a fresh parser sees exactly the remaining record
/// sequence. The header row counts as a record here; the driver handles
/// it via the format prologue.
///
/// ```
/// let mut s = tfd_csv::stream::BoundaryScanner::new();
/// let mut cuts = Vec::new();
/// s.feed(b"a,b\n1,\"x\ny\"\r\n2,z", &mut |off| cuts.push(off));
/// assert_eq!(cuts, vec![4, 13]); // after the header, after the CRLF
/// assert!(s.in_record()); // "2,z" awaits its line ending
/// ```
#[derive(Debug, Clone)]
pub struct BoundaryScanner {
    mode: CMode,
    delim: [u8; 4],
    dlen: u8,
}

impl Default for BoundaryScanner {
    fn default() -> Self {
        BoundaryScanner::new()
    }
}

impl BoundaryScanner {
    /// A scanner for comma-delimited input, positioned between records.
    pub fn new() -> BoundaryScanner {
        BoundaryScanner::with_options(&CsvOptions::default())
    }

    /// A scanner honouring the given delimiter.
    pub fn with_options(options: &CsvOptions) -> BoundaryScanner {
        let mut delim = [0u8; 4];
        let dlen = options.delimiter.encode_utf8(&mut delim).len() as u8;
        BoundaryScanner {
            mode: CMode::Between,
            delim,
            dlen,
        }
    }

    /// Feeds one chunk; `boundary` receives the chunk-relative offset
    /// just past each record completed within it — after the LF of a
    /// CRLF pair, after a lone LF, or *before* the byte following a bare
    /// CR (state carries across calls, so chunks may split records, `""`
    /// escapes and CRLF pairs anywhere).
    pub fn feed(&mut self, chunk: &[u8], boundary: &mut impl FnMut(usize)) {
        let d0 = self.delim[0];
        let dlen = self.dlen;
        let n = chunk.len();
        let mut i = 0usize;
        while i < n {
            match self.mode {
                CMode::Between => {
                    // The next byte, whatever it is, opens a record.
                    self.mode = CMode::Start(0);
                }
                CMode::PendingLf => {
                    self.mode = CMode::Between;
                    if chunk[i] == b'\n' {
                        i += 1;
                    }
                    // The record that ended at the `\r` is only now
                    // known to be safely cuttable.
                    boundary(i);
                }
                CMode::Start(m) | CMode::Unquoted(m) | CMode::AfterQuote(m) if m > 0 => {
                    if chunk[i] == self.delim[m as usize] {
                        i += 1;
                        self.mode = if m + 1 == dlen {
                            CMode::Start(0) // delimiter complete: next field
                        } else {
                            match self.mode {
                                CMode::Start(_) => CMode::Start(m + 1),
                                CMode::Unquoted(_) => CMode::Unquoted(m + 1),
                                _ => CMode::AfterQuote(m + 1),
                            }
                        };
                    } else {
                        // Failed partial match: the matched prefix was
                        // ordinary content; re-examine the byte.
                        self.mode = CMode::Unquoted(0);
                    }
                }
                CMode::Start(_) => {
                    let b = chunk[i];
                    match b {
                        b'"' => {
                            i += 1;
                            self.mode = CMode::Quoted;
                        }
                        b'\n' | b'\r' => self.end_record(&mut i, b, boundary),
                        _ if b == d0 => {
                            i += 1;
                            self.mode = if dlen == 1 {
                                CMode::Start(0)
                            } else {
                                CMode::Start(1)
                            };
                        }
                        _ => {
                            i += 1;
                            self.mode = CMode::Unquoted(0);
                        }
                    }
                }
                // Hot loop: unquoted content runs to the next delimiter
                // or line ending, SWAR-scanned (`tfd_value::scan`).
                CMode::Unquoted(_) => {
                    match tfd_value::scan::find_any3(&chunk[i..], d0, b'\n', b'\r') {
                        None => i = n, // the whole remaining chunk is content
                        Some(off) => {
                            i += off;
                            let b = chunk[i];
                            match b {
                                b'\n' | b'\r' => self.end_record(&mut i, b, boundary),
                                _ => {
                                    // d0: a (possibly partial) delimiter.
                                    i += 1;
                                    self.mode = if dlen == 1 {
                                        CMode::Start(0)
                                    } else {
                                        CMode::Unquoted(1)
                                    };
                                }
                            }
                        }
                    }
                }
                // Hot loop: quoted content runs to the next quote.
                CMode::Quoted => match tfd_value::scan::find_byte(&chunk[i..], b'"') {
                    None => i = n,
                    Some(off) => {
                        i += off + 1;
                        self.mode = CMode::QuoteQuote;
                    }
                },
                CMode::QuoteQuote => {
                    if chunk[i] == b'"' {
                        // `""` escape: still inside the quoted field.
                        i += 1;
                        self.mode = CMode::Quoted;
                    } else {
                        // The previous quote closed the field.
                        self.mode = CMode::AfterQuote(0);
                    }
                }
                CMode::AfterQuote(_) => {
                    let b = chunk[i];
                    match b {
                        b'\n' | b'\r' => self.end_record(&mut i, b, boundary),
                        _ if b == d0 => {
                            i += 1;
                            self.mode = if dlen == 1 {
                                CMode::Start(0)
                            } else {
                                CMode::AfterQuote(1)
                            };
                        }
                        _ => {
                            // Stray byte after a closing quote: the
                            // record parse reproduces the one-shot
                            // `CharAfterQuote` error.
                            i += 1;
                            self.mode = CMode::Unquoted(0);
                        }
                    }
                }
            }
        }
    }

    /// Consumes the line-ending byte `b` at `chunk[*i]`. A LF ends the
    /// record immediately; a CR defers the boundary until the next byte
    /// (it may be the first half of a CRLF).
    fn end_record(&mut self, i: &mut usize, b: u8, boundary: &mut impl FnMut(usize)) {
        *i += 1;
        if b == b'\r' {
            self.mode = CMode::PendingLf;
        } else {
            self.mode = CMode::Between;
            boundary(*i);
        }
    }

    /// True when the last fed byte was inside a record — including the
    /// half-open state after a bare `\r`, whose boundary is still
    /// deferred (the stream ending there is a complete record; the
    /// pipeline's tail handling covers it).
    pub fn in_record(&self) -> bool {
        !matches!(self.mode, CMode::Between)
    }
}
