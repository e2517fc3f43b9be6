//! The resumable XML record-boundary scanner.
//!
//! [`BoundaryScanner`] accepts arbitrary `feed(&[u8])` slices — the
//! stream may be split at **any** byte boundary, including
//! mid-UTF-8-sequence, mid-entity, mid-CDATA-terminator or between the
//! `-` bytes of a comment close — and reports where each top-level
//! document ends (the `>` closing its root element). A stream is a
//! sequence of documents laid end to end (each with its own optional
//! prolog), exactly the documents the one-shot
//! [`parse_many_values`](crate::parse_many_values) returns.
//!
//! The scanner is an explicit state machine (`XMode`, one small enum
//! step per byte, no recursion) tracking element depth,
//! tag/attribute-quote state, comments, CDATA sections, DOCTYPE bracket
//! nesting, processing instructions and entity length. It is
//! deliberately lenient on malformed markup: it only needs to keep the
//! record open (or cut it somewhere at or past the offending bytes) — the
//! record parse then reports exactly the one-shot error.
//!
//! The ingest pipeline (`tfd_core::engine::run`) cuts corpora into
//! whole-record bundles at these boundaries and parses each bundle with
//! [`parse_many_values_each`](crate::parse_many_values_each).

/// Scanner state between two consumed bytes. Every variant is
/// resumable: a chunk may end (and the next begin) in any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum XMode {
    /// Whitespace between documents.
    Between,
    /// Inside a record, outside markup: character data, or the gaps of
    /// the prolog before the root element opens.
    Text,
    /// Inside an entity (`&...;`), in text (`ret == 0`) or inside an
    /// attribute value quoted by `ret`. `len` counts the body's bytes —
    /// past 12 the one-shot parser fails, so the record is cut to
    /// reproduce that error — and `pending` counts the remaining
    /// continuation bytes of the character in flight (the limit is
    /// checked at character granularity, exactly like the parser).
    Ent { ret: u8, len: u8, pending: u8 },
    /// Seen `<`.
    Lt,
    /// Seen `<!`.
    LtBang,
    /// Seen `<!-`.
    LtBangDash,
    /// Inside `<!--`, tracking trailing dashes (`-->` may straddle
    /// chunks).
    Comment { dashes: u8 },
    /// Inside `<!DOCTYPE`, tracking `[...]` internal-subset nesting.
    Doctype { brackets: u8 },
    /// Inside `<![CDATA[`, tracking trailing `]` bytes (`]]>` may
    /// straddle chunks).
    Cdata { brackets: u8 },
    /// Inside `<?...?>`.
    Pi { q: bool },
    /// Inside a start tag: `quote` is the active attribute-value quote
    /// (0 when none), `slash` whether the previous byte was the `/` of a
    /// potential self-close.
    OpenTag { quote: u8, slash: bool },
    /// Inside an end tag (`</...>`).
    CloseTag,
}

/// What the scanner decided for the current byte.
enum Step {
    /// Consume the byte; the record (if any) continues.
    Consume(XMode),
    /// Consume the byte and complete the record *including* it.
    ConsumeEnd,
    /// Switch state and re-examine the same byte there.
    Reprocess(XMode),
}

/// A scan-only record-boundary finder: it never materializes a value,
/// only reports where top-level documents end (the `>` closing each root
/// element).
///
/// The ingest pipeline (`tfd_core::engine`) cuts corpora into bundles
/// that never split a document at these offsets: every reported offset
/// is a position between records. Inter-document misc (comments, PIs)
/// is glued to the *following* document.
///
/// ```
/// let mut s = tfd_xml::stream::BoundaryScanner::new();
/// let mut cuts = Vec::new();
/// s.feed(b"<a x=\"1\"/> <b><c/></b>", &mut |off| cuts.push(off));
/// assert_eq!(cuts, vec![10, 22]);
/// assert!(!s.in_record());
/// ```
#[derive(Debug, Clone)]
pub struct BoundaryScanner {
    mode: XMode,
    /// Element nesting depth of the current record's root.
    depth: usize,
}

impl Default for BoundaryScanner {
    fn default() -> Self {
        BoundaryScanner::new()
    }
}

impl BoundaryScanner {
    /// A scanner positioned between documents at the start of a stream.
    pub fn new() -> BoundaryScanner {
        BoundaryScanner {
            mode: XMode::Between,
            depth: 0,
        }
    }

    /// True when the last fed byte was inside a document (the stream
    /// ends with an unterminated document or trailing misc).
    pub fn in_record(&self) -> bool {
        !matches!(self.mode, XMode::Between)
    }

    /// Feeds one chunk; `boundary` receives the chunk-relative offset
    /// just past each document completed within it (state carries across
    /// calls, so chunks may split documents anywhere).
    pub fn feed(&mut self, chunk: &[u8], boundary: &mut impl FnMut(usize)) {
        let n = chunk.len();
        let mut i = 0usize;
        while i < n {
            if self.in_record() {
                match self.run(chunk, i) {
                    Some(end) => {
                        boundary(end);
                        i = end;
                    }
                    None => i = n,
                }
            } else {
                match chunk[i] {
                    b' ' | b'\t' | b'\r' | b'\n' => i += 1,
                    _ => self.open(),
                }
            }
        }
    }

    /// Opens a record at the current byte (which is *not* consumed — the
    /// text state re-examines it; misbytes too: their parse reproduces
    /// the one-shot error).
    fn open(&mut self) {
        self.depth = 0;
        self.mode = XMode::Text;
    }

    /// Advances through `chunk[i..]` while inside a record. Returns
    /// `Some(end)` when the record completes — `chunk[..end]` holds its
    /// final byte (the `>` closing its root), the state is back between
    /// records, and scanning resumes at `end` — or `None` when the chunk
    /// is exhausted with the record still open.
    ///
    /// The hot modes (character data, tags, quoted attribute values) hop
    /// special-to-special with the shared SWAR scanners
    /// ([`tfd_value::scan`]) instead of stepping byte by byte.
    fn run(&mut self, chunk: &[u8], mut i: usize) -> Option<usize> {
        let n = chunk.len();
        while i < n {
            match self.mode {
                XMode::Between => unreachable!("run is only called inside a record"),
                // Hot loop: in character data only markup and entity
                // starts matter.
                XMode::Text => match tfd_value::scan::find_any2(&chunk[i..], b'<', b'&') {
                    None => return None,
                    Some(off) => {
                        i += off + 1;
                        self.mode = if chunk[i - 1] == b'<' {
                            XMode::Lt
                        } else {
                            XMode::Ent {
                                ret: 0,
                                len: 0,
                                pending: 0,
                            }
                        };
                    }
                },
                // Hot loop: inside a start tag, outside quotes. Only `>`
                // and the quote openers end the hop; the `/` of a
                // potential self-close is recovered by looking at the
                // byte *before* the `>` (falling back to the carried
                // flag when the `>` is the first byte scanned).
                XMode::OpenTag { quote: 0, slash } => {
                    match tfd_value::scan::find_any3(&chunk[i..], b'>', b'"', b'\'') {
                        None => {
                            self.mode = XMode::OpenTag {
                                quote: 0,
                                slash: chunk[n - 1] == b'/',
                            };
                            return None;
                        }
                        Some(off) => {
                            let p = i + off;
                            let b = chunk[p];
                            i = p + 1;
                            if b == b'>' {
                                let slash = if off == 0 {
                                    slash
                                } else {
                                    chunk[p - 1] == b'/'
                                };
                                if slash {
                                    // Self-closing: no depth change.
                                    if self.depth == 0 {
                                        self.mode = XMode::Between;
                                        return Some(i);
                                    }
                                    self.mode = XMode::Text;
                                } else {
                                    self.depth += 1;
                                    self.mode = XMode::Text;
                                }
                            } else {
                                self.mode = XMode::OpenTag {
                                    quote: b,
                                    slash: false,
                                };
                            }
                        }
                    }
                }
                // Hot loop: inside a quoted attribute value.
                XMode::OpenTag { quote, .. } => {
                    match tfd_value::scan::find_any2(&chunk[i..], quote, b'&') {
                        None => return None,
                        Some(off) => {
                            i += off + 1;
                            self.mode = if chunk[i - 1] == quote {
                                XMode::OpenTag {
                                    quote: 0,
                                    slash: false,
                                }
                            } else {
                                XMode::Ent {
                                    ret: quote,
                                    len: 0,
                                    pending: 0,
                                }
                            };
                        }
                    }
                }
                // Hot loop: inside an end tag.
                XMode::CloseTag => match tfd_value::scan::find_byte(&chunk[i..], b'>') {
                    None => return None,
                    Some(off) => {
                        i += off + 1;
                        if self.depth <= 1 {
                            // Root closed (or a stray close tag whose
                            // record parse reports the one-shot error).
                            self.depth = 0;
                            self.mode = XMode::Between;
                            return Some(i);
                        }
                        self.depth -= 1;
                        self.mode = XMode::Text;
                    }
                },
                // Cold modes (markup dispatch, comments, CDATA, DOCTYPE,
                // PIs, entities): one explicit transition per byte.
                _ => match self.step(chunk[i]) {
                    Step::Consume(mode) => {
                        self.mode = mode;
                        i += 1;
                    }
                    Step::ConsumeEnd => {
                        self.mode = XMode::Between;
                        return Some(i + 1);
                    }
                    Step::Reprocess(mode) => {
                        self.mode = mode;
                    }
                },
            }
        }
        None
    }

    /// One scanner transition for a byte inside a record (cold modes;
    /// the hot modes are inlined in [`BoundaryScanner::run`]).
    fn step(&mut self, b: u8) -> Step {
        use XMode::*;
        match self.mode {
            Between => unreachable!("handled by the caller"),
            Text | OpenTag { .. } | CloseTag => unreachable!("inlined in run"),
            Ent { ret, len, pending } => {
                if pending > 0 {
                    // Finish the character in flight, then apply the
                    // parser's 12-byte limit at character granularity.
                    if pending == 1 && len > 12 {
                        return Step::ConsumeEnd;
                    }
                    return Step::Consume(Ent {
                        ret,
                        len,
                        pending: pending - 1,
                    });
                }
                if b == b';' {
                    return Step::Consume(self.ent_return(ret));
                }
                let clen = if b < 0x80 { 1 } else { utf8_len(b) };
                let len = len.saturating_add(clen);
                if clen == 1 && len > 12 {
                    // Entity body exceeded the parser's limit: cut the
                    // record here so its parse reproduces the
                    // `UnknownEntity` error at this exact position.
                    Step::ConsumeEnd
                } else {
                    Step::Consume(Ent {
                        ret,
                        len,
                        pending: clen - 1,
                    })
                }
            }
            Lt => match b {
                b'/' => Step::Consume(CloseTag),
                b'!' => Step::Consume(LtBang),
                b'?' => Step::Consume(Pi { q: false }),
                _ => Step::Consume(OpenTag {
                    quote: 0,
                    slash: false,
                }),
            },
            LtBang => {
                if self.depth == 0 {
                    // Prolog dispatch: `<!-` opens a comment, anything
                    // else is DOCTYPE-ish (matching `skip_prolog`).
                    if b == b'-' {
                        Step::Consume(LtBangDash)
                    } else {
                        Step::Reprocess(Doctype { brackets: 0 })
                    }
                } else {
                    // Content dispatch: `<![` opens CDATA, anything else
                    // is a comment (matching `parse_element`).
                    match b {
                        b'[' => Step::Consume(Cdata { brackets: 0 }),
                        b'-' => Step::Consume(LtBangDash),
                        _ => Step::Consume(Comment { dashes: 0 }),
                    }
                }
            }
            LtBangDash => Step::Consume(Comment { dashes: 0 }),
            Comment { dashes } => match b {
                b'-' => Step::Consume(Comment {
                    dashes: (dashes + 1).min(2),
                }),
                b'>' if dashes >= 2 => Step::Consume(Text),
                _ => Step::Consume(Comment { dashes: 0 }),
            },
            Doctype { brackets } => match b {
                b'[' => Step::Consume(Doctype {
                    brackets: brackets.saturating_add(1),
                }),
                b']' => Step::Consume(Doctype {
                    brackets: brackets.saturating_sub(1),
                }),
                b'>' if brackets == 0 => Step::Consume(Text),
                _ => Step::Consume(Doctype { brackets }),
            },
            Cdata { brackets } => match b {
                b']' => Step::Consume(Cdata {
                    brackets: (brackets + 1).min(2),
                }),
                b'>' if brackets >= 2 => Step::Consume(Text),
                _ => Step::Consume(Cdata { brackets: 0 }),
            },
            Pi { q } => match b {
                b'>' if q => Step::Consume(Text),
                _ => Step::Consume(Pi { q: b == b'?' }),
            },
        }
    }

    /// Where an entity returns to when its `;` arrives.
    fn ent_return(&self, ret: u8) -> XMode {
        if ret == 0 {
            XMode::Text
        } else {
            XMode::OpenTag {
                quote: ret,
                slash: false,
            }
        }
    }
}

/// Byte length of the UTF-8 character introduced by lead byte `b`.
fn utf8_len(b: u8) -> u8 {
    match b {
        0xC2..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}
