//! The resumable JSON record-boundary scanner.
//!
//! [`BoundaryScanner`] accepts arbitrary `feed(&[u8])` slices — a corpus
//! may be split at **any** byte boundary, including mid-UTF-8-sequence
//! and mid-escape — and reports where each whitespace-separated
//! top-level document ends, exactly the documents the one-shot
//! [`parse_many_values`](crate::parse_many_values) returns.
//!
//! Two engines share one state. Inside container records, wherever 64
//! bytes are left, the structural-block walk of
//! [`tfd_value::scan::json_blocks`] finds quotes, escapes and brackets
//! a whole block at a time and reports every record end it passes,
//! across any number of whitespace-separated containers. Everything
//! else — top-level scalars, strings and junk between records, a block
//! with a backslash outside any string, the last bytes of a chunk —
//! runs on an explicit per-byte state machine (`Mode`/`NumState`, one
//! small enum step per byte, no recursion) that tracks just enough
//! structure (bracket depth, string/escape state, the RFC 8259 number
//! grammar, keyword runs) to find the byte range of each record. The
//! walk hands its state (depth, in-string, escaped) to the machine and
//! back, so the two agree on every boundary wherever chunk boundaries
//! fall; [`BoundaryScanner::feed_naive`] runs the machine alone, the
//! reference the parity suite (`tests/scan_backends.rs`) checks every
//! backend's walk against.
//!
//! The ingest pipeline (`tfd_core::engine::run`) cuts corpora into
//! whole-record bundles at these boundaries and parses each bundle with
//! [`parse_many_values_each`](crate::parse_many_values_each); when that
//! parse fails, the failing record runs from the boundary it reports to
//! the next boundary this scanner finds.

use tfd_value::scan::{JsonWalk, JSON_BLOCK};

/// Scanner state between two consumed bytes. Every variant is resumable:
/// a chunk may end (and the next begin) in any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Between documents; whitespace is consumed without buffering.
    Between,
    /// Inside a container record (`depth ≥ 1`), outside any string.
    Container,
    /// Inside a string literal (a top-level string document when
    /// `depth == 0`, otherwise within a container).
    Str,
    /// Inside a string literal, immediately after a backslash.
    StrEsc,
    /// Inside a top-level number document.
    Num(NumState),
    /// A number-grammar violation was found mid-token: the record must
    /// still take one more character (the parser's `bad_number` payload
    /// extends one character past the failure point). `None` = the next
    /// lead byte is still awaited; `Some(n)` = `n` continuation bytes of
    /// that character remain.
    NumTail(Option<u8>),
    /// Inside a top-level `true`/`false`/`null`-ish bare word.
    Keyword,
    /// A single non-ASCII character forming a one-char junk record;
    /// `0` continuation bytes remaining completes it.
    JunkChar(u8),
}

/// Where the scanner stands inside the RFC 8259 number grammar — the
/// states of [`crate::parser`]'s `parse_number`, made explicit so the
/// token can be suspended at any byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NumState {
    /// Seen `-`; an integer digit is required.
    Minus,
    /// The integer part is exactly `0` (accepting).
    IntZero,
    /// In `1-9` integer digits (accepting).
    IntDigits,
    /// Seen `.`; a fraction digit is required.
    Dot,
    /// In fraction digits (accepting).
    Frac,
    /// Seen `e`/`E`; a sign or exponent digit is required.
    Exp,
    /// Seen an exponent sign; a digit is required.
    ExpSign,
    /// In exponent digits (accepting).
    ExpDigits,
}

impl NumState {
    /// States where the token forms a complete number (the one-shot
    /// parser would return successfully were the input to stop here).
    fn accepting(self) -> bool {
        matches!(
            self,
            NumState::IntZero | NumState::IntDigits | NumState::Frac | NumState::ExpDigits
        )
    }
}

/// What the scanner decided for the current byte.
enum Step {
    /// Consume the byte; the record (if any) continues.
    Consume(Mode),
    /// Consume the byte and complete the record *including* it.
    ConsumeEnd,
    /// Complete the record *before* this byte, then re-examine the byte
    /// as the potential start of the next record.
    CutBefore,
}

/// A scan-only record-boundary finder: it never materializes a value,
/// only reports where top-level documents end.
///
/// The ingest pipeline (`tfd_core::engine`) cuts corpora into bundles
/// that never split a record at these offsets: every reported offset is
/// a position between records, so a fresh parser started there sees
/// exactly the remaining record sequence.
///
/// ```
/// let mut s = tfd_json::stream::BoundaryScanner::new();
/// let mut cuts = Vec::new();
/// s.feed(br#"{"a": 1} [2, "}"] 7 "#, &mut |off| cuts.push(off));
/// assert_eq!(cuts, vec![8, 17, 19]);
/// assert!(!s.in_record());
/// ```
#[derive(Debug, Clone)]
pub struct BoundaryScanner {
    mode: Mode,
    /// Container nesting depth of the current record.
    depth: usize,
}

impl Default for BoundaryScanner {
    fn default() -> Self {
        BoundaryScanner::new()
    }
}

impl BoundaryScanner {
    /// A scanner positioned between records at the start of a stream.
    pub fn new() -> BoundaryScanner {
        BoundaryScanner {
            mode: Mode::Between,
            depth: 0,
        }
    }

    /// True when the last fed byte was inside a record (the stream ends
    /// with an unterminated document).
    pub fn in_record(&self) -> bool {
        !matches!(self.mode, Mode::Between)
    }

    /// Feeds one chunk; `boundary` receives the chunk-relative offset
    /// just past each record completed within it (state carries across
    /// calls, so chunks may split records anywhere).
    pub fn feed(&mut self, chunk: &[u8], boundary: &mut impl FnMut(usize)) {
        self.scan(chunk, boundary, true);
    }

    /// [`feed`](BoundaryScanner::feed) on the per-byte state machine
    /// alone: the structural-block walk's naive twin, which every
    /// backend's walk must match boundary for boundary.
    pub fn feed_naive(&mut self, chunk: &[u8], boundary: &mut impl FnMut(usize)) {
        self.scan(chunk, boundary, false);
    }

    fn scan(&mut self, chunk: &[u8], boundary: &mut impl FnMut(usize), blocks: bool) {
        let n = chunk.len();
        let mut i = 0usize;
        while i < n {
            // `depth > 0` only inside a container record.
            if blocks && self.depth > 0 && n - i >= JSON_BLOCK {
                let mut walk = self.walk();
                let stop =
                    tfd_value::scan::json_blocks(chunk, i, &mut walk, &mut |end| boundary(end));
                self.set_walk(walk);
                if stop > i {
                    i = stop;
                    continue;
                }
                // The walk declined this block: step it byte by byte.
                let to = i + JSON_BLOCK;
                match self.run(&chunk[..to], i) {
                    Some(end) => {
                        boundary(end);
                        i = end;
                    }
                    None => i = to,
                }
            } else if self.in_record() {
                match self.run(chunk, i) {
                    Some(end) => {
                        boundary(end);
                        i = end;
                    }
                    None => i = n,
                }
            } else {
                let b = chunk[i];
                i += 1;
                if !matches!(b, b' ' | b'\t' | b'\r' | b'\n') && self.open(b) {
                    boundary(i);
                }
            }
        }
    }

    /// The container-record state as the block walk carries it.
    fn walk(&self) -> JsonWalk {
        JsonWalk {
            depth: self.depth,
            in_string: matches!(self.mode, Mode::Str | Mode::StrEsc),
            escaped: self.mode == Mode::StrEsc,
        }
    }

    /// Takes the state back from the block walk.
    fn set_walk(&mut self, walk: JsonWalk) {
        self.depth = walk.depth;
        self.mode = match walk {
            JsonWalk { depth: 0, .. } => Mode::Between,
            JsonWalk { escaped: true, .. } => Mode::StrEsc,
            JsonWalk {
                in_string: true, ..
            } => Mode::Str,
            _ => Mode::Container,
        };
    }

    /// Classifies the first byte of a record (the one-shot `parse_value`
    /// dispatch, minus whitespace, which the between-records state
    /// already consumed). Returns `true` when the byte completes the
    /// record by itself (one-byte junk records).
    fn open(&mut self, b: u8) -> bool {
        match b {
            b'{' | b'[' => {
                self.depth = 1;
                self.mode = Mode::Container;
                false
            }
            b'"' => {
                self.depth = 0;
                self.mode = Mode::Str;
                false
            }
            b'-' => {
                self.mode = Mode::Num(NumState::Minus);
                false
            }
            b'0' => {
                self.mode = Mode::Num(NumState::IntZero);
                false
            }
            b'1'..=b'9' => {
                self.mode = Mode::Num(NumState::IntDigits);
                false
            }
            b't' | b'f' | b'n' => {
                self.mode = Mode::Keyword;
                false
            }
            // Multi-byte character: a one-char junk record (the parser
            // reports `UnexpectedChar` for it; it needs all its bytes).
            0xC2..=0xF4 => {
                self.mode = Mode::JunkChar(utf8_len(b) - 1);
                false
            }
            // Any other single byte — `} ] : ,`, stray ASCII, or an
            // invalid UTF-8 lead — is a one-byte junk record whose parse
            // reproduces the one-shot error.
            _ => true,
        }
    }

    /// Advances through `chunk[i..]` while inside a record. Returns
    /// `Some(end)` when the record completes — `chunk[..end]` holds its
    /// final byte, the state is back between records, and scanning
    /// resumes at `end` — or `None` when the chunk is exhausted with the
    /// record still open.
    ///
    /// The two hot modes (inside a container, inside a string) hop
    /// special-to-special with the shared `find_*` scanners
    /// ([`tfd_value::scan`]) instead of stepping byte by byte; `feed`
    /// only lands here for the bytes the block walk leaves.
    fn run(&mut self, chunk: &[u8], mut i: usize) -> Option<usize> {
        let n = chunk.len();
        while i < n {
            match self.mode {
                Mode::Between => unreachable!("run is only called inside a record"),
                // Hot loop: inside a container only brackets and quotes
                // matter.
                Mode::Container => {
                    match tfd_value::scan::find_any5(&chunk[i..], b'{', b'}', b'[', b']', b'"') {
                        None => return None,
                        Some(off) => {
                            i += off;
                            let b = chunk[i];
                            i += 1;
                            match b {
                                b'"' => self.mode = Mode::Str,
                                b'{' | b'[' => self.depth += 1,
                                _ => {
                                    self.depth -= 1;
                                    if self.depth == 0 {
                                        self.mode = Mode::Between;
                                        return Some(i);
                                    }
                                }
                            }
                        }
                    }
                }
                // Hot loop: inside a string only `"` and `\` matter.
                Mode::Str => match tfd_value::scan::find_any2(&chunk[i..], b'"', b'\\') {
                    None => return None,
                    Some(off) => {
                        i += off;
                        let b = chunk[i];
                        i += 1;
                        if b == b'"' {
                            if self.depth == 0 {
                                self.mode = Mode::Between;
                                return Some(i);
                            }
                            self.mode = Mode::Container;
                        } else {
                            self.mode = Mode::StrEsc;
                        }
                    }
                },
                // Cold modes (escapes, top-level scalars, junk): one
                // explicit transition per byte.
                _ => match self.step(chunk[i]) {
                    Step::Consume(mode) => {
                        self.mode = mode;
                        i += 1;
                    }
                    Step::ConsumeEnd => {
                        self.mode = Mode::Between;
                        return Some(i + 1);
                    }
                    Step::CutBefore => {
                        self.mode = Mode::Between;
                        return Some(i);
                    }
                },
            }
        }
        None
    }

    /// One scanner transition for a byte inside a record (cold modes;
    /// the hot modes are inlined in [`BoundaryScanner::run`]).
    fn step(&self, b: u8) -> Step {
        match self.mode {
            Mode::Between => unreachable!("handled by the caller"),
            Mode::Container | Mode::Str => unreachable!("inlined in run"),
            Mode::StrEsc => Step::Consume(Mode::Str),
            Mode::Num(st) => self.step_number(st, b),
            Mode::NumTail(pending) => match pending {
                None => match b {
                    0xC2..=0xF4 => Step::Consume(Mode::NumTail(Some(utf8_len(b) - 1))),
                    _ => Step::ConsumeEnd,
                },
                Some(1) => Step::ConsumeEnd,
                Some(n) => Step::Consume(Mode::NumTail(Some(n - 1))),
            },
            Mode::Keyword => {
                if b.is_ascii_alphabetic() {
                    Step::Consume(Mode::Keyword)
                } else {
                    Step::CutBefore
                }
            }
            Mode::JunkChar(remaining) => {
                if remaining <= 1 {
                    Step::ConsumeEnd
                } else {
                    Step::Consume(Mode::JunkChar(remaining - 1))
                }
            }
        }
    }

    /// The number grammar, byte at a time. On a violation the record
    /// keeps the violating character — and, in the leading-zero case,
    /// one character beyond it — so the record parse reproduces the
    /// one-shot `BadNumber` payload exactly.
    fn step_number(&self, st: NumState, b: u8) -> Step {
        use NumState::*;
        let next = match (st, b) {
            (Minus, b'0') => Some(IntZero),
            (Minus, b'1'..=b'9') => Some(IntDigits),
            (IntZero, b'0'..=b'9') => {
                // `0` followed by a digit: the parser consumes the digit
                // and its payload extends one more character.
                return Step::Consume(Mode::NumTail(None));
            }
            (IntZero | IntDigits, b'.') => Some(Dot),
            (IntZero | IntDigits | Frac, b'e' | b'E') => Some(Exp),
            (IntDigits, b'0'..=b'9') => Some(IntDigits),
            (Dot | Frac, b'0'..=b'9') => Some(Frac),
            (Exp, b'+' | b'-') => Some(ExpSign),
            (Exp | ExpSign | ExpDigits, b'0'..=b'9') => Some(ExpDigits),
            _ => None,
        };
        match next {
            Some(st2) => Step::Consume(Mode::Num(st2)),
            None if st.accepting() => Step::CutBefore,
            // Violation mid-token: include the violating character.
            None => match b {
                0xC2..=0xF4 => Step::Consume(Mode::NumTail(Some(utf8_len(b) - 1))),
                _ => Step::ConsumeEnd,
            },
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
