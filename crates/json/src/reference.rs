//! The retained **tokenizing reference path**: the original
//! lexer+parser pipeline (a `Token` stream with owned `String` payloads,
//! consumed by recursive descent).
//!
//! The production parser ([`crate::parse`]) is a single-pass byte-level
//! parser that allocates no intermediate token values; this module keeps
//! the token-based implementation compiling and correct as an
//! independent oracle: perfbench checks the shape of every generated
//! JSON record against it (`perfbench/src/oracle.rs`).

use crate::lexer::{Lexer, Pos, Token};
use crate::parser::{ParseError, ParseErrorKind, ParserOptions};
use crate::Json;

/// Parses a complete JSON document.
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
    let mut p = ParserState::new(input, options.clone())?;
    let doc = p.parse_value(0)?;
    p.expect_eof()?;
    Ok(doc)
}

/// Parses several newline- or whitespace-separated JSON documents
/// (JSON-lines style), used when a type provider is given multiple
/// samples in one file.
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
    let options = ParserOptions::default();
    let mut p = ParserState::new(input, options)?;
    let mut docs = Vec::new();
    while p.lookahead != Token::Eof {
        docs.push(p.parse_value(0)?);
    }
    Ok(docs)
}

struct ParserState<'a> {
    lexer: Lexer<'a>,
    lookahead: Token,
    lookahead_pos: Pos,
    options: ParserOptions,
}

impl<'a> ParserState<'a> {
    fn new(input: &'a str, options: ParserOptions) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(input);
        let (lookahead, lookahead_pos) = lexer.next_token()?;
        Ok(ParserState {
            lexer,
            lookahead,
            lookahead_pos,
            options,
        })
    }

    fn advance(&mut self) -> Result<(Token, Pos), ParseError> {
        let (next, next_pos) = self.lexer.next_token()?;
        let tok = std::mem::replace(&mut self.lookahead, next);
        let pos = std::mem::replace(&mut self.lookahead_pos, next_pos);
        Ok((tok, pos))
    }

    fn unexpected<T>(&self, expected: &str) -> Result<T, ParseError> {
        Err(ParseError {
            kind: ParseErrorKind::Unexpected {
                found: self.lookahead.describe(),
                expected: expected.to_owned(),
            },
            pos: self.lookahead_pos,
        })
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.lookahead == Token::Eof {
            Ok(())
        } else {
            Err(ParseError {
                kind: ParseErrorKind::TrailingContent(self.lookahead.describe()),
                pos: self.lookahead_pos,
            })
        }
    }

    fn check_depth(&self, depth: usize) -> Result<(), ParseError> {
        if depth >= self.options.max_depth {
            Err(ParseError {
                kind: ParseErrorKind::TooDeep(self.options.max_depth),
                pos: self.lookahead_pos,
            })
        } else {
            Ok(())
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, ParseError> {
        match &self.lookahead {
            Token::LBrace => self.parse_object(depth),
            Token::LBracket => self.parse_array(depth),
            Token::Str(_) => {
                let (tok, _) = self.advance()?;
                match tok {
                    Token::Str(s) => Ok(Json::String(s)),
                    _ => unreachable!("lookahead was a string"),
                }
            }
            Token::Int(i) => {
                let i = *i;
                self.advance()?;
                Ok(Json::Int(i))
            }
            Token::Float(f) => {
                let f = *f;
                self.advance()?;
                Ok(Json::Float(f))
            }
            Token::True => {
                self.advance()?;
                Ok(Json::Bool(true))
            }
            Token::False => {
                self.advance()?;
                Ok(Json::Bool(false))
            }
            Token::Null => {
                self.advance()?;
                Ok(Json::Null)
            }
            _ => self.unexpected("a JSON value"),
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.check_depth(depth)?;
        self.advance()?; // consume '{'
        let mut members = Vec::new();
        if self.lookahead == Token::RBrace {
            self.advance()?;
            return Ok(Json::Object(members));
        }
        loop {
            let key = match &self.lookahead {
                Token::Str(_) => {
                    let (tok, _) = self.advance()?;
                    match tok {
                        Token::Str(s) => tfd_value::Name::new(s),
                        _ => unreachable!("lookahead was a string"),
                    }
                }
                _ => return self.unexpected("an object key (string)"),
            };
            if self.lookahead != Token::Colon {
                return self.unexpected("':'");
            }
            self.advance()?;
            let value = self.parse_value(depth + 1)?;
            members.push((key, value));
            match self.lookahead {
                Token::Comma => {
                    self.advance()?;
                }
                Token::RBrace => {
                    self.advance()?;
                    return Ok(Json::Object(members));
                }
                _ => return self.unexpected("',' or '}'"),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.check_depth(depth)?;
        self.advance()?; // consume '['
        let mut items = Vec::new();
        if self.lookahead == Token::RBracket {
            self.advance()?;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            match self.lookahead {
                Token::Comma => {
                    self.advance()?;
                }
                Token::RBracket => {
                    self.advance()?;
                    return Ok(Json::Array(items));
                }
                _ => return self.unexpected("',' or ']'"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference path and the byte-level parser agree, document for
    /// document — including error/success classification.
    #[test]
    fn agrees_with_byte_parser() {
        let docs = [
            r#"{"a": [1, 2.5, null, {"b": true}], "c": "x"}"#,
            r#"[ { "name":"Jan", "age":25 }, { "name":"Tomas" } ]"#,
            "[]",
            "{}",
            r#""esc \n A end""#,
            "\"čaj 😀\"",
            "-17",
            "3.25e2",
            "123456789012345678901234567890",
        ];
        for doc in docs {
            assert_eq!(parse(doc).unwrap(), crate::parse(doc).unwrap(), "on {doc}");
        }
        let bad = ["", "[1,", "{1: 2}", "01", "tru", r#""\q""#, "[1] 2"];
        for doc in bad {
            assert!(parse(doc).is_err(), "reference accepted {doc}");
            assert!(crate::parse(doc).is_err(), "byte parser accepted {doc}");
        }
    }

    /// Error positions agree on the documents the test-suite pins.
    #[test]
    fn error_positions_agree() {
        for doc in ["{\n  \"a\": @\n}", "[1, @]", "{ \"čaj\": @ }"] {
            let a = parse(doc).unwrap_err();
            let b = crate::parse(doc).unwrap_err();
            assert_eq!(
                (a.pos.line, a.pos.column),
                (b.pos.line, b.pos.column),
                "on {doc}"
            );
        }
    }
}
