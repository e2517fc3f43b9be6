//! The retained char-level XML parser — the honesty baseline for the
//! byte-level `crate::parser`.
//!
//! This module preserves the pre-byte-level implementation: a
//! `Peekable<Chars>` state machine whose lookahead works by **cloning the
//! char iterator** (`eat`, the prolog/misc dispatchers, CDATA scanning)
//! and which tracks line/column eagerly on every `bump`. The byte-level
//! parser replaces all of that with offset-based probing and lazy
//! positions. perfbench's oracle (`perfbench/src/oracle.rs`) checks the
//! shapes of its generated XML documents against this parser.
//!
//! Behavior is identical to [`crate::parse`] on well-formed documents
//! (the round-trip suite in `tests/parser_roundtrips.rs` asserts
//! agreement); keep it compiling but do not extend it. Two deliberate
//! divergences on *non*-well-formed input: this parser accidentally
//! accepts any Unicode whitespace between attributes (the byte parser
//! enforces the spec's `S` production) and counts only LF when
//! reporting error lines (the byte parser counts LF/CRLF/bare CR
//! uniformly).

use crate::parser::{XmlError, XmlErrorKind, XmlOptions};
use crate::{Attribute, Element, XmlNode};
use tfd_value::Name;

/// Parses an XML document through the retained char-level parser.
///
/// # Errors
///
/// Returns [`XmlError`] for malformed input.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    parse_with(input, &XmlOptions::default())
}

/// Parses with explicit [`XmlOptions`] through the retained char-level
/// parser.
///
/// # Errors
///
/// As [`parse`], plus [`XmlErrorKind::TooDeep`] when nesting exceeds the
/// configured limit.
pub fn parse_with(input: &str, options: &XmlOptions) -> Result<Element, XmlError> {
    let mut p = XmlParser::new(input, options.clone());
    p.skip_prolog()?;
    let root = p.parse_element(0)?;
    p.skip_misc()?;
    if !p.at_eof() {
        return Err(p.error(XmlErrorKind::TrailingContent));
    }
    Ok(root)
}

struct XmlParser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    column: usize,
    options: XmlOptions,
}

impl<'a> XmlParser<'a> {
    fn new(input: &'a str, options: XmlOptions) -> Self {
        XmlParser {
            chars: input.chars().peekable(),
            line: 1,
            column: 1,
            options,
        }
    }

    fn error(&self, kind: XmlErrorKind) -> XmlError {
        XmlError {
            kind,
            line: self.line,
            column: self.column,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn at_eof(&mut self) -> bool {
        self.peek().is_none()
    }

    fn expect(&mut self, want: char, ctx: &'static str) -> Result<(), XmlError> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(self.error(XmlErrorKind::Unexpected {
                found: c,
                expected: ctx,
            })),
            None => Err(self.error(XmlErrorKind::UnexpectedEof(ctx))),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    /// Consumes `text` if it is next in the input (used after `<`).
    fn eat(&mut self, text: &str) -> bool {
        // Clone-based lookahead: cheap because `text` is short.
        let mut probe = self.chars.clone();
        for want in text.chars() {
            if probe.next() != Some(want) {
                return false;
            }
        }
        for _ in text.chars() {
            self.bump();
        }
        true
    }

    /// Skips `<?...?>`, `<!--...-->`, `<!DOCTYPE...>` and whitespace before
    /// the root element.
    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some('<') => {}
                Some(found) => {
                    return Err(self.error(XmlErrorKind::Unexpected {
                        found,
                        expected: "'<'",
                    }))
                }
                None => return Err(self.error(XmlErrorKind::NoRoot)),
            }
            let mut probe = self.chars.clone();
            probe.next(); // '<'
            match probe.next() {
                Some('?') => self.skip_pi()?,
                Some('!') => {
                    let mut probe2 = probe.clone();
                    if probe2.next() == Some('-') {
                        self.skip_comment()?;
                    } else {
                        self.skip_doctype()?;
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Skips comments/PIs/whitespace after the root element.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.at_eof() {
                return Ok(());
            }
            let mut probe = self.chars.clone();
            if probe.next() != Some('<') {
                return Ok(());
            }
            match probe.next() {
                Some('?') => self.skip_pi()?,
                Some('!') => self.skip_comment()?,
                _ => return Ok(()),
            }
        }
    }

    fn skip_pi(&mut self) -> Result<(), XmlError> {
        self.expect('<', "processing instruction")?;
        self.expect('?', "processing instruction")?;
        loop {
            match self.bump() {
                None => {
                    return Err(self.error(XmlErrorKind::UnexpectedEof("processing instruction")))
                }
                Some('?') if self.peek() == Some('>') => {
                    self.bump();
                    return Ok(());
                }
                Some(_) => {}
            }
        }
    }

    fn skip_comment(&mut self) -> Result<(), XmlError> {
        self.expect('<', "comment")?;
        self.expect('!', "comment")?;
        self.expect('-', "comment")?;
        self.expect('-', "comment")?;
        let mut dashes = 0usize;
        loop {
            match self.bump() {
                None => return Err(self.error(XmlErrorKind::UnexpectedEof("comment"))),
                Some('-') => dashes += 1,
                Some('>') if dashes >= 2 => return Ok(()),
                Some(_) => dashes = 0,
            }
        }
    }

    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        self.expect('<', "DOCTYPE")?;
        self.expect('!', "DOCTYPE")?;
        // Consume until the matching '>', tracking nested '[' ... ']' for
        // internal subsets.
        let mut bracket_depth = 0usize;
        loop {
            match self.bump() {
                None => return Err(self.error(XmlErrorKind::UnexpectedEof("DOCTYPE"))),
                Some('[') => bracket_depth += 1,
                Some(']') => bracket_depth = bracket_depth.saturating_sub(1),
                Some('>') if bracket_depth == 0 => return Ok(()),
                Some(_) => {}
            }
        }
    }

    fn is_name_start(c: char) -> bool {
        c.is_alphabetic() || c == '_' || c == ':'
    }

    fn is_name_char(c: char) -> bool {
        Self::is_name_start(c) || c.is_numeric() || c == '-' || c == '.'
    }

    #[allow(clippy::expect_used)] // checked invariant, documented at each site
    fn parse_name(&mut self) -> Result<String, XmlError> {
        let mut name = String::new();
        match self.peek() {
            Some(c) if Self::is_name_start(c) => {
                name.push(c);
                self.bump();
            }
            Some(c) => {
                return Err(self.error(XmlErrorKind::Unexpected {
                    found: c,
                    expected: "a name",
                }))
            }
            None => return Err(self.error(XmlErrorKind::UnexpectedEof("name"))),
        }
        while matches!(self.peek(), Some(c) if Self::is_name_char(c)) {
            name.push(self.bump().expect("peeked"));
        }
        Ok(name)
    }

    fn parse_entity(&mut self) -> Result<char, XmlError> {
        // Called after consuming '&'.
        let mut body = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error(XmlErrorKind::UnexpectedEof("entity"))),
                Some(';') => break,
                Some(c) => body.push(c),
            }
            if body.len() > 12 {
                return Err(self.error(XmlErrorKind::UnknownEntity(body)));
            }
        }
        match body.as_str() {
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
                        .ok_or_else(|| self.error(XmlErrorKind::BadCharRef(body.clone())))
                } else if let Some(dec) = body.strip_prefix('#') {
                    dec.parse::<u32>()
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.error(XmlErrorKind::BadCharRef(body.clone())))
                } else {
                    Err(self.error(XmlErrorKind::UnknownEntity(body)))
                }
            }
        }
    }

    fn parse_attr_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.bump() {
            Some(c @ ('"' | '\'')) => c,
            Some(c) => {
                return Err(self.error(XmlErrorKind::Unexpected {
                    found: c,
                    expected: "a quoted attribute value",
                }))
            }
            None => return Err(self.error(XmlErrorKind::UnexpectedEof("attribute value"))),
        };
        let mut value = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error(XmlErrorKind::UnexpectedEof("attribute value"))),
                Some(c) if c == quote => return Ok(value),
                Some('&') => value.push(self.parse_entity()?),
                Some(c) => value.push(c),
            }
        }
    }

    #[allow(clippy::expect_used)] // checked invariant, documented at each site
    fn parse_element(&mut self, depth: usize) -> Result<Element, XmlError> {
        if depth >= self.options.max_depth {
            return Err(self.error(XmlErrorKind::TooDeep(self.options.max_depth)));
        }
        self.expect('<', "element")?;
        let name = self.parse_name()?;
        let mut element = Element::new(name);

        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some('>') => {
                    self.bump();
                    break;
                }
                Some('/') => {
                    self.bump();
                    self.expect('>', "self-closing tag")?;
                    return Ok(element);
                }
                Some(c) if Self::is_name_start(c) => {
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    self.expect('=', "attribute")?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    element.attributes.push(Attribute {
                        name: Name::new(attr_name),
                        value,
                    });
                }
                Some(c) => {
                    return Err(self.error(XmlErrorKind::Unexpected {
                        found: c,
                        expected: "attribute, '>' or '/>'",
                    }))
                }
                None => return Err(self.error(XmlErrorKind::UnexpectedEof("start tag"))),
            }
        }

        // Content.
        let mut text_run = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error(XmlErrorKind::UnexpectedEof("element content"))),
                Some('<') => {
                    let mut probe = self.chars.clone();
                    probe.next(); // '<'
                    match probe.next() {
                        Some('/') => {
                            self.flush_text(&mut element, &mut text_run);
                            self.bump(); // '<'
                            self.bump(); // '/'
                            let close = self.parse_name()?;
                            self.skip_ws();
                            self.expect('>', "end tag")?;
                            if close != element.name {
                                return Err(self.error(XmlErrorKind::MismatchedTag {
                                    open: element.name.as_str().to_owned(),
                                    close,
                                }));
                            }
                            return Ok(element);
                        }
                        Some('!') => {
                            let mut probe2 = probe.clone();
                            if probe2.next() == Some('[') {
                                // CDATA section: <![CDATA[ ... ]]>
                                if !self.eat("<![CDATA[") {
                                    return Err(self.error(XmlErrorKind::Unexpected {
                                        found: '[',
                                        expected: "CDATA section",
                                    }));
                                }
                                self.read_cdata(&mut text_run)?;
                            } else {
                                self.flush_text(&mut element, &mut text_run);
                                self.skip_comment()?;
                            }
                        }
                        Some('?') => {
                            self.flush_text(&mut element, &mut text_run);
                            self.skip_pi()?;
                        }
                        _ => {
                            self.flush_text(&mut element, &mut text_run);
                            let child = self.parse_element(depth + 1)?;
                            element.children.push(XmlNode::Element(child));
                        }
                    }
                }
                Some('&') => {
                    self.bump();
                    text_run.push(self.parse_entity()?);
                }
                Some(_) => {
                    text_run.push(self.bump().expect("peeked"));
                }
            }
        }
    }

    fn read_cdata(&mut self, text_run: &mut String) -> Result<(), XmlError> {
        // Already consumed "<![CDATA[". Read until "]]>".
        loop {
            match self.bump() {
                None => return Err(self.error(XmlErrorKind::UnexpectedEof("CDATA section"))),
                Some(']') => {
                    let mut probe = self.chars.clone();
                    if probe.next() == Some(']') && probe.next() == Some('>') {
                        self.bump();
                        self.bump();
                        return Ok(());
                    }
                    text_run.push(']');
                }
                Some(c) => text_run.push(c),
            }
        }
    }

    fn flush_text(&mut self, element: &mut Element, text_run: &mut String) {
        if text_run.is_empty() {
            return;
        }
        let run = std::mem::take(text_run);
        if self.options.ignore_whitespace_text && run.chars().all(char::is_whitespace) {
            return;
        }
        element.children.push(XmlNode::Text(run));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_still_parses_the_happy_path() {
        let e = parse(r#"<doc id="1"><item x='2'>Hi &amp; bye</item><!-- c --></doc>"#).unwrap();
        assert_eq!(e.name, "doc");
        assert_eq!(e.attribute("id"), Some("1"));
        let item = e.child_elements().next().unwrap();
        assert_eq!(item.attribute("x"), Some("2"));
        assert_eq!(item.text(), "Hi & bye");
    }

    #[test]
    fn reference_rejects_malformed_input() {
        for bad in ["", "<a", "<a></b>", "<a>&nope;</a>", "<a/><b/>"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
