//! Primitive-literal inference for untyped text (§6.2).
//!
//! CSV cells and XML attribute/text content carry no type information;
//! this module decides whether `"42"` is an integer, `"3 kveten"` a plain
//! string, `"#N/A"` a missing value, and `"2012-05-01"` a date.
//!
//! Booleans: `true`/`false` (any capitalization). Note that `0`/`1` parse
//! as integers here — the *bit* shape that makes the paper's `Autofilled`
//! column a boolean is inferred at the shape level (see `tfd-core`), from
//! integer values that are only ever 0 or 1.

use tfd_value::visit::Leaf;
use tfd_value::Value;

/// Options controlling literal inference.
#[derive(Debug, Clone)]
pub struct LiteralOptions {
    /// Cell texts treated as a missing value (mapped to `null`).
    /// Defaults to `#N/A`, `N/A`, `NA`, `NULL`, `null`, `-`, and the
    /// empty string.
    pub missing_values: Vec<String>,
    /// When `true` (default), surrounding ASCII whitespace is trimmed
    /// before interpreting the literal.
    pub trim: bool,
}

impl Default for LiteralOptions {
    fn default() -> Self {
        LiteralOptions {
            missing_values: ["#N/A", "N/A", "NA", "NULL", "null", "-", ""]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            trim: true,
        }
    }
}

/// A calendar date (proleptic Gregorian), produced by [`parse_date`].
///
/// The runtime exposes dates as this plain triple; no time-of-day or
/// timezone handling is needed to reproduce the paper's behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Date {
    /// Year (e.g. 2012).
    pub year: i32,
    /// Month, 1–12.
    pub month: u32,
    /// Day of month, 1–31 (validated against the month).
    pub day: u32,
}

impl Date {
    /// Creates a date, validating month and day ranges (including leap
    /// years for February).
    pub fn new(year: i32, month: u32, day: u32) -> Option<Date> {
        if !(1..=12).contains(&month) {
            return None;
        }
        let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
        let max_day = match month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 if leap => 29,
            2 => 28,
            _ => unreachable!("month validated above"),
        };
        if !(1..=max_day).contains(&day) {
            return None;
        }
        Some(Date { year, month, day })
    }
}

impl std::fmt::Display for Date {
    /// Formats as ISO-8601 `YYYY-MM-DD`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

const MONTH_NAMES: &[(&str, u32)] = &[
    ("january", 1),
    ("february", 2),
    ("march", 3),
    ("april", 4),
    ("may", 5),
    ("june", 6),
    ("july", 7),
    ("august", 8),
    ("september", 9),
    ("october", 10),
    ("november", 11),
    ("december", 12),
    ("jan", 1),
    ("feb", 2),
    ("mar", 3),
    ("apr", 4),
    ("jun", 6),
    ("jul", 7),
    ("aug", 8),
    ("sep", 9),
    ("sept", 9),
    ("oct", 10),
    ("nov", 11),
    ("dec", 12),
];

fn month_by_name(s: &str) -> Option<u32> {
    let s = s.trim_end_matches('.');
    MONTH_NAMES
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(s))
        .map(|&(_, m)| m)
}

/// Attempts to read the text as a calendar date.
///
/// Recognized formats (the paper: "we support many date formats and
/// 'May 3' would be parsed as date"):
///
/// * ISO: `2012-05-01`, `2012/05/01`, optionally followed by a time part
///   (`2012-05-01T10:30:00`, `2012-05-01 10:30`), which is ignored.
/// * US-style: `5/1/2012`, `05/01/2012` (month first).
/// * Month names: `May 3`, `May 3, 2012`, `3 May`, `3 May 2012`
///   (a missing year defaults to 2000, only the date-ness matters for
///   shape inference).
///
/// ```
/// use tfd_csv::parse_date;
/// assert!(parse_date("2012-05-01").is_some());
/// assert!(parse_date("May 3").is_some());
/// assert!(parse_date("3 kveten").is_none()); // the paper's Czech date
/// ```
pub fn parse_date(text: &str) -> Option<Date> {
    let text = text.trim();
    // Most strings are rejected here, before any split: every form below
    // starts (past the commas the month-name forms skip) with a digit, a
    // `+` (a `u32` day may carry one) or a month name.
    let lead = text.trim_start_matches(|c: char| c.is_whitespace() || c == ',');
    match lead.bytes().next()? {
        b'0'..=b'9' | b'+' => {}
        b if b.is_ascii_alphabetic() => {
            let first = lead.split(|c: char| c.is_whitespace() || c == ',').next()?;
            month_by_name(first)?;
        }
        _ => return None,
    }

    // Split a trailing time part off ISO-like datetimes.
    let date_part = if let Some((d, _time)) = text.split_once('T') {
        d
    } else {
        // `2012-05-01 10:30` — take the first token if the rest looks like
        // a time (contains ':').
        match text.split_once(' ') {
            Some((d, rest)) if rest.contains(':') => d,
            _ => text,
        }
    };

    // Numeric formats with - or / separators. Shape inference calls this
    // on every string cell, so nothing here allocates.
    for sep in ['-', '/'] {
        let Some((parts, 3)) = at_most::<3>(date_part.split(sep)) else {
            continue;
        };
        if parts
            .iter()
            .all(|p| !p.is_empty() && p.chars().all(|c| c.is_ascii_digit()))
        {
            let nums = parts.map(|p| p.parse::<i64>().unwrap_or(-1));
            if parts[0].len() == 4 {
                // YYYY-MM-DD
                return Date::new(nums[0] as i32, nums[1] as u32, nums[2] as u32);
            }
            if parts[2].len() == 4 {
                // MM/DD/YYYY (US order)
                return Date::new(nums[2] as i32, nums[0] as u32, nums[1] as u32);
            }
            return None;
        }
    }

    // Month-name formats: tokenize on whitespace and commas.
    let (tokens, len) = at_most::<3>(
        text.split(|c: char| c.is_whitespace() || c == ',')
            .filter(|t| !t.is_empty()),
    )?;
    match &tokens[..len] {
        // May 3 | May 3 2012 | May 3, 2012
        [m, d] if month_by_name(m).is_some() => Date::new(2000, month_by_name(m)?, d.parse().ok()?),
        [m, d, y] if month_by_name(m).is_some() => {
            Date::new(y.parse().ok()?, month_by_name(m)?, d.parse().ok()?)
        }
        // 3 May | 3 May 2012
        [d, m] if month_by_name(m).is_some() => Date::new(2000, month_by_name(m)?, d.parse().ok()?),
        [d, m, y] if month_by_name(m).is_some() => {
            Date::new(y.parse().ok()?, month_by_name(m)?, d.parse().ok()?)
        }
        _ => None,
    }
}

/// The items of `iter` when there are at most `N` of them, held without
/// allocating, and their count.
fn at_most<'a, const N: usize>(
    iter: impl Iterator<Item = &'a str>,
) -> Option<([&'a str; N], usize)> {
    let mut items = [""; N];
    let mut len = 0;
    for item in iter {
        *items.get_mut(len)? = item;
        len += 1;
    }
    Some((items, len))
}

/// The integer an (already trimmed) integer literal spells: an optional
/// sign followed by ASCII digits, fitting `i64`.
fn parse_int(text: &str) -> Option<i64> {
    let rest = text.strip_prefix(['-', '+']).unwrap_or(text);
    if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    text.parse().ok()
}

/// Whether the (already trimmed) text is a decimal/exponent literal:
/// `f64`'s own grammar without the `inf`/`nan` forms (which data files
/// do not use) — an optional sign, digits with at most one `.` and at
/// least one digit, then an optional exponent. Checked without
/// converting: the value is only built when a [`Value`] is.
fn is_float(text: &str) -> bool {
    let b = text.as_bytes();
    let mut i = usize::from(matches!(b.first(), Some(b'+' | b'-')));
    let digits = |i: &mut usize| {
        let start = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i - start
    };
    let mut mantissa = digits(&mut i);
    if b.get(i) == Some(&b'.') {
        i += 1;
        mantissa += digits(&mut i);
    }
    if mantissa == 0 {
        return false;
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        i += usize::from(matches!(b.get(i), Some(b'+' | b'-')));
        if digits(&mut i) == 0 {
            return false;
        }
    }
    i == b.len()
}

/// The literal rule on (already trimmed) text: a missing-value marker
/// is `null`, then booleans, integers and floats; anything else is a
/// string.
fn classify<'t>(t: &'t str, missing_values: &[String]) -> Leaf<'t> {
    if missing_values.iter().any(|m| m == t) {
        Leaf::Null
    } else if t.eq_ignore_ascii_case("true") || t.eq_ignore_ascii_case("false") {
        // Allocation-free case-insensitive check: this runs once per CSV
        // cell and XML attribute.
        Leaf::Bool
    } else if let Some(i) = parse_int(t) {
        Leaf::Int(i)
    } else if is_float(t) {
        Leaf::Float
    } else {
        Leaf::Str(t)
    }
}

/// The value of (already trimmed) text that [`classify`] read as `leaf`.
#[allow(clippy::expect_used)] // checked invariant, documented at the site
fn build(t: &str, leaf: Leaf<'_>) -> Value {
    match leaf {
        Leaf::Null => Value::Null,
        Leaf::Bool => Value::Bool(t.eq_ignore_ascii_case("true")),
        Leaf::Int(i) => Value::Int(i),
        // `is_float` accepts a subset of `f64::from_str`'s grammar.
        Leaf::Float => Value::Float(t.parse().expect("a float literal converts")),
        Leaf::Str(s) => Value::Str(s.to_owned()),
    }
}

/// Classifies bare text as a primitive value when it reads as one:
/// `"42"` → `Int`, `"35.14229"` → `Float`, `"true"` → `Bool`; anything
/// else (including empty text) is `None`.
///
/// This is the content-based primitive inference the JSON provider
/// applies to *string literals* (§2.3: the World Bank service encodes
/// numbers as strings, yet the provided type says `Value : option float`
/// and `Date : int`). It builds the value [`primitive`] classifies.
///
/// ```
/// use tfd_csv::literal::infer_primitive;
/// use tfd_value::Value;
/// assert_eq!(infer_primitive("2012"), Some(Value::Int(2012)));
/// assert_eq!(infer_primitive("35.14229"), Some(Value::Float(35.14229)));
/// assert_eq!(infer_primitive("TRUE"), Some(Value::Bool(true)));
/// assert_eq!(infer_primitive("GC.DOD.TOTL.GD.ZS"), None);
/// ```
pub fn infer_primitive(text: &str) -> Option<Value> {
    match primitive(text) {
        Leaf::Str(_) => None,
        leaf => Some(build(text.trim(), leaf)),
    }
}

/// [`literal`]'s rule on trimmed text with no missing-value markers,
/// classified without building anything: what [`infer_primitive`]
/// builds from, and what shape inference reads a stringly primitive
/// from. Never [`Leaf::Null`].
///
/// ```
/// use tfd_csv::literal::primitive;
/// use tfd_value::visit::Leaf;
/// assert_eq!(primitive(" 2012 "), Leaf::Int(2012));
/// assert_eq!(primitive("35.14229"), Leaf::Float);
/// assert_eq!(primitive(""), Leaf::Str(""));
/// ```
pub fn primitive(text: &str) -> Leaf<'_> {
    classify(text.trim(), &[])
}

/// The trimmed text the literal rule reads.
fn trimmed<'t>(text: &'t str, options: &LiteralOptions) -> &'t str {
    if options.trim {
        text.trim()
    } else {
        text
    }
}

/// Classifies one untyped literal without building anything: the rule
/// [`parse_literal`] builds its value from, and what a parser sends to a
/// [`Visitor`](tfd_value::visit::Visitor) in place of the value.
///
/// Order of attempts: missing-value markers, booleans, integers, floats;
/// anything else is a string, holding the (trimmed) text.
///
/// ```
/// use tfd_csv::literal::{literal, LiteralOptions};
/// use tfd_value::visit::Leaf;
/// let opts = LiteralOptions::default();
/// assert_eq!(literal(" 41 ", &opts), Leaf::Int(41));
/// assert_eq!(literal("36.3", &opts), Leaf::Float);
/// assert_eq!(literal("#N/A", &opts), Leaf::Null);
/// assert_eq!(literal("May 3", &opts), Leaf::Str("May 3"));
/// ```
pub fn literal<'t>(text: &'t str, options: &LiteralOptions) -> Leaf<'t> {
    classify(trimmed(text, options), &options.missing_values)
}

/// Interprets one untyped literal as a typed [`Value`]: the [`literal`]
/// rule, then the value it classified.
///
/// Dates stay strings — date-ness is a *shape* property detected during
/// inference, the value keeps its text.
///
/// ```
/// use tfd_csv::{parse_literal, LiteralOptions};
/// use tfd_value::Value;
/// let opts = LiteralOptions::default();
/// assert_eq!(parse_literal("41", &opts), Value::Int(41));
/// assert_eq!(parse_literal("36.3", &opts), Value::Float(36.3));
/// assert_eq!(parse_literal("#N/A", &opts), Value::Null);
/// assert_eq!(parse_literal("true", &opts), Value::Bool(true));
/// assert_eq!(parse_literal("2012-05-01", &opts), Value::str("2012-05-01"));
/// ```
pub fn parse_literal(text: &str, options: &LiteralOptions) -> Value {
    let t = trimmed(text, options);
    build(t, classify(t, &options.missing_values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfd_value::corpus::Rng;

    fn lit(s: &str) -> Value {
        parse_literal(s, &LiteralOptions::default())
    }

    #[test]
    fn integers() {
        assert_eq!(lit("0"), Value::Int(0));
        assert_eq!(lit("41"), Value::Int(41));
        assert_eq!(lit("-7"), Value::Int(-7));
        assert_eq!(lit("+3"), Value::Int(3));
    }

    #[test]
    fn floats() {
        assert_eq!(lit("36.3"), Value::Float(36.3));
        assert_eq!(lit("-0.5"), Value::Float(-0.5));
        assert_eq!(lit("1e3"), Value::Float(1000.0));
        assert_eq!(lit("2.5E-1"), Value::Float(0.25));
    }

    #[test]
    fn booleans_any_case() {
        assert_eq!(lit("true"), Value::Bool(true));
        assert_eq!(lit("TRUE"), Value::Bool(true));
        assert_eq!(lit("False"), Value::Bool(false));
    }

    #[test]
    fn missing_markers_become_null() {
        assert_eq!(lit("#N/A"), Value::Null);
        assert_eq!(lit("NA"), Value::Null);
        assert_eq!(lit(""), Value::Null);
        assert_eq!(lit("  "), Value::Null); // trimmed to empty
        assert_eq!(lit("-"), Value::Null);
    }

    #[test]
    fn custom_missing_markers() {
        let opts = LiteralOptions {
            missing_values: vec!["?".into()],
            ..LiteralOptions::default()
        };
        assert_eq!(parse_literal("?", &opts), Value::Null);
        // The defaults no longer apply:
        assert_eq!(parse_literal("#N/A", &opts), Value::str("#N/A"));
    }

    #[test]
    fn trimming_can_be_disabled() {
        let opts = LiteralOptions {
            trim: false,
            ..LiteralOptions::default()
        };
        assert_eq!(parse_literal(" 1", &opts), Value::str(" 1"));
    }

    #[test]
    fn strings_pass_through() {
        assert_eq!(lit("hello"), Value::str("hello"));
        assert_eq!(lit("3 kveten"), Value::str("3 kveten"));
        assert_eq!(lit("1.2.3"), Value::str("1.2.3"));
        assert_eq!(lit("inf"), Value::str("inf"));
        assert_eq!(lit("nan"), Value::str("nan"));
    }

    #[test]
    fn iso_dates() {
        assert_eq!(parse_date("2012-05-01"), Date::new(2012, 5, 1));
        assert_eq!(parse_date("2012/05/01"), Date::new(2012, 5, 1));
        assert_eq!(parse_date("2012-05-01T10:30:00"), Date::new(2012, 5, 1));
        assert_eq!(parse_date("2012-05-01 10:30"), Date::new(2012, 5, 1));
    }

    #[test]
    fn us_dates() {
        assert_eq!(parse_date("5/1/2012"), Date::new(2012, 5, 1));
        assert_eq!(parse_date("05/01/2012"), Date::new(2012, 5, 1));
    }

    #[test]
    fn month_name_dates() {
        assert_eq!(parse_date("May 3"), Date::new(2000, 5, 3));
        assert_eq!(parse_date("May 3, 2012"), Date::new(2012, 5, 3));
        assert_eq!(parse_date("3 May 2012"), Date::new(2012, 5, 3));
        assert_eq!(parse_date("3 May"), Date::new(2000, 5, 3));
        assert_eq!(parse_date("sept 9 1999"), Date::new(1999, 9, 9));
    }

    #[test]
    fn non_dates_rejected() {
        assert_eq!(parse_date("3 kveten"), None);
        assert_eq!(parse_date("hello"), None);
        assert_eq!(parse_date("2012-13-01"), None); // bad month
        assert_eq!(parse_date("2012-02-30"), None); // bad day
        assert_eq!(parse_date("1/2/3"), None); // no 4-digit year
        assert_eq!(parse_date(""), None);
    }

    #[test]
    fn leap_years() {
        assert!(parse_date("2012-02-29").is_some());
        assert_eq!(parse_date("2011-02-29"), None);
        assert!(parse_date("2000-02-29").is_some()); // divisible by 400
        assert_eq!(parse_date("1900-02-29"), None); // divisible by 100 only
    }

    #[test]
    fn date_display_is_iso() {
        assert_eq!(Date::new(2012, 5, 1).unwrap().to_string(), "2012-05-01");
    }

    /// `parse_date` as it was before its cheap reject: the reference the
    /// differential tests hold it to.
    fn parse_date_unfiltered(text: &str) -> Option<Date> {
        let text = text.trim();
        if text.is_empty() {
            return None;
        }
        let date_part = if let Some((d, _time)) = text.split_once('T') {
            d
        } else {
            match text.split_once(' ') {
                Some((d, rest)) if rest.contains(':') => d,
                _ => text,
            }
        };
        for sep in ['-', '/'] {
            let parts: Vec<&str> = date_part.split(sep).collect();
            if parts.len() != 3 {
                continue;
            }
            if parts
                .iter()
                .all(|p| !p.is_empty() && p.chars().all(|c| c.is_ascii_digit()))
            {
                let nums: Vec<i64> = parts.iter().map(|p| p.parse().unwrap_or(-1)).collect();
                if parts[0].len() == 4 {
                    return Date::new(nums[0] as i32, nums[1] as u32, nums[2] as u32);
                }
                if parts[2].len() == 4 {
                    return Date::new(nums[2] as i32, nums[0] as u32, nums[1] as u32);
                }
                return None;
            }
        }
        let tokens: Vec<&str> = text
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|t| !t.is_empty())
            .collect();
        match tokens.as_slice() {
            [m, d] if month_by_name(m).is_some() => {
                Date::new(2000, month_by_name(m)?, d.parse().ok()?)
            }
            [m, d, y] if month_by_name(m).is_some() => {
                Date::new(y.parse().ok()?, month_by_name(m)?, d.parse().ok()?)
            }
            [d, m] if month_by_name(m).is_some() => {
                Date::new(2000, month_by_name(m)?, d.parse().ok()?)
            }
            [d, m, y] if month_by_name(m).is_some() => {
                Date::new(y.parse().ok()?, month_by_name(m)?, d.parse().ok()?)
            }
            _ => None,
        }
    }

    /// `parse_literal` as it was before the classifier: the reference
    /// the differential tests hold the classify-then-build rule to.
    fn parse_literal_direct(text: &str, options: &LiteralOptions) -> Value {
        let t = if options.trim { text.trim() } else { text };
        if options.missing_values.iter().any(|m| m == t) {
            return Value::Null;
        }
        if t.eq_ignore_ascii_case("true") {
            return Value::Bool(true);
        }
        if t.eq_ignore_ascii_case("false") {
            return Value::Bool(false);
        }
        if let Some(i) = parse_int(t) {
            return Value::Int(i);
        }
        let rest = t.strip_prefix(['-', '+']).unwrap_or(t);
        let numeric = !rest.is_empty()
            && rest.chars().any(|c| c.is_ascii_digit())
            && rest
                .chars()
                .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'));
        if let Some(f) = numeric.then(|| t.parse().ok()).flatten() {
            return Value::Float(f);
        }
        Value::Str(t.to_owned())
    }

    /// A string of up to `len` characters drawn from `alphabet`.
    fn draw(rng: &mut Rng, alphabet: &[&str], len: u64) -> String {
        (0..rng.below(len + 1))
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
            .collect()
    }

    /// Date-shaped text: every recognized form, with fields in and out
    /// of range, and decorations around it.
    fn date_shaped(rng: &mut Rng) -> String {
        const MONTHS: &[&str] = &[
            "May", "may.", "SEPT", "sept", "Sep", "june", "Jun", "dec", "Mar", "mars", "n", "a",
        ];
        let mut n = |bound: u64| rng.below(bound).to_string();
        let (y, m, d) = (n(2100), n(14), n(33));
        let (y4, m2, d2) = (
            format!("{:04}", n(3000)),
            format!("{m:0>2}"),
            format!("{d:0>2}"),
        );
        let month = MONTHS[rng.below(MONTHS.len() as u64) as usize];
        let core = match rng.below(10) {
            0 => format!("{y4}-{m2}-{d2}"),
            1 => format!("{y4}/{m}/{d}"),
            2 => format!("{m}/{d}/{y4}"),
            3 => format!("{y4}-{m2}-{d2}T10:30:00"),
            4 => format!("{y4}-{m2}-{d2} 10:30"),
            5 => format!("{month} {d}"),
            6 => format!("{month} {d}, {y}"),
            7 => format!("{d} {month}"),
            8 => format!("+{d} {month} {y}"),
            _ => format!("{m}-{d}-{y}"),
        };
        let decorate = [" ", ",", "\t", "x", "", "", "", ""];
        let pre = decorate[rng.below(decorate.len() as u64) as usize];
        let post = decorate[rng.below(decorate.len() as u64) as usize];
        format!("{pre}{core}{post}")
    }

    #[test]
    fn the_cheap_reject_keeps_parse_date_exact() {
        let alphabet = [
            "0", "1", "2", "9", "-", "/", " ", ",", "T", ":", "+", ".", "e", "May", "sept", "n",
            "a", "j", "x", "\u{a0}", "č",
        ];
        let mut rng = Rng::new(7);
        let mut dates = 0;
        for i in 0..40_000 {
            let text = if i % 2 == 0 {
                draw(&mut rng, &alphabet, 12)
            } else {
                date_shaped(&mut rng)
            };
            let want = parse_date_unfiltered(&text);
            assert_eq!(parse_date(&text), want, "{text:?}");
            dates += usize::from(want.is_some());
        }
        // The date-shaped half must hold dates of every kind.
        assert!(dates > 5_000, "only {dates} dates");
        for text in [
            "n/a", "alpha-12", "-", "#N/A", "Prague", "mayday 3", ",May 3", "+3 may",
        ] {
            assert_eq!(parse_date(text), parse_date_unfiltered(text), "{text:?}");
        }
    }

    #[test]
    fn classify_then_build_is_the_direct_rule() {
        let alphabet = [
            "0",
            "1",
            "7",
            "-",
            "+",
            ".",
            "e",
            "E",
            " ",
            "x",
            "N/A",
            "#N/A",
            "true",
            "False",
            "nan",
            "inf",
            "9223372036854775807",
            "1e400",
        ];
        let options = [
            LiteralOptions::default(),
            LiteralOptions {
                trim: false,
                ..LiteralOptions::default()
            },
            LiteralOptions {
                missing_values: vec!["?".into()],
                ..LiteralOptions::default()
            },
        ];
        let mut rng = Rng::new(11);
        for _ in 0..40_000 {
            let text = draw(&mut rng, &alphabet, 6);
            for o in &options {
                let want = parse_literal_direct(&text, o);
                let got = parse_literal(&text, o);
                // NaN never compares equal; no literal here spells one.
                assert_eq!(got, want, "{text:?}");
                let leaf = literal(&text, o);
                assert_eq!(Some(leaf), got.as_leaf(), "{text:?}");
            }
            let want = match parse_literal_direct(&text, &options[2]) {
                Value::Str(_) | Value::Null => None,
                v if text.trim().is_empty() => panic!("{v:?} from blank text"),
                v => Some(v),
            };
            assert_eq!(infer_primitive(&text), want, "{text:?}");
        }
    }

    #[test]
    fn date_ordering() {
        assert!(Date::new(2012, 5, 1).unwrap() < Date::new(2012, 5, 2).unwrap());
        assert!(Date::new(2011, 12, 31).unwrap() < Date::new(2012, 1, 1).unwrap());
    }
}
