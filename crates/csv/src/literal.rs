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
    if text.is_empty() {
        return None;
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

/// Returns `true` when the (already trimmed) text is an integer literal:
/// an optional sign followed by ASCII digits, fitting `i64`.
fn parse_int(text: &str) -> Option<i64> {
    let rest = text.strip_prefix(['-', '+']).unwrap_or(text);
    if rest.is_empty() || !rest.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    text.parse().ok()
}

/// Returns the float value when the text is a decimal/exponent literal.
/// Rejects forms Rust accepts but data files don't use (`inf`, `nan`,
/// hex). Requires at least one digit.
fn parse_float(text: &str) -> Option<f64> {
    let rest = text.strip_prefix(['-', '+']).unwrap_or(text);
    if rest.is_empty() {
        return None;
    }
    let mut saw_digit = false;
    for c in rest.chars() {
        match c {
            '0'..='9' => saw_digit = true,
            '.' | 'e' | 'E' | '+' | '-' => {}
            _ => return None,
        }
    }
    if !saw_digit {
        return None;
    }
    text.parse().ok()
}

/// Classifies bare text as a primitive value when it reads as one:
/// `"42"` → `Int`, `"35.14229"` → `Float`, `"true"` → `Bool`; anything
/// else (including empty text) is `None`.
///
/// This is the content-based primitive inference the JSON provider
/// applies to *string literals* (§2.3: the World Bank service encodes
/// numbers as strings, yet the provided type says `Value : option float`
/// and `Date : int`).
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
    let t = text.trim();
    if t.is_empty() {
        return None;
    }
    if t.eq_ignore_ascii_case("true") {
        return Some(Value::Bool(true));
    }
    if t.eq_ignore_ascii_case("false") {
        return Some(Value::Bool(false));
    }
    if let Some(i) = parse_int(t) {
        return Some(Value::Int(i));
    }
    parse_float(t).map(Value::Float)
}

/// Interprets one untyped literal as a typed [`Value`].
///
/// Order of attempts: missing-value markers, booleans, integers, floats;
/// anything else stays a string (dates stay strings too — date-ness is a
/// *shape* property detected during inference, the value keeps its text).
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
    let t = if options.trim { text.trim() } else { text };
    if options.missing_values.iter().any(|m| m == t) {
        return Value::Null;
    }
    // Allocation-free case-insensitive boolean check: this runs once per
    // CSV cell / XML attribute, so a `to_ascii_lowercase` String here
    // dominated whole-file parse profiles.
    if t.eq_ignore_ascii_case("true") {
        return Value::Bool(true);
    }
    if t.eq_ignore_ascii_case("false") {
        return Value::Bool(false);
    }
    if let Some(i) = parse_int(t) {
        return Value::Int(i);
    }
    if let Some(f) = parse_float(t) {
        return Value::Float(f);
    }
    Value::Str(t.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn date_ordering() {
        assert!(Date::new(2012, 5, 1).unwrap() < Date::new(2012, 5, 2).unwrap());
        assert!(Date::new(2011, 12, 31).unwrap() < Date::new(2012, 1, 1).unwrap());
    }
}
