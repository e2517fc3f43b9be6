//! # tfd-csv — CSV front-end
//!
//! An RFC 4180 CSV parser plus the primitive-literal inference that §6.2
//! of the paper describes:
//!
//! > "One difference between JSON and CSV is that in CSV, the literals
//! > have no data types and so we also need to infer the shape of
//! > primitive values. […] The value `#N/A` is commonly used to represent
//! > missing values in CSV and is treated as null."
//!
//! A CSV file maps onto the universal data value as a collection of
//! unnamed records, one per row, with a field per column (§2.3: "We treat
//! CSV files as lists of records").
//!
//! The [`literal`] module — also used by the XML front-end — turns the
//! untyped cell text into typed [`Value`]s (`"42"` → `Int`, `"true"` →
//! `Bool`, `"#N/A"` → `Null`, …) and provides the date detection that
//! makes `2012-05-01` a date but the mixed-format column of the paper's
//! example a `string`.
//!
//! [`parse`] runs the single-pass byte-level splitter; the previous
//! char-level state machine is retained as [`mod@reference`] (bugs and all)
//! so benchmarks and regression tests can compare against it.
//!
//! # Example
//!
//! ```
//! let file = tfd_csv::parse("a,b\n1,x\n2,y\n")?;
//! assert_eq!(file.headers(), &["a", "b"]);
//! let value = file.to_value();
//! assert_eq!(value.elements().unwrap().len(), 2);
//! # Ok::<(), tfd_csv::CsvError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod literal;
mod parser;
pub mod reference;
pub mod stream;

pub use literal::{parse_date, parse_literal, Date, LiteralOptions};
pub use parser::{
    parse, parse_header_in, parse_rows_in, parse_value, parse_value_in, parse_value_with,
    parse_with, CsvError, CsvOptions,
};
pub use stream::BoundaryScanner;

use tfd_value::{body_name, Name, Value};

/// A parsed CSV file: a header row and data rows of raw cell text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvFile {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvFile {
    /// Creates a CSV file from headers and rows.
    ///
    /// Rows shorter than the header are padded with empty cells when
    /// converted to values; longer rows keep only the headed columns.
    pub fn new(headers: Vec<String>, rows: Vec<Vec<String>>) -> CsvFile {
        CsvFile { headers, rows }
    }

    /// The column names.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows (raw, undecoded cell text).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Converts the file to the universal data value with default
    /// [`LiteralOptions`]: a collection of `•`-named records, one per
    /// row, with each cell passed through [`parse_literal`].
    pub fn to_value(&self) -> Value {
        self.to_value_with(&LiteralOptions::default())
    }

    /// Converts the file to the universal data value with explicit
    /// literal-inference options.
    ///
    /// Column names are interned once for the whole file, so each of the
    /// (possibly millions of) rows copies `Name` symbols instead of
    /// allocating one `String` per cell.
    pub fn to_value_with(&self, options: &LiteralOptions) -> Value {
        let row_name = body_name();
        let columns: Vec<Name> = self.headers.iter().map(Name::from).collect();
        Value::List(
            self.rows
                .iter()
                .map(|row| {
                    Value::record(
                        row_name,
                        columns.iter().enumerate().map(|(i, &h)| {
                            let cell = row.get(i).map(String::as_str).unwrap_or("");
                            (h, parse_literal(cell, options))
                        }),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfd_value::BODY_NAME;

    #[test]
    fn to_value_builds_row_records() {
        let f = CsvFile::new(
            vec!["a".into(), "b".into()],
            vec![vec!["1".into(), "x".into()]],
        );
        let v = f.to_value();
        let rows = v.elements().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].record_name(), Some(BODY_NAME));
        assert_eq!(rows[0].field("a"), Some(&Value::Int(1)));
        assert_eq!(rows[0].field("b"), Some(&Value::str("x")));
    }

    #[test]
    fn short_rows_pad_with_missing() {
        let f = CsvFile::new(vec!["a".into(), "b".into()], vec![vec!["1".into()]]);
        let v = f.to_value();
        assert_eq!(v.elements().unwrap()[0].field("b"), Some(&Value::Null));
    }

    #[test]
    fn long_rows_drop_unheaded_cells() {
        let f = CsvFile::new(vec!["a".into()], vec![vec!["1".into(), "spill".into()]]);
        let v = f.to_value();
        assert_eq!(v.elements().unwrap()[0].fields().unwrap().len(), 1);
    }
}
