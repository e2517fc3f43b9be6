//! Streaming inference — the Fig. 3 fold, one record at a time.
//!
//! The paper defines multi-sample inference as a fold:
//! `S(d1, …, dn) = σn where σ0 = ⊥, σi = csh(σi−1, S(di))`. Nothing in
//! that definition needs the corpus in memory — only the running shape
//! `σi` and the record in hand. [`InferAccumulator`] is that fold made
//! incremental: push a record's [`Value`], its shape is joined into the
//! accumulator, and the record can be dropped immediately. Peak memory
//! for a whole corpus is one record plus one shape, independent of
//! corpus size.
//!
//! [`crate::engine::run`] folds every record of a corpus — in memory or
//! from any `Read` source, in bounded memory — into accumulators like
//! this one, which is how the CLI's `--stream` mode processes
//! larger-than-RAM corpora.

use crate::csh::csh;
use crate::infer::{infer_with, InferOptions};
use crate::Shape;
use std::fmt;
use tfd_value::Value;

/// The incremental `S(d1, …, dn)` fold: `σi = csh(σi−1, S(di))`.
///
/// Pushing records one at a time yields exactly the shape
/// [`infer_many`](crate::infer_many) computes on the whole sequence (the
/// unit suite asserts this for all four [`InferOptions`] presets), while
/// holding only the running shape.
///
/// ```
/// use tfd_core::{stream::InferAccumulator, InferOptions, Shape};
/// use tfd_value::Value;
///
/// let mut acc = InferAccumulator::new(InferOptions::formal());
/// acc.push(&Value::Int(1));
/// acc.push(&Value::Float(2.5));
/// acc.push(&Value::Null);
/// assert_eq!(acc.finish(), Shape::Float.ceil());
/// ```
#[derive(Debug, Clone)]
pub struct InferAccumulator {
    options: InferOptions,
    shape: Shape,
    records: usize,
}

impl InferAccumulator {
    /// An empty fold: `σ0 = ⊥`.
    pub fn new(options: InferOptions) -> InferAccumulator {
        InferAccumulator {
            options,
            shape: Shape::Bottom,
            records: 0,
        }
    }

    /// Folds one record in — `σi = csh(σi−1, S(di))` — after which the
    /// record can be dropped.
    pub fn push(&mut self, record: &Value) {
        let prev = std::mem::replace(&mut self.shape, Shape::Bottom);
        self.shape = csh(prev, infer_with(record, &self.options));
        self.records += 1;
    }

    /// The running shape `σi`.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Records folded so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// True when nothing has been pushed (`σ0 = ⊥`).
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The inference options this fold runs under.
    pub fn options(&self) -> &InferOptions {
        &self.options
    }

    /// Consumes the accumulator, yielding `σn`.
    pub fn finish(self) -> Shape {
        self.shape
    }

    /// Consumes the accumulator, yielding the fold globalized into the
    /// env-carrying form (§6.2): `globalize_env(σn)`. Because
    /// [`globalize_env`](crate::globalize_env) is a fixed point, a
    /// streamed corpus reaches exactly the global shape the one-shot
    /// pipeline computes — including on mutually recursive XML corpora
    /// where the old finite-tree pass diverged.
    pub fn finish_global(self) -> crate::GlobalShape {
        crate::globalize_env(self.shape)
    }

    /// The running fold globalized into the env-carrying form, without
    /// consuming the accumulator (pays for one clone of the running
    /// shape).
    pub fn global_shape(&self) -> crate::GlobalShape {
        crate::globalize_env(self.shape.clone())
    }
}

/// Which front-end a byte stream is parsed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFormat {
    /// Whitespace-separated JSON documents (JSON-lines included); each
    /// document is one record.
    Json,
    /// A sequence of XML documents laid end to end; each root element is
    /// one record.
    Xml,
    /// CSV with a header row; each data row is one record.
    Csv,
}

/// An error from the streaming parse→infer pipeline: a front-end parse
/// error, an I/O failure from the reader, or — under a Skip-mode
/// [`RecoveryPolicy`](crate::recover::RecoveryPolicy) — an exhausted
/// error budget.
#[derive(Debug)]
pub enum StreamError {
    /// The JSON front-end rejected the stream.
    Json(tfd_json::ParseError),
    /// The XML front-end rejected the stream.
    Xml(tfd_xml::XmlError),
    /// The CSV front-end rejected the stream.
    Csv(tfd_csv::CsvError),
    /// The reader failed.
    Io(std::io::Error),
    /// A Skip-mode recovery run skipped more than `limit` malformed
    /// records and aborted. `first` is the first error in document
    /// order, which is deterministic even when the abort cuts a
    /// parallel run short.
    TooManyErrors {
        /// The configured `max_errors` budget that was exceeded.
        limit: usize,
        /// The first skipped error, in document order.
        first: Box<StreamError>,
    },
}

impl StreamError {
    /// Stable kebab-case error code — the machine-readable discriminant
    /// that `Display` alone could not round-trip. Shared by the CLI's
    /// `--json` output and the registry's HTTP error bodies (see
    /// [`crate::report::stream_error_json`]), so a client can branch on
    /// the code instead of scraping the message.
    pub fn code(&self) -> &'static str {
        match self {
            StreamError::Json(_) => "json-parse",
            StreamError::Xml(_) => "xml-parse",
            StreamError::Csv(_) => "csv-parse",
            StreamError::Io(_) => "io",
            StreamError::TooManyErrors { .. } => "too-many-errors",
        }
    }
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Json(e) => write!(f, "{e}"),
            StreamError::Xml(e) => write!(f, "{e}"),
            StreamError::Csv(e) => write!(f, "{e}"),
            StreamError::Io(e) => write!(f, "{e}"),
            StreamError::TooManyErrors { limit, first } => write!(
                f,
                "error budget exceeded: more than {limit} malformed records (first: {first})"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

impl Clone for StreamError {
    fn clone(&self) -> StreamError {
        match self {
            StreamError::Json(e) => StreamError::Json(e.clone()),
            StreamError::Xml(e) => StreamError::Xml(e.clone()),
            StreamError::Csv(e) => StreamError::Csv(e.clone()),
            // io::Error is not Clone; a same-kind, same-message copy is
            // all the error report needs.
            StreamError::Io(e) => StreamError::Io(std::io::Error::new(e.kind(), e.to_string())),
            StreamError::TooManyErrors { limit, first } => StreamError::TooManyErrors {
                limit: *limit,
                first: first.clone(),
            },
        }
    }
}

impl PartialEq for StreamError {
    fn eq(&self, other: &StreamError) -> bool {
        match (self, other) {
            (StreamError::Json(a), StreamError::Json(b)) => a == b,
            (StreamError::Xml(a), StreamError::Xml(b)) => a == b,
            (StreamError::Csv(a), StreamError::Csv(b)) => a == b,
            // io::Error is not PartialEq; kind + message is the closest
            // observable identity.
            (StreamError::Io(a), StreamError::Io(b)) => {
                a.kind() == b.kind() && a.to_string() == b.to_string()
            }
            (
                StreamError::TooManyErrors {
                    limit: la,
                    first: fa,
                },
                StreamError::TooManyErrors {
                    limit: lb,
                    first: fb,
                },
            ) => la == lb && fa == fb,
            _ => false,
        }
    }
}

/// What a run of [`crate::engine::run`] found in the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// The folded shape `σn` (`⊥` for an empty stream). For CSV this is
    /// the *row* shape: wrap it in [`Shape::list`] to match the one-shot
    /// front-end, which returns the corpus as a collection of rows.
    pub shape: Shape,
    /// Records folded.
    pub records: usize,
    /// Bytes consumed from the reader.
    pub bytes: u64,
}

/// Default chunk size for [`crate::engine::IngestConfig`] (64 KiB:
/// large enough that most records never straddle a read, small enough
/// to stay cache-friendly and to bound what one failing bundle costs
/// to re-parse).
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer_many;
    use tfd_value::{arr, json_rec, rec};

    fn sample_corpus() -> Vec<Value> {
        vec![
            json_rec([("name", Value::str("Jan")), ("age", Value::Int(25))]),
            json_rec([("name", Value::str("Tomas"))]),
            json_rec([
                ("name", Value::str("Alexander")),
                ("age", Value::Float(3.5)),
            ]),
            Value::Null,
            arr([Value::Int(0), Value::Int(1)]),
            rec(
                "row",
                [("d", Value::str("2012-05-01")), ("n", Value::str("35.14"))],
            ),
        ]
    }

    #[test]
    fn fold_matches_infer_many_for_all_presets() {
        let corpus = sample_corpus();
        for options in [
            InferOptions::formal(),
            InferOptions::json(),
            InferOptions::csv(),
            InferOptions::xml(),
        ] {
            let mut acc = InferAccumulator::new(options.clone());
            for d in &corpus {
                acc.push(d);
            }
            assert_eq!(acc.records(), corpus.len());
            assert_eq!(*acc.shape(), infer_many(&corpus, &options), "{options:?}");
        }
    }

    #[test]
    fn finish_global_reaches_the_oneshot_fixed_point() {
        // The env-carrying finishers agree with globalizing the batch
        // fold — the §6.2 fixed point, streamed.
        let docs = [
            rec("div", [("child", rec("div", [("x", Value::Int(1))]))]),
            rec("div", [("y", Value::Bool(true))]),
        ];
        let opts = InferOptions::xml();
        let expected = crate::globalize_env(infer_many(&docs, &opts));
        let mut acc = InferAccumulator::new(opts);
        for d in &docs {
            acc.push(d);
        }
        assert_eq!(acc.global_shape(), expected);
        assert_eq!(acc.finish_global(), expected);
        assert!(
            !expected.env.is_empty(),
            "the corpus is genuinely recursive"
        );
    }

    #[test]
    fn empty_fold_is_bottom() {
        let acc = InferAccumulator::new(InferOptions::formal());
        assert!(acc.is_empty());
        assert_eq!(acc.finish(), Shape::Bottom);
    }

    #[test]
    fn refolding_the_same_corpus_is_idempotent() {
        // csh is a least upper bound: S(di) ⊑ σn, so pushing the corpus
        // a second time must leave the shape fixed.
        let corpus = sample_corpus();
        for options in [
            InferOptions::formal(),
            InferOptions::json(),
            InferOptions::csv(),
        ] {
            let mut acc = InferAccumulator::new(options.clone());
            for d in &corpus {
                acc.push(d);
            }
            let first = acc.shape().clone();
            for d in &corpus {
                acc.push(d);
            }
            assert_eq!(*acc.shape(), first, "{options:?}");
        }
    }
}
