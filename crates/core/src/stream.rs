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
//!
//! # The no-widen fast path
//!
//! `csh` is a least upper bound (Lemma 1), so once `S(d) ⊑ σ` a step of
//! the fold changes nothing — and on homogeneous data almost every step
//! is such a step. Before building `S(d)`, [`InferAccumulator::push`]
//! therefore walks σ alongside `d`'s events
//! ([`InferAccumulator::covers`]). When the walk accepts, the step is
//! a no-op and only the record count moves; otherwise the record takes
//! the general `csh(σ, S(d))` step, which stays the only way σ ever
//! widens. The walk is conservative: it accepts only when
//! `csh(σ, S(d))` would be *structurally identical* to σ, field order
//! included, and declines whatever it is unsure of (μ-references,
//! duplicate keys, null elements of heterogeneous collections, labels
//! or cases out of tag order).
//!
//! # Parsing straight into σ
//!
//! The same walk runs on events straight from a parser. The accumulator
//! is a [`RecordFold`]: after a record σ covered, it offers the parser a
//! [walk](RecordFold::walk) for the next one, and a record the walk
//! accepts is counted without ever being built — no `Value`, no
//! interned key (the JSON front-end does this, see
//! [`tfd_json::parse_many_values_each`]). A record the walk declines is
//! parsed again, built and [pushed](InferAccumulator::push), and so is
//! the record after it, until one is covered again: a run of widening
//! records pays for one extra parse, at its start.

use crate::csh::csh;
use crate::infer::{infer_with, InferOptions};
use crate::walk::{Stacks, Walk};
use crate::Shape;
use std::collections::HashSet;
use std::fmt;
use tfd_value::visit::{Leaf, RecordFold, RecordWalk, Visitor};
use tfd_value::Value;

/// The incremental `S(d1, …, dn)` fold: `σi = csh(σi−1, S(di))`.
///
/// Pushing records one at a time yields exactly the shape
/// [`infer_many`](crate::infer_many) computes on the whole sequence (the
/// unit suite asserts this for all four [`InferOptions`] presets), while
/// holding only the running shape. A record σ already covers costs a
/// walk over the record and allocates nothing (see the module docs).
///
/// As a [`RecordFold`], it takes records straight from a parser: each
/// record is walked against σ from its events when the previous one was
/// covered, and built and pushed otherwise.
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
    /// No record folded so far held a record with a repeated field
    /// name, so no record in σ repeats one either (`csh` never creates
    /// a repeat from repeat-free inputs): a name locates at most one σ
    /// field, which the fast path relies on. Cleared for good by the
    /// first record with a repeat.
    unique_fields: bool,
    /// σ covered the last record folded, so the next one is worth
    /// walking before it is built.
    walking: bool,
    /// What σ walks work on, kept from one walk to the next.
    stacks: Stacks,
}

impl InferAccumulator {
    /// An empty fold: `σ0 = ⊥`.
    pub fn new(options: InferOptions) -> InferAccumulator {
        InferAccumulator {
            options,
            shape: Shape::Bottom,
            records: 0,
            unique_fields: true,
            walking: false,
            stacks: Stacks::default(),
        }
    }

    /// Folds one record in — `σi = csh(σi−1, S(di))` — after which the
    /// record can be dropped. When σ already [covers](Self::covers) the
    /// record, the step is skipped: its result would be σ itself.
    pub fn push(&mut self, record: &Value) {
        self.records += 1;
        self.walking = self.unique_fields
            && replay(
                record,
                Walk::new(&self.shape, &self.options, &mut self.stacks),
            );
        if self.walking {
            return;
        }
        if self.unique_fields && repeats_a_field(record) {
            self.unique_fields = false;
        }
        let prev = std::mem::replace(&mut self.shape, Shape::Bottom);
        self.shape = csh(prev, infer_with(record, &self.options));
    }

    /// Whether pushing `record` would leave σ unchanged: `true`
    /// guarantees that `csh(σ, S(record))` is structurally identical to
    /// σ, field order included. The check replays `record`'s events into
    /// a σ walk, the one the fold runs on parser events, and costs a walk
    /// over `record` (plus, for a record narrower than its σ
    /// counterpart, a pass over σ's fields). It is conservative: `false`
    /// only means the general `csh` step has to decide.
    ///
    /// ```
    /// use tfd_core::{stream::InferAccumulator, InferOptions};
    /// use tfd_value::{json_rec, Value};
    ///
    /// let mut acc = InferAccumulator::new(InferOptions::json());
    /// acc.push(&json_rec([("a", Value::Float(2.5)), ("b", Value::Null)]));
    /// assert!(acc.covers(&json_rec([("a", Value::Int(1))])));
    /// assert!(!acc.covers(&json_rec([("a", Value::str("x"))])));
    /// ```
    pub fn covers(&self, record: &Value) -> bool {
        self.unique_fields
            && replay(
                record,
                Walk::new(&self.shape, &self.options, &mut Stacks::default()),
            )
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

/// Replays `record` into `walk`: whether σ covers it.
fn replay(record: &Value, mut walk: Walk<'_, '_>) -> bool {
    record.visit(&mut walk);
    walk.end()
}

/// The accumulator's walk of one record from a parser's events: a record
/// it accepts is counted.
#[derive(Debug)]
pub struct FoldWalk<'a> {
    walk: Walk<'a, 'a>,
    records: &'a mut usize,
}

impl Visitor for FoldWalk<'_> {
    #[inline]
    fn record_start(&mut self, name: &str) -> bool {
        self.walk.record_start(name)
    }
    #[inline]
    fn key(&mut self, key: &str) -> bool {
        self.walk.key(key)
    }
    #[inline]
    fn record_end(&mut self) -> bool {
        self.walk.record_end()
    }
    #[inline]
    fn list_start(&mut self) -> bool {
        self.walk.list_start()
    }
    #[inline]
    fn list_end(&mut self) -> bool {
        self.walk.list_end()
    }
    #[inline]
    fn leaf(&mut self, leaf: Leaf<'_>) -> bool {
        self.walk.leaf(leaf)
    }
}

impl RecordWalk for FoldWalk<'_> {
    fn finish(self) -> bool {
        let covered = self.walk.end();
        *self.records += usize::from(covered);
        covered
    }
}

/// The fold as a parser drives it: a record after a covered one is
/// walked from its events, any other record is built and pushed.
impl RecordFold for InferAccumulator {
    type Walk<'w> = FoldWalk<'w>;

    fn walk(&mut self) -> Option<FoldWalk<'_>> {
        if !self.walking {
            return None;
        }
        Some(FoldWalk {
            walk: Walk::new(&self.shape, &self.options, &mut self.stacks),
            records: &mut self.records,
        })
    }

    fn push(&mut self, record: Value) {
        InferAccumulator::push(self, &record);
    }
}

/// Whether any record in `v` repeats a field name.
fn repeats_a_field(v: &Value) -> bool {
    match v {
        Value::Record { fields, .. } => {
            let repeats = if fields.len() <= 16 {
                (1..fields.len()).any(|i| fields[..i].iter().any(|g| g.name == fields[i].name))
            } else {
                let mut seen = HashSet::with_capacity(fields.len());
                !fields.iter().all(|f| seen.insert(f.name))
            };
            repeats || fields.iter().any(|f| repeats_a_field(&f.value))
        }
        Value::List(items) => items.iter().any(repeats_a_field),
        _ => false,
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
/// to stay cache-friendly).
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

    /// Lines shaped like an API dump: the same keys in the same order,
    /// nested records, a collection of one to three strings.
    fn homogeneous_lines(n: usize) -> String {
        (0..n)
            .map(|i| {
                let tags: Vec<String> = (0..1 + i % 3).map(|t| format!("\"t{}\"", (i + t) % 17)).collect();
                format!(
                    "{{\"id\":{i},\"name\":\"user-{i}\",\"score\":{}.25,\"active\":{},\
                     \"address\":{{\"city\":\"Lima\",\"zip\":{},\"geo\":{{\"lat\":{i}.5,\"lon\":-1.5}}}},\
                     \"tags\":[{}],\"created\":\"2016-06-01T10:00:00Z\"}}\n",
                    i % 100,
                    i % 2 == 0,
                    10_000 + i,
                    tags.join(",")
                )
            })
            .collect()
    }

    #[test]
    fn every_record_after_the_first_takes_the_fast_path_on_homogeneous_data() {
        let docs = tfd_json::parse_many_values(&homogeneous_lines(200)).unwrap();
        let rows = tfd_csv::parse_value("id,name,score,date,flag\n10,a,2.5,2012-05-01,0\n11,b,3,2012-05-02,1\n12,c,4.5,2012-05-03,1\n")
            .unwrap();
        let rows = rows.elements().unwrap().to_vec();
        for (corpus, options) in [(&docs, InferOptions::json()), (&rows, InferOptions::csv())] {
            let mut acc = InferAccumulator::new(options.clone());
            acc.push(&corpus[0]);
            for (i, d) in corpus.iter().enumerate().skip(1) {
                assert!(acc.covers(d), "record {i} missed the fast path: {d}");
                acc.push(d);
            }
            assert_eq!(acc.records(), corpus.len());
            assert_eq!(
                acc.shape().to_string(),
                infer_many(corpus, &options).to_string()
            );
        }
    }

    #[test]
    fn heterogeneous_xml_records_take_the_fast_path_once_sigma_saturates() {
        // Optional attributes and children, a price cell mixing numbers
        // and text: σ holds nullable fields, a labelled top and a case
        // list, and after a few records every step is a no-op.
        let docs: String = (0..300)
            .map(|i| {
                let status = if i % 3 == 0 { " status=\"draft\"" } else { "" };
                let price = [
                    "<price>12</price>",
                    "<price>n/a</price>",
                    "<price>2.5</price>",
                    "",
                ][i % 4];
                let tags = "<tag>x</tag>".repeat(i % 3);
                format!("<item id=\"{i}\"{status}><name>n{i}</name>{price}{tags}</item>\n")
            })
            .collect();
        let docs = tfd_xml::parse_many_values(&docs).unwrap();
        let options = InferOptions::xml();
        let mut acc = InferAccumulator::new(options.clone());
        let mut fast = 0;
        for d in &docs {
            fast += usize::from(acc.covers(d));
            acc.push(d);
        }
        assert!(
            fast >= docs.len() - 12,
            "only {fast} of {} fast",
            docs.len()
        );
        let shape = acc.shape().to_string();
        assert!(shape.contains("any⟨") && shape.contains(", *"), "{shape}");
        assert_eq!(shape, infer_many(&docs, &options).to_string());
    }

    #[test]
    fn the_fast_path_accepts_fields_in_any_order_and_missing_nullable_ones() {
        let mut acc = InferAccumulator::new(InferOptions::json());
        acc.push(&json_rec([
            ("a", Value::Float(1.5)),
            ("b", Value::Null),
            ("c", Value::str("x")),
        ]));
        // `b` is null-only: a record lacking it still fits.
        assert!(acc.covers(&json_rec([("c", Value::str("y")), ("a", Value::Int(2))])));
        // Stringly ints fit a float column; `null` fits the null column.
        assert!(acc.covers(&json_rec([
            ("b", Value::Null),
            ("a", Value::str("7")),
            ("c", Value::str("z")),
        ])));
        // A missing required field, an unknown one, or a wider leaf do not.
        assert!(!acc.covers(&json_rec([("a", Value::Int(2))])));
        assert!(!acc.covers(&json_rec([
            ("a", Value::Int(2)),
            ("c", Value::str("y")),
            ("d", Value::Null),
        ])));
        assert!(!acc.covers(&json_rec([
            ("a", Value::Bool(true)),
            ("c", Value::str("y"))
        ])));
    }

    #[test]
    fn the_fast_path_covers_labelled_tops_and_case_lists() {
        // A label absorbs a value of its tag; a new tag or a wider
        // number does not fit.
        let mut acc = InferAccumulator::new(InferOptions::formal());
        acc.push(&Value::Int(1));
        acc.push(&Value::str("s"));
        assert_eq!(acc.shape().to_string(), "any⟨int, string⟩");
        assert!(acc.covers(&Value::Int(2)) && acc.covers(&Value::str("t")));
        assert!(acc.covers(&Value::Null));
        assert!(!acc.covers(&Value::Bool(true)) && !acc.covers(&Value::Float(0.5)));
        // Cases absorb their items while each multiplicity still admits
        // the count: `1` cases need exactly one item apiece.
        let mut acc = InferAccumulator::new(InferOptions::json());
        acc.push(&arr([Value::Int(1), Value::str("s")]));
        assert!(matches!(acc.shape(), Shape::HeteroList(_)));
        assert!(acc.covers(&arr([Value::str("t"), Value::Int(2)])));
        assert!(!acc.covers(&arr([Value::Int(1)])));
        assert!(!acc.covers(&arr([Value::Int(1), Value::Int(2), Value::str("t")])));
        assert!(!acc.covers(&arr([Value::Int(1), Value::str("t"), Value::Null])));
        acc.push(&arr([Value::Int(1), Value::Int(2)]));
        assert!(acc.covers(&arr([])) && acc.covers(&arr([Value::Int(7)])));
        // Cases still in first-seen order come back sorted from a merge.
        let mut acc = InferAccumulator::new(InferOptions::json());
        acc.push(&arr([Value::str("s"), Value::Int(1)]));
        assert!(!acc.covers(&arr([Value::str("t"), Value::Int(2)])));
    }

    #[test]
    fn the_fast_path_declines_what_it_cannot_vouch_for() {
        // A collection mixing tags under a homogeneous σ.
        let mut acc = InferAccumulator::new(InferOptions {
            infer_bits: true,
            ..InferOptions::json()
        });
        acc.push(&arr([Value::Bool(true), Value::Bool(false)]));
        assert!(acc.covers(&arr([Value::Bool(true), Value::Bool(true)])));
        assert!(!acc.covers(&arr([Value::Bool(true), Value::Int(1)])));
        // A single-element collection the XML preset keeps as a `1` case.
        let mut acc = InferAccumulator::new(InferOptions::xml());
        acc.push(&rec("r", [("i", arr([Value::Int(1), Value::Int(2)]))]));
        assert!(!acc.covers(&rec("r", [("i", arr([Value::Int(3)]))])));
        assert!(acc.covers(&rec("r", [("i", arr([Value::Int(3), Value::Int(4)]))])));
        // A repeated key turns the fast path off for the rest of the fold.
        let mut acc = InferAccumulator::new(InferOptions::json());
        let repeated = json_rec([("a", Value::Int(1)), ("a", Value::Float(2.5))]);
        acc.push(&repeated);
        assert!(!acc.covers(&repeated));
        assert!(!acc.covers(&json_rec([("a", Value::Int(1))])));
        let mut expected = InferAccumulator::new(InferOptions::json());
        expected.push(&repeated);
        expected.push(&repeated);
        acc.push(&repeated);
        assert_eq!(acc.shape().to_string(), expected.shape().to_string());
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
