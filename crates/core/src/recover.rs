//! Resilient ingest: what the pipeline does with malformed records, and
//! the resource caps it never exceeds.
//!
//! The paper's multi-sample inference is a semilattice fold (Fig. 3:
//! `σi = csh(σi−1, S(di))`), and the fold is associative and
//! commutative. That makes *recovery* composable in a way it is not for
//! most parsers: dropping a malformed record is exactly the same thing
//! as deleting it from the corpus before folding, so a Skip-mode run
//! over a corrupted corpus must produce **byte-identically** the shape
//! of the clean subset — a property `tests/recovery_differential.rs`
//! checks for every format × source × job count.
//!
//! This module holds the vocabulary of [`crate::engine::run`]:
//!
//! 1. [`RecoveryPolicy`] — how a run responds to malformed records
//!    ([`RecoveryMode::FailFast`] or [`RecoveryMode::Skip`]) and the
//!    hard resource caps it honours (`max_record_bytes`, `max_depth` —
//!    at most [`MAX_DEPTH_CEILING`] — and in Skip mode the `max_errors`
//!    budget).
//! 2. [`ErrorReport`] — the bounded, document-ordered record of what a
//!    Skip-mode run dropped: the first [`ERROR_REPORT_KEEP`] errors
//!    verbatim, plus the total count and the last error.
//! 3. [`Recovered`] — a run's fold plus its report.
//!
//! Skip-mode recovery leans on one invariant: the per-format boundary
//! scanners are *resumable state machines over raw bytes* that never
//! feed back into the parser, so a record whose **content** is garbage
//! still gets delimited correctly as long as its string/quote/depth
//! structure closes. When a bundle's one-shot parse fails, the failing
//! record — from the boundary the parser reached to the next one — is
//! parsed on its own, and the bundle parse resumes after it, so a failed
//! record reports exactly the error a fail-fast run reports for it — at
//! its stream-global position — and a clean record contributes exactly
//! its shape. Fail-fast is the same path with a budget of 0.

use crate::engine::{run, IngestConfig, Source};
use crate::infer::InferOptions;
use crate::stream::{StreamError, StreamFormat, StreamSummary};
use tfd_value::Interner;

/// Default Skip-mode error budget: after this many skipped records the
/// run aborts with [`StreamError::TooManyErrors`] instead of silently
/// inferring a shape from what may be mostly noise.
pub const DEFAULT_MAX_ERRORS: usize = 1000;

/// Default cap on a single record's byte size (16 MiB): large enough
/// for any schema-shaped record, small enough that an unclosed string
/// cannot buffer a multi-gigabyte stream.
pub const DEFAULT_MAX_RECORD_BYTES: usize = 16 * 1024 * 1024;

/// The deepest nesting a `max_depth` override may ask for. The parsers
/// recurse once per nesting level, so an unbounded override would let
/// one document overflow a worker's stack; the CLI (`--max-depth`) and
/// the registry (`?max_depth=`) reject anything deeper.
pub const MAX_DEPTH_CEILING: usize = 1024;

/// The stack every thread that parses records is given: room for
/// [`MAX_DEPTH_CEILING`] levels of the recursive parsers, with headroom
/// even in unoptimized builds (which need 4–8 MiB for it, against about
/// 1 MiB optimized). The reservation is virtual: only touched pages
/// count toward resident memory.
pub const PARSER_STACK_BYTES: usize = 16 << 20;

/// How many skipped errors an [`ErrorReport`] keeps verbatim; beyond
/// this the report keeps counting (and remembers the last error) but
/// drops the middle, so a pathological corpus cannot turn the report
/// itself into a memory hazard.
pub const ERROR_REPORT_KEEP: usize = 256;

/// What a driver does when it meets a malformed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Stop at the first malformed record and return its error — the
    /// engine's classical behaviour.
    FailFast,
    /// Drop the malformed record, re-synchronise at the next record
    /// boundary, and keep folding; every dropped record is logged in
    /// the run's [`ErrorReport`].
    Skip,
}

/// How a parse→infer run responds to malformed input and how much of
/// any one record it is willing to buffer.
///
/// The default policy is fail-fast with the default caps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Fail fast or skip-and-log.
    pub mode: RecoveryMode,
    /// Skip mode only: abort with [`StreamError::TooManyErrors`] once
    /// more than this many records have been skipped.
    pub max_errors: usize,
    /// Hard cap on a single record's byte size: a reader source never
    /// buffers more than this of one record, and an oversized record is
    /// an error like any other (dropped in Skip mode).
    pub max_record_bytes: usize,
    /// Overrides the format's nesting-depth limit (JSON default 128,
    /// XML default 256); `None` keeps the format default. CSV has no
    /// nesting and ignores it. Callers accepting untrusted values keep
    /// it at most [`MAX_DEPTH_CEILING`].
    pub max_depth: Option<usize>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            mode: RecoveryMode::FailFast,
            max_errors: DEFAULT_MAX_ERRORS,
            max_record_bytes: DEFAULT_MAX_RECORD_BYTES,
            max_depth: None,
        }
    }
}

impl RecoveryPolicy {
    /// The default Skip-mode policy: drop malformed records, keep
    /// folding, abort after [`DEFAULT_MAX_ERRORS`] skips.
    pub fn skip() -> Self {
        RecoveryPolicy {
            mode: RecoveryMode::Skip,
            ..RecoveryPolicy::default()
        }
    }
}

/// The document-ordered record of what a Skip-mode run dropped.
///
/// The first [`ERROR_REPORT_KEEP`] errors are kept verbatim; past that
/// the report keeps only the running total and the most recent error,
/// so its memory is bounded no matter how corrupt the corpus is. The
/// pipeline's workers keep reports of their format's own error type,
/// positioned within a bundle, and [`map`](ErrorReport::map) them into
/// stream-global [`StreamError`]s at the join.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorReport<E = StreamError> {
    errors: Vec<E>,
    total: usize,
    last: Option<E>,
}

impl<E> Default for ErrorReport<E> {
    fn default() -> Self {
        ErrorReport {
            errors: Vec::new(),
            total: 0,
            last: None,
        }
    }
}

impl<E> ErrorReport<E> {
    /// An empty report.
    pub fn new() -> ErrorReport<E> {
        ErrorReport::default()
    }

    /// True when nothing was skipped.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// How many records were skipped in total (kept or not).
    pub fn total(&self) -> usize {
        self.total
    }

    /// The kept document-order prefix of skipped errors (at most
    /// [`ERROR_REPORT_KEEP`] of them).
    pub fn errors(&self) -> &[E] {
        &self.errors
    }

    /// The first skipped error in document order, if any.
    pub fn first(&self) -> Option<&E> {
        self.errors.first()
    }

    /// The last skipped error in document order, if any (kept even when
    /// the middle of the report was dropped).
    pub fn last(&self) -> Option<&E> {
        self.last.as_ref().or_else(|| self.errors.last())
    }

    /// Logs one skipped error (document order is the caller's
    /// responsibility).
    pub fn record(&mut self, e: E) {
        self.total += 1;
        if self.errors.len() < ERROR_REPORT_KEEP {
            self.errors.push(e);
        } else {
            self.last = Some(e);
        }
    }

    /// The same report with every error converted by `f`.
    pub fn map<T>(self, mut f: impl FnMut(E) -> T) -> ErrorReport<T> {
        ErrorReport {
            errors: self.errors.into_iter().map(&mut f).collect(),
            total: self.total,
            last: self.last.map(f),
        }
    }
}

impl<E: Clone> ErrorReport<E> {
    /// Appends `other` (whose errors all follow `self`'s in document
    /// order), preserving the kept-prefix + total + last structure.
    pub fn merge(&mut self, other: ErrorReport<E>) {
        if other.total == 0 {
            return;
        }
        let new_last = other.last().cloned();
        // Only extend the kept prefix if `self` has not already dropped
        // errors — otherwise `other`'s errors come after a gap and the
        // prefix would stop being a prefix.
        let self_complete = self.total == self.errors.len();
        self.total += other.total;
        if self_complete {
            let room = ERROR_REPORT_KEEP.saturating_sub(self.errors.len());
            self.errors.extend(other.errors.into_iter().take(room));
        }
        self.last = if self.total > self.errors.len() {
            new_last
        } else {
            None
        };
    }
}

impl ErrorReport<StreamError> {
    #[allow(clippy::expect_used)] // checked invariant, documented at each site
    /// Consumes the report into the budget-exceeded error. Must only be
    /// called when at least one error was recorded.
    pub(crate) fn into_budget_error(mut self, limit: usize) -> StreamError {
        let first = self
            .errors
            .drain(..)
            .next()
            .expect("an exceeded budget implies at least one recorded error");
        StreamError::TooManyErrors {
            limit,
            first: Box::new(first),
        }
    }
}

/// A successful (possibly partial) resilient run: the fold over every
/// record that parsed, plus the report of everything that did not.
///
/// `summary.shape` is the *record fold*; lift it with
/// [`DataFormat::wrap_corpus_shape`](crate::DataFormat::wrap_corpus_shape)
/// / [`crate::engine::wrap_corpus_shape_dyn`] to match the one-shot
/// corpus shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// The shape, record count and byte count of the clean subset.
    pub summary: StreamSummary,
    /// What was skipped (empty in fail-fast mode and on clean input).
    pub report: ErrorReport,
}

/// [`run`] over an in-memory corpus under `policy`.
///
/// # Errors
///
/// As [`run`].
pub fn infer_slice_policy_dyn_in(
    format: StreamFormat,
    corpus: &[u8],
    options: &InferOptions,
    policy: &RecoveryPolicy,
    jobs: usize,
    interner: &Interner,
) -> Result<Recovered, StreamError> {
    let config = IngestConfig {
        jobs,
        policy: *policy,
        options: options.clone(),
        ..IngestConfig::new(format)
    };
    run(Source::Bytes(corpus), &config, interner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_report_keeps_a_prefix_a_total_and_the_last() {
        let mut r = ErrorReport::new();
        for i in 0..(ERROR_REPORT_KEEP + 10) {
            r.record(StreamError::Csv(tfd_csv::CsvError::UnterminatedQuote(
                i + 1,
            )));
        }
        assert_eq!(r.total(), ERROR_REPORT_KEEP + 10);
        assert_eq!(r.errors().len(), ERROR_REPORT_KEEP);
        assert_eq!(
            r.first(),
            Some(&StreamError::Csv(tfd_csv::CsvError::UnterminatedQuote(1)))
        );
        assert_eq!(
            r.last(),
            Some(&StreamError::Csv(tfd_csv::CsvError::UnterminatedQuote(
                ERROR_REPORT_KEEP + 10
            )))
        );
        // Merging preserves the structure.
        let mut a = ErrorReport::new();
        a.record(StreamError::Csv(tfd_csv::CsvError::Empty));
        let mut b = ErrorReport::new();
        b.record(StreamError::Csv(tfd_csv::CsvError::UnterminatedQuote(9)));
        a.merge(b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.first(), Some(&StreamError::Csv(tfd_csv::CsvError::Empty)));
        assert_eq!(
            a.last(),
            Some(&StreamError::Csv(tfd_csv::CsvError::UnterminatedQuote(9)))
        );
        // Mapping keeps the structure too.
        let mapped = a.map(|e| e.to_string());
        assert_eq!(mapped.total(), 2);
        assert_eq!(
            mapped.first().map(String::as_str),
            Some("input contains no rows")
        );
    }
}
