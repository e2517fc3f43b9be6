//! Skip-mode differential suite (resilient ingest).
//!
//! The recovery layer (`tfd_core::recover`) promises that dropping a
//! malformed record is *observationally identical* to deleting it from
//! the corpus before the fold: the Fig. 3 fold `σi = csh(σ(i−1), S(di))`
//! is a semilattice join, so the clean records' shape is independent of
//! what sat between them. This suite generates corpora, corrupts `k`
//! records with structure-preserving corruptions (the boundary scanner
//! still delimits them: braces, quotes and tag depth stay balanced),
//! and asserts for JSON, XML and CSV, across job counts 1/2/7, bundle
//! sizes down to one record, and chunked readers, that
//!
//! 1. the Skip-mode shape equals the clean-subset shape byte-for-byte,
//! 2. the `ErrorReport` names exactly the `k` corrupted records, at
//!    their stream-global positions, in document order.

mod common;

use common::{ingest, value_strategy};
use proptest::prelude::*;
use tfd_core::engine::{CsvFormat, DataFormat, JsonFormat, Source, XmlFormat};
use tfd_core::recover::Recovered;
use tfd_core::stream::StreamError;
use tfd_core::{RecoveryPolicy, StreamFormat};
use tfd_value::Interner;

/// In-memory (jobs, bundle size) pairs: one bundle per record up to
/// one bundle for the whole corpus.
const SLICES: &[(usize, usize)] = &[(1, 1 << 16), (1, 1), (2, 9), (7, 1)];
/// Reader (chunk size, jobs) pairs.
const READERS: &[(usize, usize)] = &[(7, 2), (64, 7), (4096, 1)];

/// The witness's runtime format tag.
fn format_of<F: DataFormat>() -> StreamFormat {
    match F::NAME {
        "json" => StreamFormat::Json,
        "xml" => StreamFormat::Xml,
        _ => StreamFormat::Csv,
    }
}

/// One generated corpus: every record on its own line, `k` of them
/// corrupted, plus the expected clean subset and corrupted line numbers.
struct Mutated {
    dirty: String,
    clean: String,
    bad_lines: Vec<usize>,
}

/// Assembles a one-record-per-line corpus. `header` is prepended
/// verbatim to both texts (the CSV header row; empty otherwise); every
/// record whose flag is set is replaced by a corruption drawn
/// round-robin from `corruptions`. The first record is always kept
/// clean, so the clean subset is never empty (an empty corpus is a hard
/// error in both modes, by design).
fn mutate(header: &str, records: &[(String, bool)], corruptions: &[&str]) -> Mutated {
    let mut dirty = header.to_owned();
    let mut clean = header.to_owned();
    let mut bad_lines = Vec::new();
    let first_line = 1 + header.lines().count();
    let mut bad = 0usize;
    for (i, (rec, corrupt)) in records.iter().enumerate() {
        if *corrupt && i > 0 {
            dirty.push_str(corruptions[bad % corruptions.len()]);
            bad += 1;
            bad_lines.push(first_line + i);
        } else {
            dirty.push_str(rec);
            clean.push_str(rec);
            clean.push('\n');
        }
        dirty.push('\n');
    }
    Mutated {
        dirty,
        clean,
        bad_lines,
    }
}

/// A corruption flag, true ~35% of the time.
fn flag() -> SFn<bool> {
    (0usize..100).prop_map(|x| x < 35).boxed()
}

/// Asserts one Skip-mode run: shape and record count equal the
/// clean-subset run, and the report names each corrupted line once, in
/// document order.
fn assert_recovered<F: DataFormat>(got: &Recovered, m: &Mutated, label: &str) {
    let interner = Interner::new();
    let want = ingest(
        format_of::<F>(),
        Source::Bytes(m.clean.as_bytes()),
        1,
        1 << 16,
        RecoveryPolicy::default(),
        &interner,
    )
    .unwrap_or_else(|e| panic!("{label}: clean subset must parse: {e:?}"))
    .summary;
    assert_eq!(
        format!("{:?}", got.summary.shape),
        format!("{:?}", want.shape),
        "{} {label}: skip shape != clean-subset shape\ndirty:\n{}",
        F::NAME,
        m.dirty
    );
    assert_eq!(
        got.summary.records,
        want.records,
        "{} {label}: record count",
        F::NAME
    );
    assert_eq!(
        got.report.total(),
        m.bad_lines.len(),
        "{} {label}: skipped-record count\ndirty:\n{}",
        F::NAME,
        m.dirty
    );
    // Every corrupted record is named at its stream-global line, in
    // document order (the kept prefix holds all of them here).
    assert_eq!(got.report.errors().len(), m.bad_lines.len());
    for (err, line) in got.report.errors().iter().zip(&m.bad_lines) {
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("line {line}")),
            "{} {label}: error {msg:?} should be on line {line}",
            F::NAME
        );
    }
}

/// Drives one mutated corpus through the Skip-mode pipeline: in-memory
/// at every (jobs, bundle size) pair and from a reader at several
/// (chunk, jobs) pairs.
fn assert_skip_equals_clean_subset<F: DataFormat>(m: &Mutated) {
    let policy = RecoveryPolicy::skip();
    let format = format_of::<F>();
    for &(jobs, chunk) in SLICES {
        let interner = Interner::new();
        let got = ingest(
            format,
            Source::Bytes(m.dirty.as_bytes()),
            jobs,
            chunk,
            policy,
            &interner,
        )
        .unwrap_or_else(|e| panic!("{} slice jobs {jobs} chunk {chunk}: {e}", F::NAME));
        assert_recovered::<F>(&got, m, &format!("slice jobs {jobs} chunk {chunk}"));
    }
    for &(chunk, jobs) in READERS {
        let interner = Interner::new();
        let reader = Source::Reader(Box::new(m.dirty.as_bytes()));
        let got = ingest(format, reader, jobs, chunk, policy, &interner)
            .unwrap_or_else(|e| panic!("{} reader chunk {chunk} jobs {jobs}: {e}", F::NAME));
        assert_recovered::<F>(&got, m, &format!("reader chunk {chunk} jobs {jobs}"));
    }
}

// Structure-preserving corruptions: content-level garbage whose braces,
// quotes and tag depth still balance, so the boundary scanner delimits
// them exactly like the record they replace.
const JSON_BAD: &[&str] = &["{\"bad\": @}", "[1,]", "{\"a\" 1}"];
const XML_BAD: &[&str] = &["<bad x=1></bad>", "<r>&undef;</r>", "<a><b></a></b>"];
const CSV_BAD: &[&str] = &["\"x\"y,9", "\"p\"!,q"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn json_skip_mode_equals_clean_subset(
        recs in prop::collection::vec((value_strategy(), flag()), 1..10),
    ) {
        let records: Vec<(String, bool)> = recs
            .iter()
            .map(|(d, c)| {
                (tfd_json::to_json_string(&tfd_json::Json::from_value(d)), *c)
            })
            .collect();
        let m = mutate("", &records, JSON_BAD);
        assert_skip_equals_clean_subset::<JsonFormat>(&m);
    }

    #[test]
    fn xml_skip_mode_equals_clean_subset(
        recs in prop::collection::vec(
            (
                ("[a-z]", "[a-z0-9]{0,3}", "[a-z 0-9]{0,6}").prop_map(|(h, n, t)| {
                    let name = format!("{h}{n}");
                    if t.is_empty() {
                        format!("<{name}/>")
                    } else {
                        format!("<{name}>{t}</{name}>")
                    }
                }),
                flag(),
            ),
            1..10,
        ),
    ) {
        let m = mutate("", &recs, XML_BAD);
        assert_skip_equals_clean_subset::<XmlFormat>(&m);
    }

    #[test]
    fn csv_skip_mode_equals_clean_subset(
        recs in prop::collection::vec(
            (
                (0i64..1000, "[a-z]{0,5}").prop_map(|(a, b)| format!("{a},{b}")),
                flag(),
            ),
            1..10,
        ),
    ) {
        let m = mutate("a,b\n", &recs, CSV_BAD);
        assert_skip_equals_clean_subset::<CsvFormat>(&m);
    }

    /// The error budget is exact: a budget of exactly `k` lets the run
    /// through, `k − 1` aborts with the document-order first error —
    /// regardless of sharding.
    #[test]
    fn budget_boundary_is_exact(
        recs in prop::collection::vec((value_strategy(), flag()), 2..8),
    ) {
        let records: Vec<(String, bool)> = recs
            .iter()
            .map(|(d, c)| {
                (tfd_json::to_json_string(&tfd_json::Json::from_value(d)), *c)
            })
            .collect();
        let m = mutate("", &records, JSON_BAD);
        let k = m.bad_lines.len();
        prop_assume!(k > 0);
        let mut policy = RecoveryPolicy::skip();
        for &(jobs, chunk) in SLICES {
            let interner = Interner::new();
            let run = |policy| ingest(
                StreamFormat::Json, Source::Bytes(m.dirty.as_bytes()), jobs, chunk, policy, &interner,
            );
            policy.max_errors = k;
            let ok = run(policy);
            prop_assert!(ok.is_ok(), "budget k at jobs {jobs} chunk {chunk}: {ok:?}");

            policy.max_errors = k - 1;
            let err = run(policy);
            match err {
                Err(StreamError::TooManyErrors { limit, first }) => {
                    prop_assert_eq!(limit, k - 1);
                    prop_assert!(
                        first.to_string().contains(&format!("line {}", m.bad_lines[0])),
                        "first {} should be line {}", first, m.bad_lines[0]
                    );
                }
                other => {
                    return Err(TestCaseError::Fail(format!(
                        "expected TooManyErrors at jobs {jobs} chunk {chunk}, got {other:?}"
                    )));
                }
            }
        }
    }
}

/// A corrupt CSV header row (the quote closes, so the row still ends at
/// its newline) is dropped and the next record becomes the header —
/// exactly what deleting the bad row means — from bytes and readers
/// alike; an empty CSV corpus stays a hard error even in Skip mode.
#[test]
fn skip_mode_csv_recovers_a_corrupt_header_and_rejects_empty_input() {
    let dirty = "\"a\"!,b\nx,y\n1,2\n";
    let clean = "x,y\n1,2\n";
    let interner = Interner::new();
    let want = ingest(
        StreamFormat::Csv,
        Source::Bytes(clean.as_bytes()),
        1,
        64,
        RecoveryPolicy::default(),
        &interner,
    )
    .unwrap();
    for (source, label) in [
        (Source::Bytes(dirty.as_bytes()), "bytes"),
        (Source::Reader(Box::new(dirty.as_bytes())), "reader"),
    ] {
        let got = ingest(
            StreamFormat::Csv,
            source,
            2,
            3,
            RecoveryPolicy::skip(),
            &interner,
        )
        .unwrap();
        assert_eq!(got.summary.shape, want.summary.shape, "{label}");
        assert_eq!(got.summary.records, 1, "{label}");
        assert_eq!(got.report.total(), 1, "{label}");
        assert!(
            got.report.first().unwrap().to_string().contains("line 1"),
            "{label}"
        );
    }
    for source in [Source::Bytes(b""), Source::Reader(Box::new(&b""[..]))] {
        let e = ingest(
            StreamFormat::Csv,
            source,
            2,
            8,
            RecoveryPolicy::skip(),
            &interner,
        )
        .unwrap_err();
        assert_eq!(e, StreamError::Csv(tfd_csv::CsvError::Empty));
    }
}

/// What real files put around records.
#[derive(Debug, Clone, Copy)]
enum Sep {
    Lf,
    CrLf,
    /// A blank line (JSON and XML; CSV writes blank rows as records).
    Blank,
    /// An XML comment between documents.
    Comment,
    /// An XML processing instruction between documents.
    Pi,
}

impl Sep {
    fn text(self) -> &'static str {
        match self {
            Sep::Lf => "\n",
            Sep::CrLf => "\r\n",
            Sep::Blank => "\n\r\n",
            Sep::Comment => "\n<!-- between -->\n",
            Sep::Pi => "\n<?note a=\"1\"?>\n",
        }
    }
}

/// One record of a laid-out corpus: its text, whether it is replaced by
/// a corruption, whether junk follows it on its line, and what separates
/// it from the next.
type Slot = (String, bool, bool, Sep);

/// Lays records out the way real files have them: the separators of
/// `slots`, junk straight after a complete record, and a final newline
/// only when `final_newline`. The first record is kept clean (for CSV
/// the header row is separate and always clean).
///
/// `junk` must be a record of its own to the format's boundary scanner
/// (JSON's `x` after a record is a one-byte junk record); the expected
/// report then names it too, on its record's line. Returns the layout and
/// whether the clean subset is meaningful: XML junk glues onto the next
/// document, so an XML layout with junk is only compared across bundle
/// sizes.
fn lay_out(
    header: &str,
    slots: &[Slot],
    corruptions: &[&str],
    junk: Option<&str>,
    final_newline: bool,
) -> Mutated {
    let mut dirty = header.to_owned();
    let mut clean = header.to_owned();
    let mut bad_lines = Vec::new();
    for (i, (rec, corrupt, with_junk, sep)) in slots.iter().enumerate() {
        let line = 1 + dirty.matches('\n').count();
        let last = i + 1 == slots.len();
        let sep = if last && !final_newline {
            ""
        } else {
            sep.text()
        };
        if *corrupt && i > 0 {
            dirty.push_str(corruptions[bad_lines.len() % corruptions.len()]);
            bad_lines.push(line);
        } else {
            dirty.push_str(rec);
            clean.push_str(rec);
            clean.push_str(sep);
        }
        if let (Some(junk), true) = (junk, *with_junk) {
            dirty.push_str(junk);
            bad_lines.push(line);
        }
        dirty.push_str(sep);
    }
    Mutated {
        dirty,
        clean,
        bad_lines,
    }
}

/// Skip mode over `m` at jobs 1/2/7: the whole corpus in one bundle
/// (which resumes past every bad record) and one-byte windows (at most
/// one record per bundle, so nothing resumes) give the same shape,
/// record count and `ErrorReport`; with `apart`, both also match the
/// clean subset.
fn assert_resume_equals_one_per_bundle<F: DataFormat>(m: &Mutated, apart: bool) {
    let format = format_of::<F>();
    for jobs in [1, 2, 7] {
        let interner = Interner::new();
        let run = |chunk| {
            ingest(
                format,
                Source::Bytes(m.dirty.as_bytes()),
                jobs,
                chunk,
                RecoveryPolicy::skip(),
                &interner,
            )
            .unwrap_or_else(|e| panic!("{} jobs {jobs} chunk {chunk}: {e}", F::NAME))
        };
        let (whole, single) = (run(1 << 16), run(1));
        let label = format!("{} jobs {jobs}\ndirty: {:?}", F::NAME, m.dirty);
        assert_eq!(
            format!("{:?}", whole.summary.shape),
            format!("{:?}", single.summary.shape),
            "{label}"
        );
        assert_eq!(whole.summary.records, single.summary.records, "{label}");
        assert_eq!(whole.report, single.report, "{label}");
        if apart {
            assert_recovered::<F>(&whole, m, &format!("whole jobs {jobs}"));
            assert_recovered::<F>(&single, m, &format!("one-byte jobs {jobs}"));
        }
    }
}

/// A corruption rate that also yields runs of adjacent bad records, and
/// corpora where every record after the first is bad.
fn bad_rate() -> SFn<usize> {
    prop::sample::select(&[0, 20, 60, 100])
}

fn slots<S: Strategy<Value = String> + 'static>(
    record: S,
    seps: &'static [Sep],
    junk: bool,
) -> SFn<(Vec<Slot>, bool)> {
    (
        prop::collection::vec(
            (
                record,
                (0usize..100, 0usize..100),
                prop::sample::select(seps),
            ),
            1..12,
        ),
        bad_rate(),
        any::<bool>(),
    )
        .prop_map(move |(raw, rate, final_newline)| {
            let slots = raw
                .into_iter()
                .map(|(rec, (bad, j), sep)| (rec, bad < rate, junk && j < 25, sep))
                .collect();
            (slots, final_newline)
        })
        .boxed()
}

const JSON_SEPS: &[Sep] = &[Sep::Lf, Sep::CrLf, Sep::Blank];
const XML_SEPS: &[Sep] = &[Sep::Lf, Sep::CrLf, Sep::Blank, Sep::Comment, Sep::Pi];
const CSV_SEPS: &[Sep] = &[Sep::Lf, Sep::CrLf];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn json_resume_equals_one_record_per_bundle(
        (slots, final_newline) in slots(
            value_strategy().prop_map(|d| {
                let text = tfd_json::to_json_string(&tfd_json::Json::from_value(&d));
                // `truex` is one bad record to the scanner, not a
                // keyword and junk: keep junk off keywords.
                if text.ends_with(|c: char| c.is_ascii_alphabetic()) {
                    format!("[{text}]")
                } else {
                    text
                }
            }),
            JSON_SEPS,
            true,
        ),
    ) {
        let m = lay_out("", &slots, JSON_BAD, Some("x"), final_newline);
        assert_resume_equals_one_per_bundle::<JsonFormat>(&m, true);
    }

    #[test]
    fn xml_resume_equals_one_record_per_bundle(
        (slots, final_newline) in slots(
            ("[a-z]", "[a-z0-9]{0,3}", "[a-z 0-9]{0,6}").prop_map(|(h, n, t)| {
                let name = format!("{h}{n}");
                if t.is_empty() {
                    format!("<{name}/>")
                } else {
                    format!("<{name}>{t}</{name}>")
                }
            }),
            XML_SEPS,
            true,
        ),
    ) {
        let junk = slots.iter().any(|s| s.2);
        let m = lay_out("", &slots, XML_BAD, Some("junk"), final_newline);
        assert_resume_equals_one_per_bundle::<XmlFormat>(&m, !junk);
    }

    #[test]
    fn csv_resume_equals_one_record_per_bundle(
        (slots, final_newline) in slots(
            prop_oneof![
                (0i64..1000, "[a-z]{0,5}").prop_map(|(a, b)| format!("{a},{b}")),
                // A blank line is a row of empty cells.
                Just(String::new()),
            ],
            CSV_SEPS,
            false,
        ),
    ) {
        let m = lay_out("a,b\r\n", &slots, CSV_BAD, None, final_newline);
        assert_resume_equals_one_per_bundle::<CsvFormat>(&m, true);
    }
}
