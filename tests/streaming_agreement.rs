//! Streaming-vs-batch differential suite.
//!
//! The ingest pipeline (`tfd_core::run`) over a `Read` source promises
//! to be *observationally identical* to the one-shot byte parsers, no
//! matter where reads split the bytes or how many workers parse them:
//! the same record count, the same final `Shape` as the `InferAccumulator`
//! fold of the one-shot values, and — for malformed input — the same
//! error kind at the same line/char-correct column. This suite drives
//! that promise with generated corpora under adversarial read splits
//! (pieces of cycling sizes, 1-byte pieces, splits inside multi-byte
//! UTF-8 sequences, escapes, CRLF pairs and quoted CSV fields) at
//! jobs 1, 2 and 7, plus mutation-based error agreement and the named
//! regressions the differential work shook out.

mod common;

use common::{ingest, ingest_bytes, ingest_pieces, piece_rotations, value_strategy};
use proptest::prelude::*;
use std::fmt::Write as _;
use tfd_core::engine::Source;
use tfd_core::stream::{InferAccumulator, StreamError, StreamFormat};
use tfd_core::{globalize, infer_many, infer_with, InferOptions, RecoveryPolicy, Shape};
use tfd_value::{Interner, Value};

/// Job counts every streamed corpus runs at.
const JOBS: &[usize] = &[1, 2, 7];

/// A run's observable outcome: the rendered record fold and the record
/// count, or the error.
type Outcome = Result<(String, usize), StreamError>;

/// Folds records through the incremental `σi = csh(σi−1, S(di))`.
fn fold_shape(records: &[Value], options: &InferOptions) -> Shape {
    let mut acc = InferAccumulator::new(options.clone());
    for r in records {
        acc.push(r);
    }
    acc.finish()
}

/// The one-shot front-end's records for `text` (CSV: the data rows).
fn oneshot_values(
    format: StreamFormat,
    text: &str,
    interner: &Interner,
) -> Result<Vec<Value>, StreamError> {
    match format {
        StreamFormat::Json => tfd_json::parse_many_values_in(text, &Default::default(), interner)
            .map_err(StreamError::Json),
        StreamFormat::Xml => {
            tfd_xml::parse_many_values_in(text, &Default::default(), &Default::default(), interner)
                .map_err(StreamError::Xml)
        }
        StreamFormat::Csv => {
            tfd_csv::parse_value_in(text, &Default::default(), &Default::default(), interner)
                .map(|v| match v {
                    Value::List(rows) => rows,
                    other => panic!("expected a row list, got {other}"),
                })
                .map_err(StreamError::Csv)
        }
    }
}

/// What every run must produce: the one-shot values' fold, or the
/// one-shot error.
fn oneshot(format: StreamFormat, text: &str) -> Outcome {
    let interner = Interner::new();
    let values = oneshot_values(format, text, &interner)?;
    let options = tfd_core::engine::infer_options_dyn(format);
    Ok((format!("{:?}", fold_shape(&values, &options)), values.len()))
}

/// One run over `bytes` read in pieces cycling through `sizes`.
fn streamed(
    format: StreamFormat,
    bytes: &[u8],
    sizes: &[usize],
    jobs: usize,
    policy: RecoveryPolicy,
) -> Outcome {
    let interner = Interner::new();
    ingest_pieces(format, bytes, sizes, jobs, policy, &interner)
        .map(|r| (format!("{:?}", r.summary.shape), r.summary.records))
}

/// Asserts the pipeline over `sizes`-pieces agrees with `want` at every
/// job count.
fn assert_streams_to(format: StreamFormat, bytes: &[u8], sizes: &[usize], want: &Outcome) {
    for &jobs in JOBS {
        let got = streamed(format, bytes, sizes, jobs, RecoveryPolicy::default());
        assert_eq!(
            &got,
            want,
            "{format:?} pieces {sizes:?} jobs {jobs} on {:?}",
            String::from_utf8_lossy(bytes)
        );
    }
}

/// The named-case sweep: every rotation of the cycling piece sizes
/// {1, 2, 3, 7, 64, 4096}, plus straight 1-byte pieces, at jobs 1/2/7,
/// against the one-shot outcome.
fn assert_sweep_agrees(format: StreamFormat, text: &str) {
    let want = oneshot(format, text);
    for sizes in piece_rotations().iter().chain([&vec![1]]) {
        assert_streams_to(format, text.as_bytes(), sizes, &want);
    }
}

/// Replaces the char at (position % len) with `c`, staying valid UTF-8.
fn mutate(text: &str, position: usize, c: char) -> String {
    if text.is_empty() {
        return c.to_string();
    }
    let chars: Vec<char> = text.chars().collect();
    let at = position % chars.len();
    chars
        .iter()
        .enumerate()
        .map(|(i, &orig)| if i == at { c } else { orig })
        .collect()
}

/// Truncates to the first (length % (chars+1)) characters.
fn truncate(text: &str, length: usize) -> String {
    let chars: Vec<char> = text.chars().collect();
    chars[..length % (chars.len() + 1)].iter().collect()
}

// --- JSON ---

/// A document whose serialization exercises escapes, raw multi-byte
/// UTF-8 and control-character escapes — appended to every generated
/// JSON corpus so read splits land inside `\"`-escapes and mid-char.
fn nasty_json_doc() -> Value {
    Value::record(
        tfd_value::BODY_NAME,
        [
            ("esc", Value::str("a\"b\\c\nd\te\u{7}")),
            ("utf", Value::str("čaj 😀 日本語")),
            ("num", Value::Float(-2.5e-3)),
        ],
    )
}

fn json_corpus_text(docs: &[Value], seps: &[&str]) -> String {
    let mut text = String::new();
    for (i, d) in docs.iter().enumerate() {
        text.push_str(&tfd_json::to_json_string(&tfd_json::Json::from_value(d)));
        text.push_str(seps.get(i % seps.len().max(1)).copied().unwrap_or(" "));
    }
    text
}

// Separators for valid corpora are non-empty: two adjacent keyword or
// number documents would otherwise fuse into one (or invalid) token. The
// mutation property additionally uses "" — self-delimiting documents may
// legally abut, and for the rest only *agreement* matters there.
const JSON_SEPS: &[&str] = &[" ", "\n", "\t\r\n "];
const JSON_SEPS_ALL: &[&str] = &[" ", "\n", "\t\r\n ", ""];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Shapes and record counts agree with the `parse_many_values` fold
    /// under arbitrary read splits, 1-byte pieces included.
    #[test]
    fn json_streaming_agrees_on_valid_corpora(
        docs in prop::collection::vec(value_strategy(), 0..5),
        seps in prop::collection::vec(prop::sample::select(JSON_SEPS), 1..4),
        sizes in prop::collection::vec(1usize..9, 1..5),
    ) {
        let mut docs = docs;
        docs.push(nasty_json_doc());
        let text = json_corpus_text(&docs, &seps);
        let want = oneshot(StreamFormat::Json, &text);
        prop_assert!(want.is_ok(), "generated corpus is valid");
        assert_streams_to(StreamFormat::Json, text.as_bytes(), &sizes, &want);
        assert_streams_to(StreamFormat::Json, text.as_bytes(), &[1], &want);
    }

    /// Mutated (usually invalid) corpora: the streaming outcome — fold,
    /// or error kind *and* position — is identical to the one-shot
    /// outcome wherever the reads split.
    #[test]
    fn json_error_agreement_under_mutation(
        docs in prop::collection::vec(value_strategy(), 1..4),
        seps in prop::collection::vec(prop::sample::select(JSON_SEPS_ALL), 1..3),
        sizes in prop::collection::vec(1usize..7, 1..5),
        position in 0usize..500,
        c in prop::sample::select(&['@', '"', '{', '}', ']', ',', 'x', '0', '\\', 'é'][..]),
        cut in 0usize..500,
        do_truncate in proptest::strategy::any::<bool>(),
    ) {
        let mut docs = docs;
        docs.push(nasty_json_doc());
        let base = json_corpus_text(&docs, &seps);
        let text = if do_truncate { truncate(&base, cut) } else { mutate(&base, position, c) };
        assert_streams_to(StreamFormat::Json, text.as_bytes(), &sizes, &oneshot(StreamFormat::Json, &text));
    }
}

/// Pretty-prints `v` over several lines with `indent` per level, as an
/// API dump or a hand-edited file would hold it.
fn pretty_json(v: &Value, indent: &str, newline: &str, level: usize) -> String {
    let pad = indent.repeat(level + 1);
    let end = indent.repeat(level);
    match v {
        Value::Record { fields, .. } => {
            let fields: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "{pad}{}: {}",
                        tfd_json::to_json_string(&tfd_json::Json::String(f.name.to_string())),
                        pretty_json(&f.value, indent, newline, level + 1)
                    )
                })
                .collect();
            format!(
                "{{{newline}{}{newline}{end}}}",
                fields.join(&format!(",{newline}"))
            )
        }
        Value::List(items) => {
            let items: Vec<String> = items
                .iter()
                .map(|i| format!("{pad}{}", pretty_json(i, indent, newline, level + 1)))
                .collect();
            format!(
                "[{newline}{}{newline}{end}]",
                items.join(&format!(",{newline}"))
            )
        }
        other => tfd_json::to_json_string(&tfd_json::Json::from_value(other)),
    }
}

/// The record lists of the adversarial JSON corpora for the
/// structural-block boundary walk: pretty-printed multi-line records;
/// strings holding brackets, `\"` and backslash runs that straddle
/// 64-byte blocks and window cuts; top-level scalars between
/// containers. Each corpus is the records joined by `seps` in turn.
fn adversarial_json_corpora() -> Vec<(Vec<String>, &'static [&'static str])> {
    let mut pretty = Vec::new();
    for i in 0..6 {
        let v = Value::record(
            tfd_value::BODY_NAME,
            [
                ("id", Value::Int(i)),
                (
                    "note",
                    Value::str(format!("{{[ ]}} \"q\" {}", "x".repeat(i as usize * 9))),
                ),
                (
                    "items",
                    Value::List(vec![
                        Value::record(tfd_value::BODY_NAME, [("k", Value::str("]}"))]),
                        Value::List(vec![Value::Int(1), Value::Float(2.5)]),
                    ]),
                ),
                (
                    "nested",
                    Value::record(tfd_value::BODY_NAME, [("deep", Value::Bool(i % 2 == 0))]),
                ),
            ],
        );
        let (indent, newline) = [("  ", "\n"), ("\t", "\r\n"), ("    ", "\n")][i as usize % 3];
        pretty.push(pretty_json(&v, indent, newline, 0));
    }
    let mut escapes = Vec::new();
    for run in [0usize, 1, 2, 3, 8, 9, 62, 63, 64, 65] {
        // A run of `run` backslashes before a quote: an odd run escapes
        // the quote, an even one closes the string on it.
        let slashes = "\\".repeat(run);
        let close = if run % 2 == 1 { "\"" } else { "" };
        let lead = "b".repeat(run * 7 % 61);
        escapes.push(format!(
            "{{\"s\": \"{lead}{slashes}\"{close}, \"t\": [\"{{\", \"\\\\\", \"]\\\"[\"], \"u\": \"}}\\\"{{\"}}"
        ));
    }
    let scalars = [
        "{\"a\": [1, {\"b\": \"]\"}]}",
        "17",
        "\"top ] \\\" { string\"",
        "true",
        "[\"x\\\\\", {}]",
        "null",
        "-0.5e+3",
        "{\"c\": {\"d\": [[], [\"}}\"]]}}",
        "0",
        "[]",
    ]
    .iter()
    .map(|r| r.to_string())
    .collect();
    vec![
        (pretty, &["\n", "\r\n", "\n\n  "][..]),
        (escapes, &["\n", " ", "\r\n"][..]),
        (scalars, &[" ", "\n", "\t"][..]),
    ]
}

/// Joins `records` with `seps` in turn.
fn join_records(records: &[String], seps: &[&str]) -> String {
    let mut text = String::new();
    for (i, r) in records.iter().enumerate() {
        text.push_str(r);
        text.push_str(seps[i % seps.len()]);
    }
    text
}

/// Every adversarial JSON corpus, at every chunk size 1..=130 and at
/// 64 KiB, at jobs 1/2/7, from memory and from a reader: fail-fast
/// folds like the one-shot parse, a corrupted record fails fail-fast
/// with the one-shot error, and Skip mode folds the one-shot parse of
/// the records around it.
#[test]
fn adversarial_json_boundaries_agree_with_oneshot_at_every_chunk_size() {
    for (records, seps) in adversarial_json_corpora() {
        let clean = join_records(&records, seps);
        // Corrupt a container record in the middle, keeping its
        // brackets and strings intact.
        let bad = (records.len() / 2..records.len())
            .find(|&k| records[k].starts_with(['{', '[']))
            .expect("a container record");
        let mut corrupted = records.clone();
        corrupted[bad].insert(1, '@');
        let dirty = join_records(&corrupted, seps);
        let mut kept = records.clone();
        kept.remove(bad);
        let want_clean = oneshot(StreamFormat::Json, &clean);
        assert!(want_clean.is_ok(), "{want_clean:?} on {clean}");
        let want_dirty = oneshot(StreamFormat::Json, &dirty);
        assert!(want_dirty.is_err(), "{dirty}");
        let want_skip = oneshot(StreamFormat::Json, &join_records(&kept, seps));
        let skip = RecoveryPolicy::skip();
        for chunk in (1..=130).chain([64 * 1024]) {
            for &jobs in JOBS {
                for reader in [false, true] {
                    // The outcome, and how many records were skipped.
                    let run = |text: &str, policy: RecoveryPolicy| {
                        let source = if reader {
                            Source::Reader(Box::new(std::io::Cursor::new(text.as_bytes().to_vec())))
                        } else {
                            Source::Bytes(text.as_bytes())
                        };
                        let interner = Interner::new();
                        match ingest(StreamFormat::Json, source, jobs, chunk, policy, &interner) {
                            Ok(r) => (
                                Ok((format!("{:?}", r.summary.shape), r.summary.records)),
                                r.report.total(),
                            ),
                            Err(e) => (Err(e), 0),
                        }
                    };
                    let at = format!("chunk {chunk} jobs {jobs} reader {reader}");
                    let got = run(&clean, RecoveryPolicy::default());
                    assert_eq!(got, (want_clean.clone(), 0), "clean, {at} on {clean}");
                    let got = run(&dirty, RecoveryPolicy::default());
                    assert_eq!(got, (want_dirty.clone(), 0), "fail-fast, {at} on {dirty}");
                    let got = run(&dirty, skip);
                    assert_eq!(got, (want_skip.clone(), 1), "skip, {at} on {dirty}");
                }
            }
        }
    }
}

// --- XML ---

const XML_NAMES: &[&str] = &["a", "item", "ns:tag", "čaj", "x-1"];
const XML_SEPS: &[&str] = &[" ", "\n", "", "<!-- gap -->", "<?pi data?>", "\r\n"];

fn xml_attrs() -> SFn<String> {
    prop::collection::vec("[a-z 0-9é]{0,4}", 0..3)
        .prop_map(|vals| {
            vals.into_iter()
                .enumerate()
                .map(|(i, v)| format!(" at{i}=\"{v}\""))
                .collect::<String>()
        })
        .boxed()
}

fn xml_content_piece() -> SFn<String> {
    prop_oneof![
        "[a-z 0-9éž]{0,6}",
        Just("&amp;".to_owned()),
        Just("&#x41;".to_owned()),
        Just("&quot;".to_owned()),
        Just("<![CDATA[ <raw> & ]]>".to_owned()),
        Just("<!-- note -->".to_owned()),
    ]
}

fn xml_doc_strategy() -> SFn<String> {
    let attrs = xml_attrs();
    let leaf_attrs = attrs.clone();
    let leaf = (
        prop::sample::select(XML_NAMES),
        leaf_attrs,
        xml_content_piece(),
    )
        .prop_map(|(n, a, t)| {
            if t.is_empty() {
                format!("<{n}{a}/>")
            } else {
                format!("<{n}{a}>{t}</{n}>")
            }
        });
    leaf.prop_recursive(3, 12, 3, move |inner| {
        let kids = prop::collection::vec(prop_oneof![xml_content_piece(), inner], 0..3);
        (prop::sample::select(XML_NAMES), attrs.clone(), kids)
            .prop_map(|(n, a, kids)| format!("<{n}{a}>{}</{n}>", kids.concat()))
    })
}

fn xml_corpus_text(prolog: bool, docs: &[String], seps: &[&str]) -> String {
    let mut text = String::new();
    if prolog {
        text.push_str(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE a [<!ELEMENT a ANY>]>\n",
        );
    }
    for (i, d) in docs.iter().enumerate() {
        text.push_str(d);
        text.push_str(seps.get(i % seps.len().max(1)).copied().unwrap_or(" "));
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Shapes and record counts agree with the `parse_many_values` fold
    /// under arbitrary read splits — including splits inside entities,
    /// CDATA/comment terminators and multi-byte tag names.
    #[test]
    fn xml_streaming_agrees_on_valid_corpora(
        prolog in proptest::strategy::any::<bool>(),
        docs in prop::collection::vec(xml_doc_strategy(), 0..4),
        seps in prop::collection::vec(prop::sample::select(XML_SEPS), 1..4),
        sizes in prop::collection::vec(1usize..9, 1..5),
    ) {
        let text = xml_corpus_text(prolog, &docs, &seps);
        let want = oneshot(StreamFormat::Xml, &text);
        prop_assert!(want.is_ok(), "generated corpus is valid");
        assert_streams_to(StreamFormat::Xml, text.as_bytes(), &sizes, &want);
        assert_streams_to(StreamFormat::Xml, text.as_bytes(), &[1], &want);
    }

    /// Mutated/truncated XML: identical outcomes — error kind, line and
    /// char-correct column — under arbitrary read splits.
    #[test]
    fn xml_error_agreement_under_mutation(
        docs in prop::collection::vec(xml_doc_strategy(), 1..3),
        seps in prop::collection::vec(prop::sample::select(XML_SEPS), 1..3),
        sizes in prop::collection::vec(1usize..7, 1..5),
        position in 0usize..500,
        c in prop::sample::select(&['<', '>', '&', ';', '@', '/', '"', 'é'][..]),
        cut in 0usize..500,
        do_truncate in proptest::strategy::any::<bool>(),
    ) {
        let base = xml_corpus_text(false, &docs, &seps);
        let text = if do_truncate { truncate(&base, cut) } else { mutate(&base, position, c) };
        assert_streams_to(StreamFormat::Xml, text.as_bytes(), &sizes, &oneshot(StreamFormat::Xml, &text));
    }
}

// --- CSV ---

fn csv_cell() -> SFn<String> {
    prop_oneof![
        "[a-z0-9]{0,4}",
        Just("#N/A".to_owned()),
        Just("42".to_owned()),
        Just("2.5".to_owned()),
        Just("2012-05-01".to_owned()),
        Just("1".to_owned()),
        // Quoted cells with embedded delimiters, quotes, line endings
        // and multi-byte characters.
        "[a-z,\"\n\réž ]{0,6}".prop_map(|c| format!("\"{}\"", c.replace('"', "\"\""))),
    ]
}

fn csv_corpus_text(rows: &[Vec<String>], endings: &[&str], final_ending: bool) -> String {
    let mut text = String::from("h1,h2,h3");
    text.push_str(endings.first().copied().unwrap_or("\n"));
    for (i, row) in rows.iter().enumerate() {
        text.push_str(&row.join(","));
        if i + 1 < rows.len() || final_ending {
            text.push_str(
                endings
                    .get(i % endings.len().max(1))
                    .copied()
                    .unwrap_or("\n"),
            );
        }
    }
    text
}

const CSV_ENDINGS: &[&str] = &["\n", "\r\n", "\r"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Row folds agree with the one-shot `parse_value` under arbitrary
    /// read splits — including splits inside `""` escapes, CRLF pairs,
    /// quoted fields and multi-byte cell characters — and the corpus
    /// wrap is the one-shot collection shape.
    #[test]
    fn csv_streaming_agrees_on_valid_corpora(
        rows in prop::collection::vec(prop::collection::vec(csv_cell(), 0..5), 0..5),
        endings in prop::collection::vec(prop::sample::select(CSV_ENDINGS), 1..4),
        final_ending in proptest::strategy::any::<bool>(),
        sizes in prop::collection::vec(1usize..9, 1..5),
    ) {
        let text = csv_corpus_text(&rows, &endings, final_ending);
        let want = oneshot(StreamFormat::Csv, &text);
        prop_assert!(want.is_ok(), "generated corpus is valid");
        assert_streams_to(StreamFormat::Csv, text.as_bytes(), &sizes, &want);
        assert_streams_to(StreamFormat::Csv, text.as_bytes(), &[1], &want);
        // list(record fold) == one-shot collection inference.
        let interner = Interner::new();
        let opts = InferOptions::csv();
        let got = ingest_pieces(
            StreamFormat::Csv, text.as_bytes(), &sizes, 2, RecoveryPolicy::default(), &interner,
        ).expect("valid corpus");
        prop_assert_eq!(
            Shape::list(got.summary.shape),
            infer_with(&tfd_csv::parse_value_in(&text, &Default::default(), &Default::default(), &interner).expect("valid"), &opts)
        );
    }

    /// Raw random CSV-ish text (stray quotes, ragged rows, bare CRs):
    /// identical outcomes — fold, or error kind and line — under
    /// arbitrary read splits.
    #[test]
    fn csv_error_agreement_over_random_text(
        text in "[a-c,\"\n\r ]{0,60}",
        sizes in prop::collection::vec(1usize..7, 1..5),
    ) {
        assert_streams_to(StreamFormat::Csv, text.as_bytes(), &sizes, &oneshot(StreamFormat::Csv, &text));
    }
}

// --- InferAccumulator: the incremental fold vs `infer_many`.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `σi = csh(σi−1, S(di))` pushed one record at a time equals
    /// `infer_many` on the same sequence, for all four presets.
    #[test]
    fn accumulator_fold_matches_infer_many(
        corpus in prop::collection::vec(value_strategy(), 0..8),
    ) {
        for opts in [
            InferOptions::formal(),
            InferOptions::json(),
            InferOptions::csv(),
            InferOptions::xml(),
        ] {
            prop_assert_eq!(
                fold_shape(&corpus, &opts),
                infer_many(&corpus, &opts),
                "preset {:?}", opts
            );
        }
    }

    /// Idempotence after globalization, at the fold level — now a true
    /// fixed point under the env-aware μ-shape API (the old finite-tree
    /// pass could not have this property on recursive corpora; see
    /// `tfd_core::global`): the `GlobalShape` generalizes the fold,
    /// self-joins are no-ops, and absorbing the corpus again — record by
    /// record, as `--stream --global` would — changes nothing.
    #[test]
    fn fold_is_stable_after_globalize(
        corpus in prop::collection::vec(value_strategy(), 0..6),
    ) {
        let opts = InferOptions::xml();
        let folded = fold_shape(&corpus, &opts);
        let g = tfd_core::globalize_env(folded.clone());
        prop_assert!(
            tfd_core::is_preferred_in(&folded, &g.root, Some(&g.env)),
            "globalize must generalize the fold: {} vs {}", folded, g
        );
        // Self-join of the root under the env is a no-op (csh(σ,σ) = σ):
        let mut env = g.env.clone();
        let rejoined = tfd_core::csh_in(g.root.clone(), g.root.clone(), &mut env);
        prop_assert_eq!(&rejoined, &g.root, "self-join must be a no-op");
        prop_assert_eq!(&env, &g.env, "self-join must not widen the env");
        // Absorbing the fold back is a no-op:
        let mut readded = g.clone();
        readded.absorb(folded.clone());
        prop_assert_eq!(&readded, &g, "re-absorbing the fold must be a no-op");
        // Re-streaming the corpus record by record after globalization
        // cannot change the answer (`σi = csh(σi−1, S(di))`, env-aware):
        let mut restreamed = g.clone();
        for d in &corpus {
            restreamed.absorb(infer_with(d, &opts));
        }
        prop_assert_eq!(&restreamed, &g, "re-streaming the corpus must be a no-op");
        // And the finite-tree rendering is idempotent too:
        let once = globalize(folded);
        let twice = globalize(once.clone());
        prop_assert_eq!(&twice, &once, "globalize must be idempotent");
    }
}

// --- Named cases: each runs over every rotation of the cycling piece
// --- sizes {1, 2, 3, 7, 64, 4096} at jobs 1/2/7.

/// Any split of a record stream — documents, adjacent self-delimiting
/// values, whitespace-only and empty input — folds like the one-shot
/// parse.
#[test]
fn documents_stream_with_any_split() {
    for text in [
        r#"{"a": 1} {"a": 2, "b": [1, 2.5, null]}"#,
        "1 2 3",
        "[1][2][3]",
        "\"x\"\"y\"",
        "true false null",
        "  \n\t ",
        "",
        "{\"nested\": {\"deep\": [[[1]]]}}\n-2.5e-1",
    ] {
        assert_sweep_agrees(StreamFormat::Json, text);
    }
    for text in [
        r#"<root id="1"><item>Hello!</item></root>"#,
        "<a/><b/><c x=\"1\"/>",
        "<?xml version=\"1.0\"?>\n<!DOCTYPE d [<!ELEMENT d ANY>]>\n<d/>",
        "<!-- lead --><a/><!-- mid --><b/><!-- trail -->",
        "<a><![CDATA[x]y]]z]]></a>",
        "<a x=\"&lt;&amp;&quot;\">&gt;&apos;</a>",
        "<!-- only a comment -->",
        "   \n ",
    ] {
        assert_sweep_agrees(StreamFormat::Xml, text);
    }
    for text in [
        "a,b\n1,2\n3,4\n",
        "a\r1\r2",
        "a,b\n1\n2,y,z\n",
        "a\n\n1",
        "a,b\n1,",
        "Ozone, Temp\n41, 67\n17.5, #N/A\n",
        "a\n",
        "a",
    ] {
        assert_sweep_agrees(StreamFormat::Csv, text);
    }
}

/// Splits mid-escape, mid-UTF-8 sequence, mid-CRLF and inside CSV `""`
/// escapes never change a record.
#[test]
fn splits_mid_escape_mid_utf8_mid_crlf_and_inside_quotes() {
    assert_sweep_agrees(StreamFormat::Json, r#""a\nbA\\" "čaj 😀""#);
    assert_sweep_agrees(
        StreamFormat::Json,
        r#"{"kĺíč": "hodnota", "日本": "語", "u": "é"}"#,
    );
    assert_sweep_agrees(StreamFormat::Xml, "<čaj típ=\"zelený\">42</čaj>\r\n<čaj/>");
    for text in [
        "a\n\"he said \"\"hi\"\"\"\n",
        "a\n\"x\"\r\n2\n",
        "a\n\"x\r\ny\"\r\n",
        "h1,h2\nab\"c,d\"e\n",
        "a\n\"x\ry\"\n",
        "a\n\"\"\n",
        "sloupec,météo\r\nžluťoučký,🌧\r\n",
    ] {
        assert_sweep_agrees(StreamFormat::Csv, text);
    }
}

/// Numbers and keywords end exactly where the one-shot grammar ends
/// them, even without separating whitespace.
#[test]
fn adjacent_tokens_split_like_oneshot() {
    for text in ["12-3", "1e3[2]", "0 1", "true\"s\"", "null{}"] {
        assert_sweep_agrees(StreamFormat::Json, text);
    }
}

/// Malformed records report the one-shot error kind and position.
#[test]
fn errors_agree_with_oneshot() {
    for bad in [
        "[1, 2",
        "{\"a\": 1",
        "\"unterminated",
        "[1,]",
        "{,}",
        "01",
        "012",
        "1.",
        "1.x",
        "1e+",
        "-",
        "tru",
        "truex",
        "@",
        "]",
        "{\n  \"a\": @\n}",
        "{ \"čaj\": @ }",
        "\"a\nb\"",
        "[1, \"x\\q\"]",
        "1 2 x",
        "{\"ok\":1} [2,]",
        "1.5.2",
    ] {
        assert_sweep_agrees(StreamFormat::Json, bad);
    }
    for bad in [
        "<a><b></a></b>",
        "<a><b>",
        "<a>&nope;</a>",
        "<a>\n<žluť x=@>\n</a>",
        "junk <a/>",
        "<a/>junk",
        "<a>&ééééééé;</a>",
        "<a>&aaaaaaaaaaaaaaaa;</a>",
        "<!-- unterminated",
        "<a>\r\n<b>\r\n<bad @></a>",
        "<a>\r<b>\r<bad @></a>",
    ] {
        assert_sweep_agrees(StreamFormat::Xml, bad);
    }
    for bad in [
        "",
        "a\n\"oops",
        "a\n\"x\"y",
        "h\n\"a\rb\"x",
        "h\n\"a\r\nb\"x",
        "h\n\"a\rb\",ok\n\"oops",
    ] {
        assert_sweep_agrees(StreamFormat::Csv, bad);
    }
}

/// Error positions in the Nth record translate exactly: line numbers
/// continue across records, columns restart per line.
#[test]
fn error_positions_translate_across_records_all_formats() {
    let json = "{\"a\":1}\n{\"b\":2} {\"c\": @}";
    assert_sweep_agrees(StreamFormat::Json, json);
    match oneshot(StreamFormat::Json, json) {
        Err(StreamError::Json(e)) => assert_eq!((e.pos.line, e.pos.column), (2, 15)),
        other => panic!("expected a JSON error, got {other:?}"),
    }
    let xml = "<ok/>\n<ok/>\n<bad @></bad>";
    assert_sweep_agrees(StreamFormat::Xml, xml);
    match oneshot(StreamFormat::Xml, xml) {
        Err(StreamError::Xml(e)) => assert_eq!((e.line, e.column), (3, 6)),
        other => panic!("expected an XML error, got {other:?}"),
    }
    let csv = "h\nok\n\"a\rb\"x";
    assert_sweep_agrees(StreamFormat::Csv, csv);
    assert_eq!(
        oneshot(StreamFormat::Csv, csv),
        Err(StreamError::Csv(tfd_csv::CsvError::CharAfterQuote(4, 'x')))
    );
    // Column counts characters, not bytes.
    match oneshot(StreamFormat::Json, "{ \"čaj\": @ }") {
        Err(StreamError::Json(e)) => assert_eq!(e.pos.column, 10),
        other => panic!("expected a JSON error, got {other:?}"),
    }
}

/// A leading UTF-8 byte-order mark is skipped by every front-end, at
/// stream offset 0 only: the pipeline over readers (1-byte pieces
/// included) and over in-memory bytes agrees with the one-shot parsers
/// on shapes and on error positions, and a mark anywhere else is data.
#[test]
fn a_leading_byte_order_mark_is_skipped_like_oneshot() {
    use StreamFormat::{Csv, Json, Xml};
    let cases = [
        (Json, "\u{feff}{\"a\": 1}\n{\"a\": 2.5}"),
        (Json, "\u{feff}{\"a\": @}"),
        (Json, "\u{feff}\u{feff}{\"a\": 1}"),
        (Json, "{\"a\": 1}\u{feff}{\"a\": 2}"),
        (Json, "\u{feff}"),
        (Xml, "\u{feff}<r a=\"1\"/>\n<r a=\"2.5\"/>"),
        (Xml, "\u{feff}<?xml version=\"1.0\"?>\n<r><bad @/></r>"),
        (Xml, "<r/>\u{feff}<r/>"),
        (Csv, "\u{feff}a,b\n1,2\n"),
        (Csv, "\u{feff}a,b\n\"x\"y,2\n"),
        (Csv, "\u{feff}a\n"),
        (Csv, "\u{feff}"),
    ];
    for (format, text) in cases {
        assert_sweep_agrees(format, text);
        let want = oneshot(format, text);
        for jobs in [1, 2] {
            for chunk in [1, 3, 4096] {
                let got = ingest_bytes(format, text.as_bytes(), jobs, chunk, &Interner::new())
                    .map(|r| (format!("{:?}", r.summary.shape), r.summary.records));
                assert_eq!(
                    got, want,
                    "{format:?} bytes jobs {jobs} chunk {chunk}: {text:?}"
                );
            }
        }
    }
    // The mark names no column, and takes no column in a position
    // (offsets still count its three bytes).
    match oneshot(Csv, "\u{feff}a,b\n1,2\n") {
        Ok((shape, 1)) => assert!(!shape.contains('\u{feff}'), "{shape}"),
        other => panic!("expected one row, got {other:?}"),
    }
    match oneshot(Json, "\u{feff}{\"a\": @}") {
        Err(StreamError::Json(e)) => {
            assert_eq!((e.pos.offset, e.pos.line, e.pos.column), (9, 1, 7));
        }
        other => panic!("expected a JSON error, got {other:?}"),
    }
    match oneshot(Xml, "\u{feff}<r><bad @/></r>") {
        Err(StreamError::Xml(e)) => assert_eq!((e.line, e.column), (1, 9)),
        other => panic!("expected an XML error, got {other:?}"),
    }
}

/// Runs `text` over every rotation at jobs 1/2/7 under `policy` and
/// returns the one outcome they all agree on.
fn swept(format: StreamFormat, text: &[u8], policy: RecoveryPolicy) -> Outcome {
    let first = streamed(format, text, &[1], 1, policy);
    for sizes in piece_rotations() {
        for &jobs in JOBS {
            let got = streamed(format, text, &sizes, jobs, policy);
            assert_eq!(got, first, "{format:?} pieces {sizes:?} jobs {jobs}");
        }
    }
    first
}

/// The depth limit applies per record: a shallow record passes, a deep
/// one fails with `TooDeep` at any split.
#[test]
fn depth_limit_applies_per_record() {
    let policy = RecoveryPolicy {
        max_depth: Some(4),
        ..RecoveryPolicy::default()
    };
    assert!(swept(StreamFormat::Json, b"[[[1]]] [[[1]]]", policy).is_ok());
    match swept(StreamFormat::Json, b"[[[1]]] [[[[[1]]]]]", policy) {
        Err(StreamError::Json(e)) => {
            assert_eq!(e.kind, tfd_json::ParseErrorKind::TooDeep(4));
            assert!(e.pos.offset >= 8, "the error sits in the second record");
        }
        other => panic!("expected TooDeep, got {other:?}"),
    }
    match swept(
        StreamFormat::Xml,
        b"<a><a/></a>\n<a><a><a><a><a/></a></a></a></a>",
        policy,
    ) {
        Err(StreamError::Xml(e)) => {
            assert_eq!(e.kind, tfd_xml::XmlErrorKind::TooDeep(4));
            assert_eq!(e.line, 2);
        }
        other => panic!("expected TooDeep, got {other:?}"),
    }
}

/// A record holding an invalid UTF-8 byte reports it at that byte's
/// stream-global position, whatever record it sits in.
#[test]
fn invalid_utf8_is_reported_at_the_byte() {
    let policy = RecoveryPolicy::default();
    match swept(
        StreamFormat::Json,
        b"{\"a\": 1}\n{\"a\": \"\xFF\xFE\"}",
        policy,
    ) {
        Err(StreamError::Json(e)) => {
            assert_eq!(e.kind, tfd_json::ParseErrorKind::InvalidUtf8);
            assert_eq!((e.pos.offset, e.pos.line, e.pos.column), (16, 2, 8));
        }
        other => panic!("expected InvalidUtf8, got {other:?}"),
    }
    match swept(StreamFormat::Xml, b"<a>\xFF</a>", policy) {
        Err(StreamError::Xml(e)) => {
            assert_eq!(e.kind, tfd_xml::XmlErrorKind::InvalidUtf8);
            assert_eq!((e.line, e.column), (1, 4));
        }
        other => panic!("expected InvalidUtf8, got {other:?}"),
    }
    assert_eq!(
        swept(StreamFormat::Csv, b"a\nok\n\xFF\n", policy),
        Err(StreamError::Csv(tfd_csv::CsvError::InvalidUtf8(3)))
    );
    // An earlier record's parse error still wins.
    match swept(StreamFormat::Json, b"[1,]\n\"\xFF\"", policy) {
        Err(StreamError::Json(e)) => assert_ne!(e.kind, tfd_json::ParseErrorKind::InvalidUtf8),
        other => panic!("expected the earlier parse error, got {other:?}"),
    }
}

/// An unclosed record fed one byte at a time trips the record cap at
/// the record's start instead of buffering the stream.
#[test]
fn unclosed_record_trips_the_size_cap_at_one_byte_pieces() {
    let policy = RecoveryPolicy {
        max_record_bytes: 64,
        ..RecoveryPolicy::default()
    };
    let open = |head: &str| {
        let mut text = head.to_owned();
        text.push_str(&"x".repeat(1000));
        text
    };
    let json = open("{\"ok\": 1} \"never closes ");
    match swept(StreamFormat::Json, json.as_bytes(), policy) {
        Err(StreamError::Json(e)) => {
            assert_eq!(e.kind, tfd_json::ParseErrorKind::RecordTooLarge(64));
            assert_eq!(e.pos.offset, 10, "the error sits at the record's start");
        }
        other => panic!("expected RecordTooLarge, got {other:?}"),
    }
    let xml = open("<ok/>\n<open><v>");
    match swept(StreamFormat::Xml, xml.as_bytes(), policy) {
        Err(StreamError::Xml(e)) => {
            assert_eq!(e.kind, tfd_xml::XmlErrorKind::RecordTooLarge(64));
            assert_eq!((e.line, e.column), (2, 1));
        }
        other => panic!("expected RecordTooLarge, got {other:?}"),
    }
    let csv = open("a,b\n1,\"never closes ");
    assert_eq!(
        swept(StreamFormat::Csv, csv.as_bytes(), policy),
        Err(StreamError::Csv(tfd_csv::CsvError::RecordTooLarge(64, 2)))
    );
}

/// The XML entity-length limit counts *bytes* but must only fire at
/// character boundaries; under 1-byte pieces the scanner replicates that
/// exactly (never a slice panic, never a different error).
#[test]
fn regression_xml_entity_limit_under_single_byte_feeds() {
    for doc in [
        "<a>&ééééééé;</a>",
        "<a>&aaaaaaaaaaaaaaaaaaaa;</a>",
        "<a x=\"&ééééééé;\"/>",
        "<a>&日本語キーです;</a>",
        "<a>&#x1F600;&#x1F600;</a>", // long but legal char refs
    ] {
        assert_sweep_agrees(StreamFormat::Xml, doc);
    }
}

// --- Large-corpus smoke (release-only: ~50 MB of CSV through the
// --- reader with a small chunk size — the bounded-memory pipeline).

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "large-corpus smoke runs in release mode (CI)"
)]
fn large_corpus_csv_streams_with_small_chunks() {
    let mut text = String::with_capacity(51 << 20);
    text.push_str("id,name,score,date,flag\n");
    let mut rows = 0u64;
    while text.len() < 50 << 20 {
        let _ = writeln!(
            text,
            "{rows},item-{rows},{}.5,2012-05-01,{}",
            rows % 977,
            rows % 2
        );
        rows += 1;
    }
    let interner = Interner::new();
    let summary = common::ingest(
        StreamFormat::Csv,
        tfd_core::engine::Source::Reader(Box::new(text.as_bytes())),
        1,
        4096,
        RecoveryPolicy::default(),
        &interner,
    )
    .unwrap()
    .summary;
    assert_eq!(summary.records as u64, rows);
    assert_eq!(summary.bytes as usize, text.len());
    let expected = Shape::record(
        tfd_value::BODY_NAME,
        [
            ("id", Shape::Int),
            ("name", Shape::String),
            ("score", Shape::Float),
            ("date", Shape::Date),
            ("flag", Shape::Bit),
        ],
    );
    assert_eq!(summary.shape, expected);
}
