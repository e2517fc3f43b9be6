//! Parsing straight into σ: the fold that walks σ alongside the JSON
//! parser's events agrees with the fold over built values.
//!
//! A JSON record σ already covers is never built: the parser sends its
//! events into the accumulator's σ walk, and only a record the walk
//! declines is parsed again into a `Value` and pushed. This suite checks
//! that this changes nothing observable — the printed shape, the record
//! count, the corpus arena's symbols and retained bytes, and for
//! malformed input the error's kind, offset, line and column:
//!
//! * over JSON rendered from `value_strategy()` documents, each followed
//!   by documents conforming to the running shape (so most of them are
//!   walked), and over the messy `CorpusConfig` corpora, under all four
//!   inference presets and through the ingest pipeline at jobs 1/2/7
//!   with bundles down to one byte;
//! * on hand-written edge cases: escaped keys, repeated keys, numbers at
//!   the edges of `i64`, stringly numbers, depth overflows, bad escapes
//!   and records that depart from σ on their last key.

mod common;

use common::{conforming, value_strategy};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tfd_core::engine::{run, DataFormat, IngestConfig, JsonFormat, Source};
use tfd_core::stream::StreamError;
use tfd_core::{csh, InferAccumulator, InferOptions, Shape, StreamFormat};
use tfd_json::{Json, ParseError, ParserOptions};
use tfd_value::corpus::{generate_corpus, CorpusConfig, Rng};
use tfd_value::visit::RecordFold;
use tfd_value::{InternStats, Interner, Value};

fn presets() -> [InferOptions; 4] {
    [
        InferOptions::formal(),
        InferOptions::json(),
        InferOptions::csv(),
        InferOptions::xml(),
    ]
}

/// What a fold leaves behind: the rendered shape, the records folded,
/// the corpus arena's figures, and the error with the offset parsing got
/// to.
type Outcome = (String, usize, InternStats, Option<(usize, ParseError)>);

/// An accumulator that counts the records it had built and pushed.
struct Counting {
    acc: InferAccumulator,
    built: usize,
}

impl RecordFold for Counting {
    type Walk<'w> = <InferAccumulator as RecordFold>::Walk<'w>;

    fn walk(&mut self) -> Option<Self::Walk<'_>> {
        self.acc.walk()
    }

    fn push(&mut self, record: Value) {
        self.built += 1;
        self.acc.push(&record);
    }
}

/// The reference: every document built into a `Value`, then pushed.
fn value_fold(text: &str, options: &InferOptions, parser: &ParserOptions) -> Outcome {
    let interner = Interner::new();
    let mut docs = Vec::new();
    let err = tfd_json::parse_many_values_each(text, parser, &interner, &mut docs).err();
    let mut acc = InferAccumulator::new(options.clone());
    docs.iter().for_each(|d| acc.push(d));
    (
        format!("{:?}", acc.shape()),
        acc.records(),
        interner.stats(),
        err,
    )
}

/// The accumulator as the parser's fold, walking what it can. Returns
/// the outcome and how many records were built.
fn walk_fold(text: &str, options: &InferOptions, parser: &ParserOptions) -> (Outcome, usize) {
    let interner = Interner::new();
    let mut fold = Counting {
        acc: InferAccumulator::new(options.clone()),
        built: 0,
    };
    let err = tfd_json::parse_many_values_each(text, parser, &interner, &mut fold).err();
    let acc = &fold.acc;
    let outcome = (
        format!("{:?}", acc.shape()),
        acc.records(),
        interner.stats(),
        err,
    );
    (outcome, fold.built)
}

/// The ingest pipeline's outcome at `jobs` and bundle size `chunk`.
fn engine_fold(
    text: &str,
    options: &InferOptions,
    jobs: usize,
    chunk: usize,
) -> Result<(String, usize, InternStats), StreamError> {
    let interner = Interner::new();
    let config = IngestConfig {
        jobs,
        chunk_size: chunk,
        options: options.clone(),
        ..IngestConfig::new(StreamFormat::Json)
    };
    let out = run(Source::Bytes(text.as_bytes()), &config, &interner)?;
    Ok((
        format!("{:?}", out.summary.shape),
        out.summary.records,
        interner.stats(),
    ))
}

/// The (jobs, bundle size) pairs every corpus runs through.
const RUNS: &[(usize, usize)] = &[(1, 1), (2, 1), (7, 3), (1, 64), (2, 7), (7, 1 << 16)];

/// The bundles the pipeline cuts `text` into at bundle size `chunk`:
/// each window of `chunk` bytes runs through the boundary scanner, and
/// the stretch up to the last boundary it reported is a bundle.
fn bundles(text: &str, chunk: usize) -> Vec<&str> {
    let mut scanner = JsonFormat::boundaries();
    let (mut out, mut open) = (Vec::new(), 0);
    for (k, window) in text.as_bytes().chunks(chunk).enumerate() {
        let mut last = None;
        JsonFormat::scan(&mut scanner, window, &mut |off| {
            last = Some(k * chunk + off)
        });
        if let Some(last) = last.filter(|&l| l > open) {
            out.push(&text[open..last]);
            open = last;
        }
    }
    if open < text.len() {
        out.push(&text[open..]);
    }
    out
}

/// The value fold of each of `text`'s bundles at `chunk`, joined in
/// document order as the pipeline joins its bundles.
fn bundled_value_fold(
    text: &str,
    options: &InferOptions,
    chunk: usize,
) -> (String, usize, InternStats) {
    let interner = Interner::new();
    let (mut shape, mut records) = (Shape::Bottom, 0);
    for bundle in bundles(text, chunk) {
        let mut docs = Vec::new();
        tfd_json::parse_many_values_each(bundle, &ParserOptions::default(), &interner, &mut docs)
            .expect("the corpus parses");
        let mut acc = InferAccumulator::new(options.clone());
        docs.iter().for_each(|d| acc.push(d));
        records += acc.records();
        shape = csh(shape, acc.finish());
    }
    (format!("{shape:?}"), records, interner.stats())
}

/// Asserts the walking folds — direct and through the pipeline at every
/// (jobs, bundle size) pair — agree with the value fold on `text`.
/// Returns how many records the direct walk did not build.
fn check_agrees(text: &str, options: &InferOptions) -> Result<usize, TestCaseError> {
    let parser = ParserOptions::default();
    let want = value_fold(text, options, &parser);
    let (got, built) = walk_fold(text, options, &parser);
    prop_assert_eq!(&got, &want, "{:?} direct on {}", options, text);
    for &(jobs, chunk) in RUNS {
        let want_engine = match &want.3 {
            None => Ok(bundled_value_fold(text, options, chunk)),
            Some((_, e)) => Err(StreamError::Json(e.clone())),
        };
        prop_assert_eq!(
            engine_fold(text, options, jobs, chunk),
            want_engine,
            "{:?} at jobs {} chunk {} on {}",
            options,
            jobs,
            chunk,
            text
        );
    }
    Ok(want.1 - built.min(want.1))
}

/// JSON lines for `docs`, one document per line.
fn json_lines(docs: &[Value]) -> String {
    docs.iter()
        .map(|d| tfd_json::to_json_string(&Json::from_value(d)) + "\n")
        .collect()
}

/// `samples`, each followed by `probes` documents conforming to the
/// shape folded so far (the ones σ covers, which the parser walks).
fn with_conforming(
    samples: &[Value],
    options: &InferOptions,
    probes: usize,
    rng: &mut Rng,
) -> Vec<Value> {
    let mut acc = InferAccumulator::new(options.clone());
    let mut docs = Vec::new();
    for d in samples {
        // Render and re-parse, so the shape is the one the JSON text has.
        let d = tfd_json::parse_value(&tfd_json::to_json_string(&Json::from_value(d)))
            .expect("rendered JSON parses");
        acc.push(&d);
        docs.push(d);
        docs.extend((0..probes).map(|_| conforming(acc.shape(), rng)));
    }
    docs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn walk_fold_is_the_value_fold(
        samples in prop::collection::vec(value_strategy(), 1..8),
        seed in any::<u64>(),
    ) {
        let mut rng = Rng::new(seed);
        for options in presets() {
            let docs = with_conforming(&samples, &options, 3, &mut rng);
            check_agrees(&json_lines(&docs), &options)?;
        }
    }
}

#[test]
fn walk_fold_is_the_value_fold_on_messy_corpora() {
    // The §2.3 mess: missing fields, nulls, mixed number encodings and
    // stringly numbers, over corpora sharing one schema.
    let messy = CorpusConfig {
        max_depth: 3,
        missing_field_prob: 0.2,
        null_prob: 0.1,
        float_prob: 0.3,
        stringly_number_prob: 0.1,
        ..CorpusConfig::default()
    };
    let mut walked = 0;
    for seed in 0..24 {
        let corpus = generate_corpus(seed, 24, &messy);
        let mut rng = Rng::new(seed);
        for options in presets() {
            let text = json_lines(&corpus);
            walked +=
                check_agrees(&text, &options).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            let docs = with_conforming(&corpus[..6], &options, 4, &mut rng);
            walked += check_agrees(&json_lines(&docs), &options)
                .unwrap_or_else(|e| panic!("seed {seed} conforming: {e:?}"));
        }
    }
    // The property must not hold vacuously.
    assert!(walked > 300, "only {walked} records were walked");
}

// --- Edge cases: each corpus sets σ with its first two records (the
// --- second is covered, so the walk starts at the third). ---

/// Asserts the direct walk agrees with the value fold on `text`, and
/// returns how many records it built.
fn agrees(text: &str, options: &InferOptions, parser: &ParserOptions) -> usize {
    let want = value_fold(text, options, parser);
    let (got, built) = walk_fold(text, options, parser);
    assert_eq!(got, want, "{options:?} on {text}");
    built
}

fn json_agrees(text: &str) -> usize {
    let built = agrees(text, &InferOptions::json(), &ParserOptions::default());
    for options in presets() {
        agrees(text, &options, &ParserOptions::default());
        check_agrees(text, &options).unwrap_or_else(|e| panic!("{e:?}"));
    }
    built
}

#[test]
fn an_escaped_key_spelling_a_sigma_field_is_walked() {
    let text = "{\"a\":1,\"b\":\"x\"}\n{\"a\":2,\"b\":\"y\"}\n{\"\\u0061\":3,\"b\":\"z\"}\n{\"a\":4,\"\\u0062\":\"w\"}\n";
    assert_eq!(
        json_agrees(text),
        2,
        "the escaped keys are matched, not built"
    );
}

#[test]
fn a_repeated_key_departs_and_turns_the_walk_off() {
    let text = "{\"a\":1,\"b\":2}\n{\"a\":1,\"b\":2}\n{\"a\":1,\"b\":2,\"a\":3}\n{\"a\":1,\"b\":2}\n{\"a\":1,\"b\":2}\n";
    // Every record after the repeat is built: the fold's fast path stays
    // off once a record repeats a field.
    assert_eq!(json_agrees(text), 5);
    let text = "{\"a\":1,\"b\":2}\n{\"a\":1,\"b\":2}\n{\"b\":2,\"a\":1,\"b\":3}\n";
    assert_eq!(json_agrees(text), 3);
}

#[test]
fn numbers_at_the_edges_of_i64() {
    for n in [
        "9223372036854775807",
        "-9223372036854775808",
        "9223372036854775808",
        "-9223372036854775809",
        "123456789012345678",
        "1234567890123456789012",
        "-0",
        "0",
        "1",
        "1e400",
        "-1e400",
        "1.5e-400",
        "2.0",
    ] {
        let text = format!("{{\"n\":7}}\n{{\"n\":8}}\n{{\"n\":{n}}}\n{{\"n\":9}}\n");
        json_agrees(&text);
        let text = format!("{{\"n\":7.5}}\n{{\"n\":8.5}}\n{{\"n\":{n}}}\n{{\"n\":9}}\n");
        json_agrees(&text);
    }
    // Under the formal preset an out-of-range integer is a float, which
    // an int column does not cover.
    let text = "{\"n\":7}\n{\"n\":8}\n{\"n\":9223372036854775808}\n";
    let built = agrees(text, &InferOptions::formal(), &ParserOptions::default());
    assert_eq!(built, 3);
}

#[test]
fn stringly_numbers_under_the_json_preset() {
    for s in [
        "\"42\"",
        "\" 7 \"",
        "\"\\u0034\\u0032\"",
        "\"4.5\"",
        "\"true\"",
        "\"x\"",
    ] {
        for first in ["1", "1.5", "\"s\"", "true"] {
            let text =
                format!("{{\"v\":{first}}}\n{{\"v\":{first}}}\n{{\"v\":{s}}}\n{{\"v\":{first}}}\n");
            json_agrees(&text);
        }
    }
    // A stringly integer is an int: a float column covers it unbuilt.
    let text =
        "{\"v\":1.5}\n{\"v\":2.5}\n{\"v\":\"42\"}\n{\"v\":\" 7 \"}\n{\"v\":\"\\u0034\\u0032\"}\n";
    assert_eq!(json_agrees(text), 2);
}

#[test]
fn a_depth_overflow_inside_a_covered_record() {
    let parser = ParserOptions { max_depth: 3 };
    let ok = "{\"a\":{\"b\":[1]}}";
    let deep = "{\"a\":{\"b\":[[1]]}}";
    let text = format!("{ok}\n{ok}\n{ok}\n{deep}\n{ok}\n");
    for options in presets() {
        let want = value_fold(&text, &options, &parser);
        assert!(matches!(
            want.3,
            Some((
                _,
                ParseError {
                    kind: tfd_json::ParseErrorKind::TooDeep(3),
                    ..
                }
            ))
        ));
        assert_eq!(walk_fold(&text, &options, &parser).0, want, "{options:?}");
    }
}

#[test]
fn a_lone_surrogate_inside_a_covered_record() {
    for bad in [
        "\"\\uD800\"",
        "\"\\uDC00x\"",
        "\"\\uD83D\\u0041\"",
        "\"a\\q\"",
    ] {
        let text = format!("{{\"s\":\"a\",\"t\":1}}\n{{\"s\":\"b\",\"t\":2}}\n{{\"s\":\"c\",\"t\":3}}\n{{\"s\":{bad},\"t\":4}}\n");
        for options in presets() {
            let want = value_fold(&text, &options, &ParserOptions::default());
            assert!(want.3.is_some(), "{bad} is malformed");
            assert_eq!(
                walk_fold(&text, &options, &ParserOptions::default()).0,
                want,
                "{bad} {options:?}"
            );
        }
        // And as a key.
        let text = format!("{{\"s\":1}}\n{{\"s\":2}}\n{{{bad}:3}}\n");
        let want = value_fold(&text, &InferOptions::json(), &ParserOptions::default());
        assert!(want.3.is_some());
        assert_eq!(
            walk_fold(&text, &InferOptions::json(), &ParserOptions::default()).0,
            want
        );
    }
}

#[test]
fn a_record_departing_on_its_last_key() {
    // A new last field, a wider last value, and a required last field
    // missing: each departs at its end, is parsed again and built, and
    // the record after it is built too.
    for last in [
        "{\"a\":1,\"b\":\"x\",\"c\":true}",
        "{\"a\":1,\"b\":\"x\",\"z\":null}",
        "{\"a\":1,\"b\":2.5}",
        "{\"a\":1,\"b\":null}",
        "{\"a\":1}",
        "{\"a\":1,\"b\":[\"x\"]}",
    ] {
        let text = format!("{{\"a\":1,\"b\":\"x\"}}\n{{\"a\":2,\"b\":\"y\"}}\n{last}\n{{\"a\":3,\"b\":\"z\"}}\n{{\"a\":4,\"b\":\"w\"}}\n");
        let built = json_agrees(&text);
        assert_eq!(built, 4, "{last}");
    }
}

#[test]
fn errors_after_a_departure_keep_their_positions() {
    // The re-parse of a departing record must not move the parser's line
    // bookkeeping: the error two lines later is where it was.
    let text = "{\"a\":1}\n{\"a\":2}\n{\"a\":\n \"x\"}\n{\"a\":3}\n{\"a\": @}\n";
    for options in presets() {
        let want = value_fold(text, &options, &ParserOptions::default());
        let err = &want.3.as_ref().expect("malformed").1;
        assert_eq!((err.pos.line, err.pos.column), (6, 7));
        assert_eq!(walk_fold(text, &options, &ParserOptions::default()).0, want);
    }
}
