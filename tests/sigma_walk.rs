//! Parsing straight into σ: the fold that walks σ alongside a parser's
//! events agrees with the fold over built values, for every front-end.
//!
//! A record σ already covers is never built: the JSON, XML and CSV
//! parsers send its events into the accumulator's σ walk, and only a
//! record the walk declines is built and pushed (JSON and XML parse it
//! again; CSV builds it from the cells it already split). This suite
//! checks that this changes nothing observable — the printed shape, the
//! record count, the corpus arena's symbols and retained bytes, and for
//! malformed input the error's kind, offset, line and column:
//!
//! * over JSON rendered from `value_strategy()` documents, each followed
//!   by documents conforming to the running shape (so most of them are
//!   walked), over the messy `CorpusConfig` corpora, and over XML and
//!   CSV corpora shaped like the `files-dirty` benchmark inputs (some
//!   with a corrupted record), under all four inference presets and
//!   through the ingest pipeline at jobs 1/2/7 with bundles down to one
//!   byte;
//! * on hand-written edge cases: escaped keys, repeated keys, numbers at
//!   the edges of `i64`, stringly numbers, depth overflows, bad escapes
//!   and records that depart from σ on their last key; XML mixed
//!   content, empty elements, `#N/A` attributes, entity and CDATA text
//!   and departures on the last child; CSV short and long rows, quoted
//!   cells, a bit column that widens and a date column that turns to
//!   strings.

mod common;

use common::{conforming, value_strategy};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tfd_core::engine::{
    run, CsvFormat, DataFormat, IngestConfig, JsonFormat, Source, TextPos, XmlFormat,
};
use tfd_core::stream::StreamError;
use tfd_core::{csh, InferAccumulator, InferOptions, RecoveryPolicy, Shape, StreamFormat};
use tfd_json::{Json, ParseError};
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

/// A front-end as this suite drives it: the pipeline's witness, whose
/// errors compare, and the stream format that selects it.
trait Front: DataFormat<Error: PartialEq> {
    const STREAM: StreamFormat;
}

impl Front for JsonFormat {
    const STREAM: StreamFormat = StreamFormat::Json;
}

impl Front for XmlFormat {
    const STREAM: StreamFormat = StreamFormat::Xml;
}

impl Front for CsvFormat {
    const STREAM: StreamFormat = StreamFormat::Csv;
}

/// What a fold leaves behind: the rendered shape, the records folded,
/// the corpus arena's figures, and the error with the offset parsing got
/// to.
type Outcome<E> = (String, usize, InternStats, Option<(usize, E)>);

/// An accumulator that counts the records it had built and pushed.
struct Counting {
    acc: InferAccumulator,
    built: usize,
}

impl Counting {
    fn new(options: &InferOptions) -> Counting {
        Counting {
            acc: InferAccumulator::new(options.clone()),
            built: 0,
        }
    }
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

/// How many bytes of `text` the format's prologue takes (the CSV header
/// row), and the context it seeds every bundle with, interned into
/// `interner` — as the pipeline reads the prologue from the first
/// record.
fn prologue<F: Front>(text: &str, interner: &Interner) -> (usize, F::Context) {
    let mut first = None;
    F::scan(&mut F::boundaries(), text.as_bytes(), &mut |off| {
        first.get_or_insert(off);
    });
    F::prologue(&text.as_bytes()[..first.unwrap_or(text.len())], interner)
        .expect("the prologue parses")
}

/// Folds `text`, past its prologue, into `fold` with the format's bundle
/// parser.
fn fold_into<F: Front>(
    text: &str,
    max_depth: Option<usize>,
    interner: &Interner,
    fold: &mut impl RecordFold,
) -> Option<(usize, F::Error)> {
    let (skip, ctx) = prologue::<F>(text, interner);
    F::parse_bundle(&text[skip..], &ctx, max_depth, interner, fold).err()
}

/// The reference: every record built into a `Value`, then pushed.
fn value_fold<F: Front>(
    text: &str,
    options: &InferOptions,
    max_depth: Option<usize>,
) -> Outcome<F::Error> {
    let interner = Interner::new();
    let mut docs = Vec::new();
    let err = fold_into::<F>(text, max_depth, &interner, &mut docs);
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
fn walk_fold<F: Front>(
    text: &str,
    options: &InferOptions,
    max_depth: Option<usize>,
) -> (Outcome<F::Error>, usize) {
    let interner = Interner::new();
    let mut fold = Counting::new(options);
    let err = fold_into::<F>(text, max_depth, &interner, &mut fold);
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
fn engine_fold<F: Front>(
    text: &str,
    options: &InferOptions,
    max_depth: Option<usize>,
    jobs: usize,
    chunk: usize,
) -> Result<(String, usize, InternStats), StreamError> {
    let interner = Interner::new();
    let config = IngestConfig {
        jobs,
        chunk_size: chunk,
        options: options.clone(),
        policy: RecoveryPolicy {
            max_depth,
            ..RecoveryPolicy::default()
        },
        ..IngestConfig::new(F::STREAM)
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

/// The bundles the pipeline cuts `text` into at bundle size `chunk`,
/// past a prologue of `skip` bytes: each window of `chunk` bytes runs
/// through the boundary scanner, and the stretch up to the last boundary
/// it reported is a bundle.
fn bundles<F: Front>(text: &str, skip: usize, chunk: usize) -> Vec<&str> {
    let mut scanner = F::boundaries();
    let (mut out, mut open) = (Vec::new(), skip);
    for (k, window) in text.as_bytes().chunks(chunk).enumerate() {
        let mut last = None;
        F::scan(&mut scanner, window, &mut |off| {
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
fn bundled_value_fold<F: Front>(
    text: &str,
    options: &InferOptions,
    max_depth: Option<usize>,
    chunk: usize,
) -> (String, usize, InternStats) {
    let interner = Interner::new();
    let (skip, ctx) = prologue::<F>(text, &interner);
    let (mut shape, mut records) = (Shape::Bottom, 0);
    for bundle in bundles::<F>(text, skip, chunk) {
        let mut docs = Vec::new();
        let parsed = F::parse_bundle(bundle, &ctx, max_depth, &interner, &mut docs);
        assert!(parsed.is_ok(), "the corpus parses");
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
fn check_agrees<F: Front>(
    text: &str,
    options: &InferOptions,
    max_depth: Option<usize>,
) -> Result<usize, TestCaseError> {
    let want = value_fold::<F>(text, options, max_depth);
    let (got, built) = walk_fold::<F>(text, options, max_depth);
    prop_assert_eq!(&got, &want, "{:?} direct on {}", options, text);
    for &(jobs, chunk) in RUNS {
        let want_engine = match &want.3 {
            None => Ok(bundled_value_fold::<F>(text, options, max_depth, chunk)),
            Some((_, e)) => {
                // The pipeline reports the error in the stream's frame,
                // past the prologue.
                let (skip, _) = prologue::<F>(text, &Interner::new());
                let mut start = TextPos::start();
                F::advance_pos(&mut start, &text.as_bytes()[..skip]);
                Err(F::wrap_error(F::shift_error(e.clone(), &start)))
            }
        };
        prop_assert_eq!(
            engine_fold::<F>(text, options, max_depth, jobs, chunk),
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

/// Asserts the direct walk agrees with the value fold on `text`, and
/// returns how many records it built.
fn agrees<F: Front>(text: &str, options: &InferOptions, max_depth: Option<usize>) -> usize {
    let want = value_fold::<F>(text, options, max_depth);
    let (got, built) = walk_fold::<F>(text, options, max_depth);
    assert_eq!(got, want, "{options:?} on {text}");
    built
}

/// Asserts both folds agree on `text` under every preset, directly and
/// through the pipeline; returns how many records the direct walk built
/// under `options`.
fn all_agree<F: Front>(text: &str, options: &InferOptions) -> usize {
    let built = agrees::<F>(text, options, None);
    for options in presets() {
        agrees::<F>(text, &options, None);
        check_agrees::<F>(text, &options, None).unwrap_or_else(|e| panic!("{e:?}"));
    }
    built
}

// --- JSON ---

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
            check_agrees::<JsonFormat>(&json_lines(&docs), &options, None)?;
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
            walked += check_agrees::<JsonFormat>(&text, &options, None)
                .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            let docs = with_conforming(&corpus[..6], &options, 4, &mut rng);
            walked += check_agrees::<JsonFormat>(&json_lines(&docs), &options, None)
                .unwrap_or_else(|e| panic!("seed {seed} conforming: {e:?}"));
        }
    }
    // The property must not hold vacuously.
    assert!(walked > 300, "only {walked} records were walked");
}

// --- Edge cases: each corpus sets σ with its first two records (the
// --- second is covered, so the walk starts at the third). ---

fn json_agrees(text: &str) -> usize {
    all_agree::<JsonFormat>(text, &InferOptions::json())
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
    let built = agrees::<JsonFormat>(text, &InferOptions::formal(), None);
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
    let max_depth = Some(3);
    let ok = "{\"a\":{\"b\":[1]}}";
    let deep = "{\"a\":{\"b\":[[1]]}}";
    let text = format!("{ok}\n{ok}\n{ok}\n{deep}\n{ok}\n");
    for options in presets() {
        let want = value_fold::<JsonFormat>(&text, &options, max_depth);
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
        assert_eq!(
            walk_fold::<JsonFormat>(&text, &options, max_depth).0,
            want,
            "{options:?}"
        );
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
            let want = value_fold::<JsonFormat>(&text, &options, None);
            assert!(want.3.is_some(), "{bad} is malformed");
            assert_eq!(
                walk_fold::<JsonFormat>(&text, &options, None).0,
                want,
                "{bad} {options:?}"
            );
        }
        // And as a key.
        let text = format!("{{\"s\":1}}\n{{\"s\":2}}\n{{{bad}:3}}\n");
        let want = value_fold::<JsonFormat>(&text, &InferOptions::json(), None);
        assert!(want.3.is_some());
        assert_eq!(
            walk_fold::<JsonFormat>(&text, &InferOptions::json(), None).0,
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
        let want = value_fold::<JsonFormat>(text, &options, None);
        let err = &want.3.as_ref().expect("malformed").1;
        assert_eq!((err.pos.line, err.pos.column), (6, 7));
        assert_eq!(walk_fold::<JsonFormat>(text, &options, None).0, want);
    }
}

// --- XML and CSV corpora shaped like the `files-dirty` benchmark inputs ---

const WORDS: &[&str] = &["alpha", "bravo", "delta", "echo", "kilo", "lima", "tango"];
const CITIES: &[&str] = &["Prague", "Cambridge", "Seattle", "Lagos", "Osaka", "Lima"];

fn pick<'a>(rng: &mut Rng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

/// An `<item>` document like the `files-dirty` ones — optional
/// attributes and elements, prices mixing ints, floats and `n/a`,
/// repeated `<tag>` children — with dates, `#N/A`, entities, CDATA,
/// mixed content, empty elements, comments and a nested element mixed
/// in.
fn xml_item(rng: &mut Rng, i: usize) -> String {
    let mut s = format!("<item id=\"{i}\" sku=\"S-{}\"", rng.below(10_000));
    if rng.chance(0.6) {
        s += &format!(" status=\"{}\"", pick(rng, &["active", "retired", "draft"]));
    }
    if rng.chance(0.3) {
        s += &format!(" discount=\"0.{}\"", 1 + rng.below(9));
    }
    if rng.chance(0.1) {
        s += " m=\"#N/A\"";
    }
    if rng.chance(0.2) {
        let since = pick(rng, &["2012-05-01", "May 3", "n/a", "3 May 2012", "soon"]);
        s += &format!(" since='{since}'");
    }
    s.push('>');
    if rng.chance(0.1) {
        s += "lead text ";
    }
    s += &format!("<name>{} {}</name>", pick(rng, WORDS), rng.below(100));
    match rng.below(6) {
        0 => {}
        1 => s += &format!("<price>{}</price>", rng.below(500)),
        2 => s += "<price>n/a</price>",
        3 => s += "<price>&lt;5&gt;</price>",
        4 => s += &format!("<price><![CDATA[{}]]></price>", rng.below(500)),
        _ => s += &format!("<price>{}.{}</price>", rng.below(500), 1 + rng.below(9)),
    }
    if rng.chance(0.7) {
        s += &format!("<qty>{}</qty>", rng.below(40));
    }
    for _ in 0..rng.below(4) {
        s += &format!("<tag>{}</tag>", pick(rng, WORDS));
    }
    if rng.chance(0.25) {
        s += &format!("<note lang=\"en\">ships from {}</note>", pick(rng, CITIES));
    }
    if rng.chance(0.2) {
        s += pick(rng, &["<flag/>", "<flag></flag>", "<flag>  </flag>"]);
    }
    if rng.chance(0.3) {
        s += &format!(
            "<when>2012-{:02}-{:02}</when>",
            1 + rng.below(12),
            1 + rng.below(28)
        );
    }
    if rng.chance(0.1) {
        s += "<dims><w>1</w><!-- c --><h>2.5</h></dims>";
    }
    if rng.chance(0.1) {
        s += " tail";
    }
    s + "</item>\n"
}

/// A CSV table like the `files-dirty` ones: `id,name,price,qty` plus a
/// bit column that widens to an int after `widen`, a date column that
/// turns to strings after `widen`, and a note; with empty and `n/a`
/// cells, quoted cells holding commas, `""` and newlines, short and long
/// rows, and CRLF line ends.
fn csv_table(rng: &mut Rng, rows: usize, widen: usize) -> String {
    let mut s = String::from("id,name,price,qty,flag,date,note\n");
    for i in 0..rows {
        let mut cells = vec![i.to_string()];
        cells.push(match rng.below(10) {
            0 => format!("\"{}, {}\"", pick(rng, WORDS), pick(rng, CITIES)),
            1 => format!("\"say \"\"{}\"\"\"", pick(rng, WORDS)),
            2 => format!("\"{}\n{}\"", pick(rng, WORDS), pick(rng, CITIES)),
            _ => format!("{}-{}", pick(rng, WORDS), rng.below(100)),
        });
        cells.push(match rng.below(6) {
            0 => String::new(),
            1 => "n/a".to_owned(),
            2 => rng.below(500).to_string(),
            _ => format!("{}.{}", rng.below(500), rng.below(100)),
        });
        cells.push(if rng.chance(0.85) {
            rng.below(40).to_string()
        } else {
            String::new()
        });
        let wide = i >= widen && rng.chance(0.3);
        cells.push(rng.below(if wide { 5 } else { 2 }).to_string());
        cells.push(if i >= widen && rng.chance(0.3) {
            pick(rng, &["soon", "n/a", "later"]).to_owned()
        } else {
            format!("2012-{:02}-{:02}", 1 + rng.below(12), 1 + rng.below(28))
        });
        cells.push(pick(rng, WORDS).to_owned());
        match rng.below(20) {
            0 => cells.truncate(1 + rng.below(6) as usize),
            1 => cells.push("extra".to_owned()),
            _ => {}
        }
        s += &cells.join(",");
        s += if rng.chance(0.1) { "\r\n" } else { "\n" };
    }
    s
}

/// Breaks one record of `text` as the benchmark's injector does: an
/// unquoted XML `id`, or a CSV row's first cell quoted with a stray
/// character after it.
fn corrupt(text: &str, format: StreamFormat, rng: &mut Rng) -> String {
    let (needle, with) = match format {
        StreamFormat::Xml => ("<item id=\"", "<item id="),
        _ => ("\n1", "\n\"1\"x"),
    };
    let hits: Vec<usize> = text.match_indices(needle).map(|(at, _)| at).collect();
    let at = hits[rng.below(hits.len() as u64) as usize];
    format!("{}{with}{}", &text[..at], &text[at + needle.len()..])
}

#[test]
fn walk_fold_is_the_value_fold_on_xml_and_csv_corpora() {
    let mut walked = 0;
    for seed in 0..16 {
        let mut rng = Rng::new(seed);
        let xml: String = (0..40).map(|i| xml_item(&mut rng, i)).collect();
        let csv = csv_table(&mut rng, 60, 40);
        let bad_xml = corrupt(&xml, StreamFormat::Xml, &mut rng);
        let bad_csv = corrupt(&csv, StreamFormat::Csv, &mut rng);
        for options in presets() {
            for text in [&xml, &bad_xml] {
                walked += check_agrees::<XmlFormat>(text, &options, None)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            }
            for text in [&csv, &bad_csv] {
                walked += check_agrees::<CsvFormat>(text, &options, None)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            }
        }
        assert!(
            value_fold::<XmlFormat>(&bad_xml, &InferOptions::xml(), None)
                .3
                .is_some()
        );
        assert!(
            value_fold::<CsvFormat>(&bad_csv, &InferOptions::csv(), None)
                .3
                .is_some()
        );
    }
    // The property must not hold vacuously.
    assert!(walked > 2_000, "only {walked} records were walked");
}

/// Records of a homogeneous bundle that the fold had built: the first
/// sets σ, the second is built because the fold offers a walk only after
/// a covered record, and every later one is walked.
fn built_per_bundle<F: Front>(
    text: &str,
    options: &InferOptions,
    chunk: usize,
) -> Vec<(usize, usize)> {
    let interner = Interner::new();
    let (skip, ctx) = prologue::<F>(text, &interner);
    bundles::<F>(text, skip, chunk)
        .into_iter()
        .map(|bundle| {
            let mut fold = Counting::new(options);
            let parsed = F::parse_bundle(bundle, &ctx, None, &interner, &mut fold);
            assert!(parsed.is_ok());
            (fold.acc.records(), fold.built)
        })
        .collect()
}

#[test]
fn homogeneous_xml_and_csv_are_walked_after_each_bundles_first_records() {
    let xml: String = (0..400)
        .map(|i| {
            format!(
                "<row id=\"{}\" ok=\"true\"><name>n{i}</name><price>{i}.5</price>\
                 <when>2012-05-{:02}</when><tag>a</tag><tag>b</tag></row>\n",
                100 + i,
                1 + i % 28
            )
        })
        .collect();
    let csv: String = std::iter::once("id,name,price,when\n".to_owned())
        .chain((0..600).map(|i| format!("{},n{i},{i}.5,2012-05-{:02}\n", 100 + i, 1 + i % 28)))
        .collect();
    for options in presets() {
        for chunk in [1 << 10, 1 << 16] {
            let counts = built_per_bundle::<XmlFormat>(&xml, &options, chunk)
                .into_iter()
                .chain(built_per_bundle::<CsvFormat>(&csv, &options, chunk));
            for (records, built) in counts {
                assert_eq!(built, records.min(2), "{options:?} at chunk {chunk}");
            }
        }
    }
}

// --- XML edge cases: each corpus sets σ with its first two documents. ---

fn xml_agrees(text: &str) -> usize {
    all_agree::<XmlFormat>(text, &InferOptions::xml())
}

#[test]
fn xml_mixed_content_and_empty_elements() {
    // Text beside children is dropped; an empty or blank body has no `•`.
    let text = "<p>one <b>x</b> two</p>\n<p>three <b>y</b></p>\n<p><b>z</b> four</p>\n\
                <p> <!-- c --> <b>w</b> <?pi?> five </p>\n";
    assert_eq!(xml_agrees(text), 2);
    let text = "<a x=\"1\"/>\n<a x=\"2\"></a>\n<a x=\"3\">  </a>\n<a x=\"4\"/>\n";
    assert_eq!(xml_agrees(text), 2);
    // Text where σ has children, and children where σ has text, depart.
    let text = "<p><b>x</b></p>\n<p><b>y</b></p>\n<p>text</p>\n<p><b>z</b></p>\n";
    assert_eq!(xml_agrees(text), 4);
    let text = "<p>1</p>\n<p>2</p>\n<p><b>3</b></p>\n<p>4</p>\n";
    assert_eq!(xml_agrees(text), 4);
}

#[test]
fn xml_missing_values_entities_and_cdata() {
    let text = "<a m=\"#N/A\">x</a>\n<a m=\"#N/A\">y</a>\n<a m=\"#N/A\">&lt;z&gt;</a>\n\
                <a m=\"NA\"><![CDATA[<w>]]></a>\n<a m=\" - \">&#65;<![CDATA[b]]>c</a>\n";
    assert_eq!(xml_agrees(text), 2);
    // A number spelled through an entity or CDATA is a number.
    let text =
        "<n>1.5</n>\n<n>2.5</n>\n<n>&#52;2</n>\n<n><![CDATA[ 7 ]]></n>\n<n>1<!-- c -->2</n>\n";
    assert_eq!(xml_agrees(text), 2);
}

#[test]
fn xml_dates_in_date_and_string_positions() {
    for (first, probe, built) in [
        ("2012-05-01", "May 3", 2),
        ("2012-05-01", "soon", 4),
        ("soon", "2012-05-01", 2),
        ("soon", "May 3", 2),
    ] {
        let text = format!(
            "<a d=\"{first}\">{first}</a>\n<a d=\"{first}\">{first}</a>\n\
             <a d=\"{probe}\">{first}</a>\n<a d=\"{first}\">{probe}</a>\n"
        );
        assert_eq!(xml_agrees(&text), built, "{first} then {probe}");
    }
}

#[test]
fn xml_departing_on_the_last_child() {
    // A new attribute, a new tag, a wider text and a second child on the
    // last child: each departs at its end, is parsed again and built, and
    // the document after it is built too.
    for last in [
        "<item id=\"3\"><name>c</name><tag>x</tag><tag k=\"1\">y</tag></item>",
        "<item id=\"3\"><name>c</name><tag>x</tag><extra/></item>",
        "<item id=\"3\"><name>c</name><tag>x</tag><tag>2.5</tag></item>",
        "<item id=\"3\"><name>c</name><tag>x</tag><tag><b/></tag></item>",
    ] {
        let text = format!(
            "<item id=\"1\"><name>a</name><tag>x</tag><tag>y</tag></item>\n\
             <item id=\"2\"><name>b</name><tag>x</tag></item>\n{last}\n\
             <item id=\"4\"><name>d</name><tag>x</tag></item>\n\
             <item id=\"5\"><name>e</name><tag>x</tag></item>\n"
        );
        assert_eq!(xml_agrees(&text), 4, "{last}");
    }
}

#[test]
fn xml_depth_overflow_inside_a_covered_document() {
    let ok = "<a><b><c>1</c></b></a>";
    let deep = "<a><b><c><d>1</d></c></b></a>";
    let text = format!("{ok}\n{ok}\n{ok}\n{deep}\n{ok}\n");
    for options in presets() {
        let want = value_fold::<XmlFormat>(&text, &options, Some(3));
        let err = &want.3.as_ref().expect("too deep").1;
        assert_eq!(err.kind, tfd_xml::XmlErrorKind::TooDeep(3));
        assert_eq!((err.line, err.column), (4, 10));
        assert_eq!(walk_fold::<XmlFormat>(&text, &options, Some(3)).0, want);
        check_agrees::<XmlFormat>(&text, &options, Some(3)).unwrap_or_else(|e| panic!("{e:?}"));
    }
}

#[test]
fn xml_errors_inside_covered_documents_keep_their_positions() {
    for bad in [
        "<a x=\"3\">\n  <b>1</c></a>",
        "<a x=\"3\"><b>&nope;</b></a>",
        "<a x=\"3\"><b>1</b>",
        "<a x=3><b>1</b></a>",
    ] {
        let text = format!("<a x=\"1\"><b>1</b></a>\n<a x=\"2\"><b>2</b></a>\n{bad}\n<a/>\n");
        for options in presets() {
            let want = value_fold::<XmlFormat>(&text, &options, None);
            assert!(want.3.is_some(), "{bad} is malformed");
            assert_eq!(
                walk_fold::<XmlFormat>(&text, &options, None).0,
                want,
                "{bad}"
            );
            check_agrees::<XmlFormat>(&text, &options, None).unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
}

// --- CSV edge cases: the header, then σ set by the first two rows. ---

fn csv_agrees(text: &str) -> usize {
    all_agree::<CsvFormat>(text, &InferOptions::csv())
}

#[test]
fn csv_short_and_long_rows() {
    // A short row's missing cells are empty, so null: they depart unless
    // the column is already nullable. Extra cells are dropped.
    let text = "a,b,c\n10,x,2.5\n11,y,3.5\n12,z\n13,w,1.5\n";
    assert_eq!(csv_agrees(text), 4);
    let text = "a,b,c\n10,x,\n11,y,\n12,z\n13,w,,extra,more\n14,v\n";
    assert_eq!(csv_agrees(text), 2);
}

#[test]
fn csv_quoted_cells() {
    let text =
        "a,b\n10,x\n11,\"y, z\"\n12,\"say \"\"hi\"\"\"\n13,\"two\nlines\"\n14,\"\"\n\"15\",w\n";
    // The empty quoted cell is null, which a string column does not
    // cover: it and the row after it are built.
    assert_eq!(csv_agrees(text), 4);
}

#[test]
fn csv_a_bit_column_that_widens() {
    // Under the CSV preset 0/1 is a bit; the 2 widens it to an int.
    let text = "a,flag\n10,0\n11,1\n12,1\n13,0\n14,2\n15,1\n16,0\n";
    assert_eq!(csv_agrees(text), 4);
}

#[test]
fn csv_a_date_column_that_turns_to_strings() {
    let text =
        "a,d\n10,2012-05-01\n11,5/3/2012\n12,May 3\n13,soon\n14,2012-05-02\n15,n/a\n16,later\n";
    assert_eq!(csv_agrees(text), 4);
    // Once the column is a string, dates and words alike are walked.
    let text = "a,d\n10,soon\n11,later\n12,2012-05-01\n13,May 3\n14,x\n";
    assert_eq!(csv_agrees(text), 2);
}

#[test]
fn csv_errors_inside_covered_rows_keep_their_lines() {
    let text = "a,b\n1,x\n2,y\n3,\"z\"q\n4,w\n";
    for options in presets() {
        let want = value_fold::<CsvFormat>(text, &options, None);
        assert_eq!(
            want.3.as_ref().map(|(to, e)| (*to, e.clone())),
            Some((8, tfd_csv::CsvError::CharAfterQuote(3, 'q')))
        );
        assert_eq!(walk_fold::<CsvFormat>(text, &options, None).0, want);
        check_agrees::<CsvFormat>(text, &options, None).unwrap_or_else(|e| panic!("{e:?}"));
    }
}
