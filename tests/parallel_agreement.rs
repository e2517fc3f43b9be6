//! Parallel-vs-sequential differential suite.
//!
//! The ingest pipeline (`tfd_core::run`) promises to be *observationally
//! identical* at every job count and bundle size: the same folded
//! `Shape` (the Fig. 3 fold is a semilattice, so any re-association of
//! `csh` joins yields the same least upper bound, and the
//! document-order join keeps even the field order), the same record
//! counts — and, for malformed input, the same error kind at the same
//! stream-global position (the first error in document order).
//!
//! This suite drives that promise with generated corpora under
//! adversarial job counts — 1, 2, 7, 64, more workers than records —
//! and bundle sizes down to one byte (every record its own bundle),
//! plus mutation/truncation error agreement, for JSON, XML and CSV,
//! through both in-memory bytes and a `Read` source at small chunk
//! sizes. A value-level check proves the bundles themselves: cut at the
//! scanner's boundaries and parsed one by one with
//! `DataFormat::parse_bundle`, they concatenate to `parse_many_values`.

mod common;

use common::{ingest, ingest_bytes, value_strategy};
use proptest::prelude::*;
use tfd_core::engine::{CsvFormat, DataFormat, JsonFormat, Source, XmlFormat};
use tfd_core::stream::StreamError;
use tfd_core::{InferOptions, RecoveryPolicy, StreamFormat};
use tfd_value::{Interner, Value};

/// The (jobs, bundle size) pairs every in-memory corpus is driven
/// through: sequential, small, odd, large, and — for the generated
/// corpora, which stay under ~60 records — more workers than records,
/// with bundles from one record each to the whole corpus.
const SLICE_RUNS: &[(usize, usize)] = &[(1, 1), (2, 7), (7, 3), (64, 1), (2, 1 << 16)];

/// A run's observable outcome: the rendered fold, records and bytes, or
/// the error. Mutated corpora can carry duplicate record fields, whose
/// shapes compare unequal even to themselves; the rendering is what the
/// CLI prints.
type Outcome = Result<(String, usize, u64), StreamError>;

fn outcome(format: StreamFormat, source: Source<'_>, jobs: usize, chunk: usize) -> Outcome {
    let interner = Interner::new();
    ingest(
        format,
        source,
        jobs,
        chunk,
        RecoveryPolicy::default(),
        &interner,
    )
    .map(|r| {
        let s = r.summary;
        (format!("{:?}", s.shape), s.records, s.bytes)
    })
}

/// The sequential baseline: one job, one bundle per 64 KiB.
fn sequential(format: StreamFormat, corpus: &[u8]) -> Outcome {
    outcome(format, Source::Bytes(corpus), 1, 1 << 16)
}

/// Asserts the in-memory pipeline agrees with the sequential run at
/// every (jobs, bundle size) pair, and that the scanner's bundles parse
/// to the one-shot values.
fn assert_slice_agrees<F: DataFormat>(format: StreamFormat, corpus: &[u8]) {
    let seq = sequential(format, corpus);
    for &(jobs, chunk) in SLICE_RUNS {
        let par = outcome(format, Source::Bytes(corpus), jobs, chunk);
        assert_eq!(par, seq, "{} at jobs {jobs} chunk {chunk}", F::NAME);
    }
    assert_bundles_concatenate::<F>(corpus);
}

/// Asserts the reader pipeline agrees with the sequential run for
/// several (chunk size, jobs) pairs.
fn assert_reader_agrees(format: StreamFormat, corpus: &[u8]) {
    let seq = sequential(format, corpus);
    for (chunk, jobs) in [(1usize, 2usize), (7, 4), (64, 7), (4096, 3), (4096, 1)] {
        let par = outcome(format, Source::Reader(Box::new(corpus)), jobs, chunk);
        assert_eq!(par, seq, "{format:?} reader at chunk {chunk} jobs {jobs}");
    }
}

/// The bundle-level contract: after the prologue, every run of whole
/// records between two scanner boundaries parses with
/// [`DataFormat::parse_bundle`] to exactly its slice of the one-shot
/// `parse_many_values` — cut into bundles of every record count from 1
/// up. (Only well-formed UTF-8 corpora the one-shot parser accepts.)
fn assert_bundles_concatenate<F: DataFormat>(corpus: &[u8]) {
    let interner = Interner::new();
    let Ok(text) = std::str::from_utf8(corpus) else {
        return;
    };
    let Ok(want) = F::parse_many_values(text, &interner) else {
        return;
    };
    let mut cuts = Vec::new();
    F::scan(&mut F::boundaries(), corpus, &mut |off| cuts.push(off));
    let first = cuts.first().copied().unwrap_or(corpus.len());
    let (start, ctx) = F::prologue(&corpus[..first], &interner).expect("accepted corpus");
    cuts.retain(|&c| c > start);
    if cuts.last() != Some(&corpus.len()) {
        cuts.push(corpus.len());
    }
    for per in 1..=cuts.len().max(1) {
        let mut got = Vec::new();
        let mut from = start;
        for group in cuts.chunks(per) {
            let to = *group.last().expect("non-empty chunk");
            let bundle = std::str::from_utf8(&corpus[from..to]).expect("cut at a boundary");
            F::parse_bundle(bundle, &ctx, None, &interner, &mut |v| got.push(v))
                .expect("a bundle of accepted records parses");
            from = to;
        }
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{} bundles of {per} records",
            F::NAME
        );
    }
}

fn assert_agrees<F: DataFormat>(format: StreamFormat, corpus: &[u8]) {
    assert_slice_agrees::<F>(format, corpus);
    assert_reader_agrees(format, corpus);
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

fn json_corpus_text(docs: &[Value], seps: &[&str]) -> String {
    let mut text = String::new();
    for (i, d) in docs.iter().enumerate() {
        text.push_str(&tfd_json::to_json_string(&tfd_json::Json::from_value(d)));
        text.push_str(seps.get(i % seps.len().max(1)).copied().unwrap_or(" "));
    }
    text
}

const JSON_SEPS: &[&str] = &[" ", "\n", "\t\r\n "];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sharded parallel inference over generated JSON corpora agrees
    /// with the sequential fold — shapes, records, values — for every
    /// shard count, including shards > records.
    #[test]
    fn json_parallel_agrees_on_valid_corpora(
        docs in prop::collection::vec(value_strategy(), 0..6),
        seps in prop::collection::vec(prop::sample::select(JSON_SEPS), 1..4),
    ) {
        let text = json_corpus_text(&docs, &seps);
        assert_agrees::<JsonFormat>(StreamFormat::Json, text.as_bytes());
    }

    /// Mutated/truncated JSON: identical outcomes — error kind, offset,
    /// line and char-correct column — at every shard count.
    #[test]
    fn json_parallel_error_agreement_under_mutation(
        docs in prop::collection::vec(value_strategy(), 1..4),
        position in 0usize..400,
        c in prop::sample::select(&['@', '"', '{', '}', ']', ',', 'x', '0', '\\', 'é'][..]),
        cut in 0usize..400,
        do_truncate in proptest::strategy::any::<bool>(),
    ) {
        let base = json_corpus_text(&docs, &[" ", "\n"]);
        let text = if do_truncate { truncate(&base, cut) } else { mutate(&base, position, c) };
        assert_agrees::<JsonFormat>(StreamFormat::Json, text.as_bytes());
    }
}

// --- XML ---

const XML_NAMES: &[&str] = &["a", "item", "ns:tag", "čaj"];
const XML_SEPS: &[&str] = &[" ", "\n", "", "<!-- gap -->", "\r\n"];

fn xml_doc_strategy() -> impl Strategy<Value = String> {
    let attrs = prop::collection::vec("[a-z 0-9é]{0,4}", 0..3).prop_map(|vals| {
        vals.into_iter()
            .enumerate()
            .map(|(i, v)| format!(" at{i}=\"{v}\""))
            .collect::<String>()
    });
    let content = prop_oneof![
        "[a-z 0-9éž]{0,6}",
        Just("&amp;".to_owned()),
        Just("<![CDATA[ <raw> & ]]>".to_owned()),
        Just("<!-- note -->".to_owned()),
    ];
    (prop::sample::select(XML_NAMES), attrs, content).prop_map(|(n, a, t)| {
        if t.is_empty() {
            format!("<{n}{a}/>")
        } else {
            format!("<{n}{a}>{t}</{n}>")
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sharded parallel inference over generated XML document streams
    /// agrees with the sequential fold at every shard count (comments
    /// between documents glue to the following shard's document, exactly
    /// as the sequential scanner glues them).
    #[test]
    fn xml_parallel_agrees_on_valid_corpora(
        docs in prop::collection::vec(xml_doc_strategy(), 0..6),
        seps in prop::collection::vec(prop::sample::select(XML_SEPS), 1..4),
    ) {
        let mut text = String::new();
        for (i, d) in docs.iter().enumerate() {
            text.push_str(d);
            text.push_str(seps.get(i % seps.len().max(1)).copied().unwrap_or(" "));
        }
        assert_agrees::<XmlFormat>(StreamFormat::Xml, text.as_bytes());
    }

    /// Mutated/truncated XML: identical error positions at every shard
    /// count.
    #[test]
    fn xml_parallel_error_agreement_under_mutation(
        docs in prop::collection::vec(xml_doc_strategy(), 1..4),
        position in 0usize..300,
        c in prop::sample::select(&['<', '>', '&', ';', '@', '/', '"', 'é'][..]),
        cut in 0usize..300,
        do_truncate in proptest::strategy::any::<bool>(),
    ) {
        let base: String = docs.join("\n");
        let text = if do_truncate { truncate(&base, cut) } else { mutate(&base, position, c) };
        assert_agrees::<XmlFormat>(StreamFormat::Xml, text.as_bytes());
    }
}

// --- CSV ---

fn csv_cell() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z0-9]{0,4}",
        Just("#N/A".to_owned()),
        Just("42".to_owned()),
        Just("2.5".to_owned()),
        Just("2012-05-01".to_owned()),
        // Quoted cells with embedded delimiters, quotes, line endings
        // and multi-byte characters — the shard cutter must never split
        // inside these.
        "[a-z,\"\n\réž ]{0,6}".prop_map(|c| format!("\"{}\"", c.replace('"', "\"\""))),
    ]
}

const CSV_ENDINGS: &[&str] = &["\n", "\r\n", "\r"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sharded parallel CSV inference agrees with the sequential fold at
    /// every shard count: the header is parsed once in the prologue and
    /// seeded into every shard, quoted line endings never become cut
    /// points, and CRLF pairs are never split between shards.
    #[test]
    fn csv_parallel_agrees_on_valid_corpora(
        rows in prop::collection::vec(prop::collection::vec(csv_cell(), 0..5), 0..6),
        endings in prop::collection::vec(prop::sample::select(CSV_ENDINGS), 1..4),
        final_ending in proptest::strategy::any::<bool>(),
    ) {
        let mut text = String::from("h1,h2,h3");
        text.push_str(endings.first().copied().unwrap_or("\n"));
        for (i, row) in rows.iter().enumerate() {
            text.push_str(&row.join(","));
            if i + 1 < rows.len() || final_ending {
                text.push_str(endings.get(i % endings.len().max(1)).copied().unwrap_or("\n"));
            }
        }
        assert_agrees::<CsvFormat>(StreamFormat::Csv, text.as_bytes());
    }

    /// Raw random CSV-ish text (stray quotes, ragged rows, bare CRs):
    /// identical outcomes — rows, or error kind and line — at every
    /// shard count.
    #[test]
    fn csv_parallel_error_agreement_over_random_text(
        text in "[a-c,\"\n\r ]{0,60}",
    ) {
        assert_agrees::<CsvFormat>(StreamFormat::Csv, text.as_bytes());
    }
}

// --- Named edges and regressions ---

/// Worker counts exceeding the record count must degrade gracefully: a
/// bundle never splits a record, so the pipeline simply leaves workers
/// idle.
#[test]
fn more_shards_than_records() {
    let cases: [(&str, StreamFormat); 3] = [
        ("{\"a\": 1} {\"b\": 2}", StreamFormat::Json),
        ("<a/><b/>", StreamFormat::Xml),
        ("h\n1\n2\n", StreamFormat::Csv),
    ];
    for (text, format) in cases {
        let seq = sequential(format, text.as_bytes());
        for jobs in [3, 64, 1000] {
            let par = outcome(format, Source::Bytes(text.as_bytes()), jobs, 1);
            assert_eq!(par, seq, "{format:?} at jobs {jobs}");
        }
    }
}

/// Single-record and empty corpora at high worker counts.
#[test]
fn single_record_and_empty_corpora() {
    assert_slice_agrees::<JsonFormat>(StreamFormat::Json, b"{\"only\": 1}");
    assert_slice_agrees::<JsonFormat>(StreamFormat::Json, b"");
    assert_slice_agrees::<XmlFormat>(StreamFormat::Xml, b"<only x=\"1\"/>");
    assert_slice_agrees::<XmlFormat>(StreamFormat::Xml, b"");
    assert_slice_agrees::<XmlFormat>(StreamFormat::Xml, b"<!-- misc only -->");
    assert_slice_agrees::<CsvFormat>(StreamFormat::Csv, b"h1,h2\n1,2\n");
    assert_slice_agrees::<CsvFormat>(StreamFormat::Csv, b"h1,h2");
    assert_slice_agrees::<CsvFormat>(StreamFormat::Csv, b"");
    // The edges themselves: no records, ⊥, or CSV's missing header.
    let interner = Interner::new();
    let empty = ingest_bytes(StreamFormat::Json, b"", 4, 1, &interner).unwrap();
    assert_eq!(empty.summary.records, 0);
    assert_eq!(empty.summary.shape, tfd_core::Shape::Bottom);
    assert_eq!(
        ingest_bytes(StreamFormat::Csv, b"", 4, 1, &interner).unwrap_err(),
        StreamError::Csv(tfd_csv::CsvError::Empty)
    );
    let header_only = ingest_bytes(StreamFormat::Csv, b"a,b", 4, 1, &interner).unwrap();
    assert_eq!(header_only.summary.records, 0);
}

/// The error in a late bundle must surface at its sequential stream
/// position (line numbers continue across bundle boundaries), and the
/// first of two errors in document order wins.
#[test]
fn error_positions_cross_shard_boundaries() {
    let json = "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n{\"d\": @}\n";
    let seq = sequential(StreamFormat::Json, json.as_bytes());
    for (jobs, chunk) in [(2, 1), (3, 9), (4, 17), (64, 1)] {
        let par = outcome(
            StreamFormat::Json,
            Source::Bytes(json.as_bytes()),
            jobs,
            chunk,
        );
        assert_eq!(par, seq, "jobs {jobs} chunk {chunk}");
    }
    match seq {
        Err(StreamError::Json(e)) => {
            assert_eq!(e.pos.line, 4);
            assert_eq!(e.pos.offset, json.find('@').unwrap());
        }
        other => panic!("expected a JSON error, got {other:?}"),
    }

    // CSV: an unterminated quote on the last line, with quoted newlines
    // earlier to stress the line accounting.
    let csv = "h\n\"a\nb\"\nok\n\"oops";
    let seq = sequential(StreamFormat::Csv, csv.as_bytes());
    for (jobs, chunk) in [(2, 1), (7, 3)] {
        let par = outcome(
            StreamFormat::Csv,
            Source::Bytes(csv.as_bytes()),
            jobs,
            chunk,
        );
        assert_eq!(par, seq, "jobs {jobs} chunk {chunk}");
    }
    assert_eq!(
        seq,
        Err(StreamError::Csv(tfd_csv::CsvError::UnterminatedQuote(5)))
    );

    // Two errors in different bundles: the earlier one is reported.
    let two = "{\"a\": 1} {\"b\": @} {\"c\": 2} {\"d\": %}";
    let seq = sequential(StreamFormat::Json, two.as_bytes());
    for (jobs, chunk) in [(2, 1), (4, 5), (16, 1)] {
        let par = outcome(
            StreamFormat::Json,
            Source::Bytes(two.as_bytes()),
            jobs,
            chunk,
        );
        assert_eq!(par, seq, "jobs {jobs} chunk {chunk}");
        let rd = outcome(
            StreamFormat::Json,
            Source::Reader(Box::new(two.as_bytes())),
            jobs,
            chunk,
        );
        assert_eq!(rd, seq, "reader jobs {jobs} chunk {chunk}");
    }
    match seq {
        Err(StreamError::Json(e)) => assert_eq!(e.pos.offset, two.find('@').unwrap()),
        other => panic!("expected a JSON error, got {other:?}"),
    }
}

/// CSV quoting torture: quoted CRLFs, `""` escapes and mid-field quotes
/// right at likely cut points.
#[test]
fn csv_quoting_never_splits_at_shard_cuts() {
    let mut text = String::from("name,note\n");
    for i in 0..60 {
        text.push_str(&format!("r{i},\"line1\r\nline2,with \"\"quotes\"\"\"\r\n"));
    }
    assert_agrees::<CsvFormat>(StreamFormat::Csv, text.as_bytes());
}

/// Skewed record sizes — a few huge records among swarms of tiny ones,
/// in every arrangement (front-loaded, back-loaded, interleaved). Under
/// the byte-size-aware work queue this is exactly the load round-robin
/// dealing used to serialize: one worker drew every giant while the
/// rest idled. Agreement must hold regardless of who drew what.
#[test]
fn skewed_record_sizes_agree_with_sequential() {
    let giant = |i: usize| {
        let mut s = format!("{{\"id\": {i}, \"blob\": \"");
        for k in 0..4000 {
            s.push((b'a' + ((i + k) % 26) as u8) as char);
        }
        s.push_str("\"}\n");
        s
    };
    let tiny = |i: usize| format!("{{\"id\": {i}}}\n");

    let mut front = String::new();
    let mut back = String::new();
    let mut woven = String::new();
    for i in 0..4 {
        front.push_str(&giant(i));
        back.push_str(&tiny(i));
        woven.push_str(&giant(i));
    }
    for i in 0..200 {
        front.push_str(&tiny(i));
        back.push_str(&tiny(i));
        if i % 50 == 0 {
            woven.push_str(&giant(i));
        }
        woven.push_str(&tiny(i));
    }
    for i in 0..4 {
        back.push_str(&giant(i));
    }
    for text in [&front, &back, &woven] {
        assert_agrees::<JsonFormat>(StreamFormat::Json, text.as_bytes());
    }
}

/// The corpus layer: `infer_sources_parallel` over many in-memory files
/// must produce, slot by slot, what the sequential (`jobs = 1`) pass
/// produces — and the file-ordered `csh` fold over those slots must be
/// a fixed shape regardless of worker count.
#[test]
fn multi_file_corpus_parallelism_agrees_with_sequential_fold() {
    use tfd_core::engine::{infer_sources_parallel, CorpusSource, IngestConfig};
    use tfd_core::{csh, Shape};

    let files: Vec<String> = (0..9)
        .map(|i| {
            let mut s = String::new();
            for j in 0..(10 + i * 7) {
                match (i + j) % 3 {
                    0 => s.push_str(&format!("{{\"id\": {j}, \"k{i}\": true}}\n")),
                    1 => s.push_str(&format!("{{\"id\": {j}.5, \"note\": \"n\"}}\n")),
                    _ => s.push_str(&format!("{{\"id\": {j}, \"note\": null}}\n")),
                }
            }
            s
        })
        .collect();
    let sources: Vec<CorpusSource<'_>> = files
        .iter()
        .map(|f| CorpusSource::Bytes(f.as_bytes()))
        .collect();

    let fold = |jobs: usize| -> (Vec<String>, String, Vec<usize>) {
        let config = IngestConfig {
            jobs,
            chunk_size: 64,
            ..IngestConfig::new(StreamFormat::Json)
        };
        let results = infer_sources_parallel(&sources, &config);
        assert_eq!(results.len(), sources.len());
        let survivors = Interner::new();
        let mut shapes = Vec::new();
        let mut records = Vec::new();
        let mut combined = Shape::Bottom;
        for r in results {
            let mut out = r.expect("clean corpora");
            // Render inside the file's own arena, then fold in one arena.
            shapes.push(out.recovered.summary.shape.to_string());
            records.push(out.recovered.summary.records);
            out.recovered.summary.shape.reintern(&survivors);
            combined = csh(combined, out.recovered.summary.shape);
        }
        (shapes, combined.to_string(), records)
    };

    let seq = fold(1);
    for jobs in [2, 3, 8, 64] {
        assert_eq!(fold(jobs), seq, "jobs {jobs}");
    }
}

/// The global (§6.2, env-carrying) mode on top of the parallel fold:
/// globalizing the parallel shape equals globalizing the sequential one
/// — `--global --jobs N` prints what `--global` prints.
#[test]
fn globalize_on_parallel_fold_matches_sequential() {
    let mut text = String::new();
    for i in 0..30 {
        text.push_str(&format!(
            "<div id=\"{i}\"><div child=\"true\"><div x=\"{i}\"/></div></div>\n"
        ));
    }
    let interner = Interner::new();
    let seq = ingest_bytes(StreamFormat::Xml, text.as_bytes(), 1, 1 << 16, &interner).unwrap();
    let par = ingest_bytes(StreamFormat::Xml, text.as_bytes(), 8, 64, &interner).unwrap();
    assert_eq!(par.summary.shape, seq.summary.shape);
    let g_seq = tfd_core::globalize_env(seq.summary.shape);
    let g_par = tfd_core::globalize_env(par.summary.shape);
    assert_eq!(g_par, g_seq);
    assert!(!g_par.env.is_empty(), "the corpus is genuinely recursive");
    // And the record fold is the one-shot `infer_many` fold.
    let values =
        tfd_xml::parse_many_values_in(&text, &Default::default(), &Default::default(), &interner)
            .unwrap();
    assert_eq!(
        tfd_core::globalize_env(tfd_core::infer_many(&values, &InferOptions::xml())),
        g_seq
    );
    let _: &[Value] = &values;
}
