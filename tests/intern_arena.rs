//! Adversarial-vocabulary regression suite for the scoped name arenas.
//!
//! The scoped interner promises that a corpus's name vocabulary lives in
//! a per-corpus arena and is *reclaimed* when that arena drops, instead
//! of accumulating in a process-global table for the life of the
//! process. This suite drives a corpus with 100 000 distinct object keys
//! through the one-shot parser and the ingest pipeline — inline and on
//! workers, from in-memory bytes and from a reader — and asserts:
//!
//! - peak retained interner bytes stay bounded by one corpus's
//!   vocabulary (a fixed budget, not proportional to run count);
//! - dropping the corpus arena kills it, and no corpus name ever lands
//!   in the process-default arena;
//! - k sequential corpora cost one corpus's arena, not k of them;
//! - the inferred shape, its rendering and its `analyze` fingerprint
//!   are byte-identical whichever arena the names intern into, including
//!   after migrating the schema-sized survivor into a long-lived arena
//!   (what the CLI does with the process arena).
//!
//! Every assertion is about arenas the test itself created (their
//! [`Interner::stats`] and [`intern::is_live`]), never about
//! process-wide totals, which sibling tests running in parallel also
//! move.

use std::sync::OnceLock;
use tfd_core::analyze::fingerprint;
use tfd_core::engine::{run, IngestConfig, Source};
use tfd_core::{infer_many, GlobalShape, InferOptions, Shape, StreamFormat};
use tfd_value::{intern, Interner};

/// Distinct object keys in the adversarial corpus.
const KEYS: usize = 100_000;
/// Keys per record: 100 records of 1000 fresh keys each keeps the
/// record-shape joins linear-ish while still crossing [`KEYS`].
const KEYS_PER_RECORD: usize = 1_000;
/// Retained-bytes budget for one corpus's arena: vocabulary spellings
/// plus table/ownership overhead, with headroom for allocator rounding.
/// What matters is that it is a *constant*: k runs must not need k of
/// these.
const ARENA_BUDGET: usize = 24 << 20;

/// 100 JSONL records × 1000 distinct keys: 100 000+ distinct names, no
/// key ever repeated across records. Each record nests its fresh keys
/// under a per-record group key, so the interner takes the full
/// adversarial vocabulary while the shape fold's record joins stay
/// cheap (disjoint top-level fields never merge nested records).
fn corpus() -> &'static str {
    static CORPUS: OnceLock<String> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut out = String::new();
        for r in 0..(KEYS / KEYS_PER_RECORD) {
            out.push_str(&format!("{{\"g{r}\": {{"));
            for c in 0..KEYS_PER_RECORD {
                if c > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"k{r}_{c}\": {c}"));
            }
            out.push_str("}}\n");
        }
        out
    })
}

/// The raw vocabulary: the summed spelling lengths of every distinct
/// key. The honest per-arena estimate can never be below this.
fn vocabulary_bytes() -> usize {
    (0..(KEYS / KEYS_PER_RECORD))
        .flat_map(|r| {
            std::iter::once(format!("g{r}").len())
                .chain((0..KEYS_PER_RECORD).map(move |c| format!("k{r}_{c}").len()))
        })
        .sum()
}

/// No corpus key ever reaches the process-default arena.
fn assert_no_corpus_name_in_the_process_arena(label: &str) {
    for key in ["g0", "k0_0", "k57_321", "k99_999"] {
        assert!(
            Interner::global().lookup(key).is_none(),
            "{label}: corpus name {key} leaked into the process arena"
        );
    }
}

/// One pipeline run over the adversarial corpus into `interner`: the
/// rendered shape and the record count.
fn pipeline(source: Source<'_>, jobs: usize, interner: &Interner) -> (String, usize) {
    let config = IngestConfig {
        jobs,
        chunk_size: 4096,
        ..IngestConfig::new(StreamFormat::Json)
    };
    let summary = run(source, &config, interner)
        .expect("adversarial corpus ingests")
        .summary;
    (summary.shape.to_string(), summary.records)
}

/// Runs `drive` against a fresh corpus arena and asserts the peak /
/// reclaim contract around it. Returns the shape rendering so callers
/// can compare drivers against each other.
fn assert_bounded<Drive>(label: &str, drive: Drive) -> String
where
    Drive: Fn(&Interner) -> (String, usize),
{
    let arena = Interner::new();
    let id = arena.id();
    let (rendered, records) = drive(&arena);
    assert_eq!(records, KEYS / KEYS_PER_RECORD, "{label}: record count");
    let peak = arena.stats();
    assert!(
        peak.symbols >= KEYS,
        "{label}: expected >= {KEYS} distinct names in the corpus arena, got {}",
        peak.symbols
    );
    assert!(
        peak.retained_bytes >= vocabulary_bytes(),
        "{label}: honest estimate {} can't be below the raw vocabulary {}",
        peak.retained_bytes,
        vocabulary_bytes()
    );
    assert!(
        peak.retained_bytes <= ARENA_BUDGET,
        "{label}: corpus arena retains {} bytes, over the {} budget",
        peak.retained_bytes,
        ARENA_BUDGET
    );
    drop(arena);
    assert!(
        !intern::is_live(id),
        "{label}: the corpus arena outlived its last handle"
    );
    assert_no_corpus_name_in_the_process_arena(label);
    rendered
}

#[test]
fn one_shot_driver_bounds_peak_interner_bytes() {
    assert_bounded("one-shot", |interner| {
        let values =
            tfd_json::parse_many_values_in(corpus(), &tfd_json::ParserOptions::default(), interner)
                .expect("adversarial corpus parses");
        let shape = infer_many(&values, &InferOptions::json());
        (shape.to_string(), values.len())
    });
}

#[test]
fn streaming_driver_bounds_peak_interner_bytes() {
    assert_bounded("streaming", |interner| {
        pipeline(Source::Reader(Box::new(corpus().as_bytes())), 1, interner)
    });
}

#[test]
fn sharded_driver_bounds_peak_interner_bytes() {
    assert_bounded("sharded", |interner| {
        pipeline(Source::Bytes(corpus().as_bytes()), 4, interner)
    });
}

#[test]
fn reader_driver_bounds_peak_interner_bytes() {
    assert_bounded("reader", |interner| {
        pipeline(Source::Reader(Box::new(corpus().as_bytes())), 4, interner)
    });
}

#[test]
fn sequential_corpora_cost_one_arena_not_k() {
    let mut peaks = Vec::new();
    for k in 0..3 {
        let arena = Interner::new();
        let id = arena.id();
        let (_, records) = pipeline(Source::Bytes(corpus().as_bytes()), 2, &arena);
        assert_eq!(records, KEYS / KEYS_PER_RECORD);
        peaks.push(arena.stats().retained_bytes);
        drop(arena);
        // After *every* corpus its arena is gone: the footprint over k
        // corpora is one arena at a time, never k.
        assert!(!intern::is_live(id), "corpus {k}: arena outlived its run");
        assert_no_corpus_name_in_the_process_arena(&format!("corpus {k}"));
    }
    assert!(
        peaks.iter().all(|&p| p == peaks[0]),
        "peaks vary: {peaks:?}"
    );
}

#[test]
fn drivers_agree_and_match_the_global_arena_byte_for_byte() {
    let sharded = Interner::new();
    let reader = Interner::new();
    let oneshot = Interner::new();
    let (a, ra) = pipeline(Source::Bytes(corpus().as_bytes()), 4, &sharded);
    let (b, rb) = pipeline(Source::Reader(Box::new(corpus().as_bytes())), 4, &reader);
    let values =
        tfd_json::parse_many_values_in(corpus(), &tfd_json::ParserOptions::default(), &oneshot)
            .expect("adversarial corpus parses");
    assert_eq!((ra, rb), (values.len(), values.len()));
    assert_eq!(a, b);
    assert_eq!(a, infer_many(&values, &InferOptions::json()).to_string());
    // The long-lived arena the CLI migrates survivors into (the process
    // arena there; a scoped stand-in here, so this suite never parks
    // corpus names in the real one): the migrated shape compares equal
    // — cross-arena `Name` equality is content equality — and renders
    // identically.
    let config = IngestConfig {
        jobs: 4,
        chunk_size: 4096,
        ..IngestConfig::new(StreamFormat::Json)
    };
    let mut shape = run(Source::Bytes(corpus().as_bytes()), &config, &sharded)
        .expect("adversarial corpus ingests")
        .summary
        .shape;
    let long_lived = Interner::new();
    let before = shape.clone();
    shape.reintern(&long_lived);
    assert_eq!(shape, before);
    assert_eq!(shape.to_string(), a);
}

#[test]
fn fingerprint_is_arena_stable() {
    let corpus = br#"{"user": {"name": "jan", "tags": ["a"]}, "id": 7}
{"user": {"name": "eva", "tags": []}, "id": 9}
"#;
    let arena_a = Interner::new();
    let arena_b = Interner::new();
    let long_lived = Interner::new();
    let shape = |jobs: usize, arena: &Interner| -> Shape {
        let config = IngestConfig {
            jobs,
            chunk_size: 16,
            ..IngestConfig::new(StreamFormat::Json)
        };
        run(Source::Bytes(corpus), &config, arena)
            .expect("valid corpus")
            .summary
            .shape
    };
    let a = shape(1, &arena_a);
    let b = shape(3, &arena_b);
    let mut g = a.clone();
    g.reintern(&long_lived);
    let fp = |s: Shape| fingerprint(&GlobalShape::plain(s));
    let (fa, fb, fg) = (fp(a), fp(b), fp(g));
    assert_eq!(fa, fb, "fingerprint differs between two scoped arenas");
    assert_eq!(
        fa, fg,
        "fingerprint differs after migrating to a long-lived arena"
    );
}
