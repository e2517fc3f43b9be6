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
//! The parsers intern through a per-parse name memo; the last tests
//! check that a parse through it hands out exactly the arena's own
//! names (pointer-equal to [`Interner::intern`] of the same spelling)
//! and leaves the arena's stats exactly as direct interning would.
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

/// Every record and field name in `v` that the parser interned (the
/// `•` body name is the process arena's), in document order.
fn names_in(v: &tfd_value::Value, out: &mut Vec<tfd_value::Name>) {
    let mut push = |n: tfd_value::Name| {
        if n != tfd_value::BODY_NAME {
            out.push(n);
        }
    };
    match v {
        tfd_value::Value::Record { name, fields } => {
            push(*name);
            for f in fields {
                push(f.name);
            }
            fields.iter().for_each(|f| names_in(&f.value, out));
        }
        tfd_value::Value::List(items) => items.iter().for_each(|i| names_in(i, out)),
        _ => {}
    }
}

/// Checks that the names a parse into `parsed_into` produced are the
/// arena's own, and that interning their spellings straight into a
/// fresh arena, in first-seen order, leaves it with the same stats.
fn assert_memo_transparent(label: &str, values: &[tfd_value::Value], parsed_into: &Interner) {
    let mut names = Vec::new();
    values.iter().for_each(|v| names_in(v, &mut names));
    assert!(!names.is_empty(), "{label}: no names parsed");
    let direct = Interner::new();
    for n in &names {
        let own = parsed_into.intern(n.as_str());
        assert!(
            std::ptr::eq(n.as_str(), own.as_str()) && n.arena_id() == own.arena_id(),
            "{label}: {n:?} is not the arena's own name"
        );
        direct.intern(n.as_str());
    }
    assert_eq!(
        parsed_into.stats(),
        direct.stats(),
        "{label}: the memo changed the arena's footprint"
    );
}

#[test]
fn json_keys_through_the_memo_are_the_arenas_names() {
    // Escaped keys spell the same name as their plain twins, and the
    // FNV-colliding spellings share a content hash (and so a memo slot).
    let colliding = [
        "costarring",
        "liquid",
        "declinate",
        "macallums",
        "altarage",
        "zinke",
    ];
    let mut text = String::new();
    for i in 0..200 {
        text.push_str(&format!(r#"{{"a\u0062": {i}, "ab": 1, "\u010daj": "x""#));
        for (j, k) in colliding.iter().enumerate() {
            text.push_str(&format!(r#", "{k}": {{"n{}": {j}}}"#, (i + j) % 3));
        }
        text.push_str("}\n");
    }
    let arena = Interner::new();
    let values = tfd_json::parse_many_values_in(&text, &Default::default(), &arena).unwrap();
    let tfd_value::Value::Record { fields, .. } = &values[7] else {
        panic!("a record")
    };
    assert_eq!(fields[0].name.as_str(), "ab");
    assert!(std::ptr::eq(
        fields[0].name.as_str(),
        fields[1].name.as_str()
    ));
    assert_eq!(fields[2].name.as_str(), "čaj");
    assert_memo_transparent("json", &values, &arena);
    assert_eq!(arena.stats().symbols, 2 + colliding.len() + 3);
}

#[test]
fn xml_names_through_the_memo_are_the_arenas_names() {
    let doc = r#"<čaj množství="1" druh="zelený"><číslo>2</číslo><Ωmega a="b"/></čaj>"#;
    let text: String = (0..100).map(|_| format!("{doc}\n")).collect();
    let arena = Interner::new();
    let values =
        tfd_xml::parse_many_values_in(&text, &Default::default(), &Default::default(), &arena)
            .unwrap();
    assert_eq!(values.len(), 100);
    assert_memo_transparent("xml", &values, &arena);
    assert!(arena.lookup("množství").is_some() && arena.lookup("Ωmega").is_some());
}

#[test]
fn a_vocabulary_larger_than_the_memo_stays_exact() {
    // 10k UUID-style keys, each used by several records of one bundle:
    // the memo fills, stops admitting, and every later spelling goes to
    // the arena, which must still see each spelling exactly once.
    let keys: Vec<String> = (0..10_000)
        .map(|k| format!("{k:08x}-0000-4000-8000-{k:012x}"))
        .collect();
    let mut text = String::new();
    for i in 0..30_000 {
        let fields: Vec<String> = (0..4)
            .map(|j| format!(r#""{}": {i}"#, keys[(i * 4 + j) % keys.len()]))
            .collect();
        text.push_str(&format!("{{{}}}\n", fields.join(", ")));
    }
    let arena = Interner::new();
    let values = tfd_json::parse_many_values_in(&text, &Default::default(), &arena).unwrap();
    assert_memo_transparent("uuid", &values, &arena);
    assert_eq!(arena.stats().symbols, keys.len());
}
