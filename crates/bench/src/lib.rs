//! # tfd-bench — shared workload generators for the benchmark harness
//!
//! Synthetic corpora used by the Criterion benches and the table/figure
//! regeneration binaries (see EXPERIMENTS.md). All generators are
//! deterministic in their seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tfd_core::engine;
use tfd_core::stream::StreamFormat;
use tfd_core::Shape;
use tfd_value::corpus::{generate_corpus, CorpusConfig};
use tfd_value::Value;

/// Standard corpus sizes swept by the B2 inference benchmark.
pub const SAMPLE_COUNTS: [usize; 4] = [1, 10, 100, 1000];

/// Standard nesting depths swept by the B2 inference benchmark.
pub const DEPTHS: [usize; 3] = [2, 4, 6];

/// A deterministic corpus of API-response-like JSON documents.
pub fn api_corpus(seed: u64, n: usize, depth: usize) -> Vec<Value> {
    let config = CorpusConfig {
        max_depth: depth,
        ..CorpusConfig::default()
    };
    generate_corpus(seed, n, &config)
}

/// A messy corpus exhibiting the §2.3 real-world problems: missing
/// fields, nulls, and numbers encoded as strings.
pub fn messy_corpus(seed: u64, n: usize) -> Vec<Value> {
    let config = CorpusConfig {
        missing_field_prob: 0.3,
        null_prob: 0.15,
        stringly_number_prob: 0.2,
        ..CorpusConfig::default()
    };
    generate_corpus(seed, n, &config)
}

/// A wide, flat table (CSV-like) with `rows` rows and `width` columns.
pub fn table(seed: u64, rows: usize, width: usize) -> Value {
    tfd_value::corpus::generate_table(seed, rows, width)
}

/// Serializes a corpus to JSON text for parser benchmarks.
pub fn to_json_texts(corpus: &[Value]) -> Vec<String> {
    corpus
        .iter()
        .map(|v| tfd_json::to_json_string(&tfd_json::Json::from_value(v)))
        .collect()
}

/// JSON text for a row-shaped table: `rows` flat records of `width`
/// fields — the pipeline-benchmark workload.
pub fn json_rows_text(seed: u64, rows: usize, width: usize) -> String {
    to_json_texts(&[table(seed, rows, width)]).remove(0)
}

/// JSON-lines text for a row-shaped table: the same `rows` flat records
/// as [`json_rows_text`], one document per line — the streaming
/// workload (each line is one record for `tfd_core::engine::run`, and
/// `tfd_json::parse_many_values` is its one-shot twin).
pub fn json_lines_text(seed: u64, rows: usize, width: usize) -> String {
    let table = table(seed, rows, width);
    let rows = table.elements().expect("generate_table yields a list");
    let mut out = String::new();
    for row in rows {
        out.push_str(&tfd_json::to_json_string(&tfd_json::Json::from_value(row)));
        out.push('\n');
    }
    out
}

/// Concatenated single-`<row/>` XML documents with the same per-row
/// content as [`xml_rows_text`] — the streaming workload (each root
/// element is one record for `tfd_core::engine::run`, and
/// `tfd_xml::parse_many_values` is its one-shot twin).
pub fn xml_docs_text(rows: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for i in 0..rows {
        let _ = writeln!(
            out,
            "<row id=\"{i}\" name=\"item-{i}\" flag=\"true\"><v>{}</v></row>",
            i * 3
        );
    }
    out
}

/// XML text for a row-shaped table (attributes + one nested element per
/// row), sized like [`json_rows_text`].
pub fn xml_rows_text(rows: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("<table>");
    for i in 0..rows {
        let _ = write!(
            out,
            "<row id=\"{i}\" name=\"item-{i}\" flag=\"true\"><v>{}</v></row>",
            i * 3
        );
    }
    out.push_str("</table>");
    out
}

/// CSV text for a row-shaped table, sized like [`json_rows_text`].
pub fn csv_rows_text(rows: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("id,name,score,date,flag\n");
    for i in 0..rows {
        let _ = writeln!(out, "{i},item-{i},{}.5,2012-05-01,{}", i, i % 2);
    }
    out
}

// --- Format-generic parse→infer pipelines, shared by the pipeline
// --- bench and the baseline bin so both always measure the same code.
// --- Everything routes through `tfd_core::engine` — the exact layer
// --- the CLI's `--stream`/`--jobs` modes ship — so there is one
// --- pipeline definition for all three formats, not three copies.

/// Streams a corpus through [`engine::run`] from a reader in
/// [`DEFAULT_CHUNK_SIZE`](tfd_core::stream::DEFAULT_CHUNK_SIZE) reads
/// (the CLI `--stream` path), folding each record into the accumulator
/// and dropping it. The fold is lifted to the one-shot corpus shape.
pub fn stream_pipeline(format: StreamFormat, text: &str) -> Shape {
    pipeline(format, engine::Source::Reader(Box::new(text.as_bytes())), 1)
}

/// Parallel parse→infer over an in-memory corpus (the CLI `--jobs N`
/// path): the boundary scanner cuts the corpus into record bundles,
/// `jobs` workers parse+fold them, and the shapes join with `csh`.
pub fn parallel_pipeline(format: StreamFormat, text: &str, jobs: usize) -> Shape {
    pipeline(format, engine::Source::Bytes(text.as_bytes()), jobs)
}

/// One fail-fast run in a corpus arena; the schema-sized shape is
/// reinterned into the process arena before the corpus arena drops.
fn pipeline(format: StreamFormat, source: engine::Source<'_>, jobs: usize) -> Shape {
    let config = engine::IngestConfig {
        jobs,
        ..engine::IngestConfig::new(format)
    };
    let arena = tfd_value::Interner::new();
    let mut shape = engine::run(source, &config, &arena)
        .expect("bench corpus is valid")
        .summary
        .shape;
    shape.reintern(tfd_value::Interner::global());
    engine::wrap_corpus_shape_dyn(format, shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_deterministic() {
        assert_eq!(api_corpus(1, 5, 4), api_corpus(1, 5, 4));
        assert_eq!(messy_corpus(2, 5), messy_corpus(2, 5));
    }

    #[test]
    fn json_texts_parse_back() {
        for text in to_json_texts(&api_corpus(3, 5, 3)) {
            assert!(tfd_json::parse(&text).is_ok());
        }
    }

    #[test]
    fn streaming_workloads_match_their_oneshot_twins() {
        let jsonl = json_lines_text(3, 20, 8);
        let docs = tfd_json::parse_many_values(&jsonl).unwrap();
        assert_eq!(docs.len(), 20);
        assert_eq!(docs, table(3, 20, 8).elements().unwrap());

        let xml = xml_docs_text(20);
        assert_eq!(tfd_xml::parse_many_values(&xml).unwrap().len(), 20);
    }
}
