//! Corpus-level parallelism: many inputs, one schema, one pipeline per
//! input.
//!
//! The paper's multi-sample inference is a semilattice fold (Fig. 3:
//! `σi = csh(σi−1, S(di))`), so a many-file corpus is embarrassingly
//! parallel at the *file* level too — coarser-grained than the record
//! bundles [`run`] deals out, with zero coordination while a file is in
//! flight. [`infer_sources_parallel`] runs one full pipeline per input
//! on a small pool of file workers, each folding into its own scoped
//! name arena (a file's whole data vocabulary is reclaimed when its
//! arena drops; only the schema-sized survivor shape is reinterned by
//! the caller). Results
//! come back in source order, so the caller's `csh` join — and its
//! first-error-wins abort — reproduce the sequential per-file loop
//! byte for byte.
//!
//! The `jobs` budget spans both levels: `min(jobs, files)` file workers
//! run concurrently, and each passes the leftover factor to its file's
//! own [`run`], so `--jobs 8` over two files runs two pipelines of four
//! workers instead of one pipeline of eight.

use crate::engine::{run, IngestConfig, Source};
use crate::infer::InferOptions;
use crate::recover::{Recovered, RecoveryPolicy, PARSER_STACK_BYTES};
use crate::stream::{StreamError, StreamFormat};
use std::sync::atomic::{AtomicUsize, Ordering};
use tfd_value::Interner;

/// One input of a many-file corpus, plus how to get at its bytes.
#[derive(Debug, Clone, Copy)]
pub enum CorpusSource<'a> {
    /// Stream the file at `path` in bounded memory, in `chunk_size`
    /// reads (the `--stream` pipeline).
    Stream(&'a str),
    /// Read the file at `path` whole and bundle it in memory (the
    /// `--jobs` pipeline).
    File(&'a str),
    /// A corpus already in memory (the registry's ingest body).
    Bytes(&'a [u8]),
}

/// One source's fold: the recovered summary plus the scoped arena its
/// shape's names live in. Callers [`reintern`](crate::Shape::reintern)
/// the schema-sized shape into a longer-lived arena, then drop the
/// `arena` field to reclaim the file's data vocabulary.
#[derive(Debug)]
pub struct FileSummary {
    /// The per-source fold and its skip report.
    pub recovered: Recovered,
    /// The scoped name arena the fold interned into.
    pub arena: Interner,
}

/// Runs [`run`] once per source on `min(jobs, sources)` file workers,
/// returning per-source results **in source order**.
///
/// Every source gets a fresh scoped [`Interner`], created here in
/// source order before any worker starts, so arena ids follow the
/// sources (as they do at one job) and not thread timing. Each worker
/// claims the next unclaimed source and runs the pipeline with the
/// remaining job budget (`jobs / workers`, at least 1) as that file's
/// inner parallelism. An unreadable file surfaces as
/// [`StreamError::Io`] in its slot; other sources still complete.
///
/// The join is the caller's: fold the summaries' shapes with
/// [`csh`](crate::csh) in source order (after reinterning), exactly as
/// the sequential per-file loop did.
#[allow(clippy::expect_used)] // checked invariant, documented at each site
pub fn infer_sources_parallel(
    sources: &[CorpusSource<'_>],
    config: &IngestConfig,
) -> Vec<Result<FileSummary, StreamError>> {
    let n = sources.len();
    let workers = config.jobs.max(1).min(n.max(1));
    // The leftover budget becomes each file's inner parallelism, so the
    // total worker count stays ≈ `jobs` across both levels.
    let inner = IngestConfig {
        jobs: (config.jobs.max(1) / workers).max(1),
        ..config.clone()
    };
    let arenas: Vec<Interner> = sources.iter().map(|_| Interner::new()).collect();
    if workers <= 1 {
        return sources
            .iter()
            .zip(arenas)
            .map(|(s, arena)| infer_source(s, &inner, arena))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<FileSummary, StreamError>>> = (0..n).map(|_| None).collect();
    let collected: Vec<(usize, Result<FileSummary, StreamError>)> = std::thread::scope(|scope| {
        let (next, inner, arenas) = (&next, &inner, &arenas);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                // A one-job file runs inline on this worker: give it a
                // parser's stack.
                std::thread::Builder::new()
                    .stack_size(PARSER_STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(src) = sources.get(i) else { break };
                            out.push((i, infer_source(src, inner, arenas[i].clone())));
                        }
                        out
                    })
                    .expect("spawn a file worker")
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("file worker panicked"))
            .collect()
    });
    for (i, r) in collected {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every source index claimed exactly once"))
        .collect()
}

/// One source through the pipeline, in its own fresh arena.
fn infer_source(
    source: &CorpusSource<'_>,
    config: &IngestConfig,
    arena: Interner,
) -> Result<FileSummary, StreamError> {
    let recovered = match *source {
        CorpusSource::Stream(path) => {
            let file = std::fs::File::open(path).map_err(StreamError::Io)?;
            run(Source::Reader(Box::new(file)), config, &arena)?
        }
        CorpusSource::File(path) => {
            let bytes = std::fs::read(path).map_err(StreamError::Io)?;
            run(Source::Bytes(&bytes), config, &arena)?
        }
        CorpusSource::Bytes(bytes) => run(Source::Bytes(bytes), config, &arena)?,
    };
    Ok(FileSummary { recovered, arena })
}

/// [`infer_sources_parallel`] over whole files read into memory — the
/// many-file corpus entry (`tfd infer a.json b.json --jobs N`).
pub fn infer_files_parallel(
    format: StreamFormat,
    paths: &[String],
    options: &InferOptions,
    policy: &RecoveryPolicy,
    jobs: usize,
) -> Vec<Result<FileSummary, StreamError>> {
    let sources: Vec<CorpusSource<'_>> = paths.iter().map(|p| CorpusSource::File(p)).collect();
    let config = IngestConfig {
        jobs,
        policy: *policy,
        options: options.clone(),
        ..IngestConfig::new(format)
    };
    infer_sources_parallel(&sources, &config)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::csh::csh;
    use crate::engine::wrap_corpus_shape_dyn;
    use crate::Shape;

    /// The rendered file-ordered fold of `infer_sources_parallel` over
    /// in-memory corpora (survivors reinterned into one arena, as the
    /// CLI does).
    fn fold(format: StreamFormat, corpora: &[&[u8]], jobs: usize) -> String {
        let sources: Vec<CorpusSource<'_>> =
            corpora.iter().map(|c| CorpusSource::Bytes(c)).collect();
        let config = IngestConfig {
            jobs,
            ..IngestConfig::new(format)
        };
        let survivors = Interner::new();
        let mut combined = Shape::Bottom;
        for r in infer_sources_parallel(&sources, &config) {
            let mut out = r.unwrap();
            out.recovered.summary.shape.reintern(&survivors);
            combined = csh(combined, out.recovered.summary.shape);
        }
        wrap_corpus_shape_dyn(format, combined).to_string()
    }

    #[test]
    fn parallel_files_match_sequential_fold() {
        let corpora: Vec<&[u8]> = vec![
            b"{\"a\": 1}\n{\"a\": 2, \"b\": true}\n",
            b"{\"a\": 2.5}\n{\"c\": null}\n",
            b"{\"a\": 1, \"d\": [1, 2]}\n",
        ];
        let want = fold(StreamFormat::Json, &corpora, 1);
        for jobs in [2, 3, 8] {
            assert_eq!(
                fold(StreamFormat::Json, &corpora, jobs),
                want,
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn csv_corpora_keep_file_order_in_the_join() {
        // csh appends record fields in first-encounter order, so a
        // wrong join order changes the rendered shape — the files'
        // disjoint columns make any reordering visible.
        let corpora: Vec<&[u8]> = vec![b"a,b\n1,2\n", b"c,a\n3,4\n", b"d\nx\n"];
        let want = fold(StreamFormat::Csv, &corpora, 1);
        for jobs in [2, 3, 16] {
            assert_eq!(fold(StreamFormat::Csv, &corpora, jobs), want, "jobs {jobs}");
        }
    }

    #[test]
    fn missing_file_errors_in_its_own_slot() {
        let paths = vec![
            "/nonexistent/definitely-missing.json".to_owned(),
            "/nonexistent/also-missing.json".to_owned(),
        ];
        let options = InferOptions::json();
        let results = infer_files_parallel(
            StreamFormat::Json,
            &paths,
            &options,
            &RecoveryPolicy::default(),
            4,
        );
        assert_eq!(results.len(), 2);
        for r in results {
            assert!(matches!(r, Err(StreamError::Io(_))));
        }
    }

    #[test]
    fn empty_source_list_is_empty() {
        assert!(infer_sources_parallel(&[], &IngestConfig::new(StreamFormat::Json)).is_empty());
    }
}
