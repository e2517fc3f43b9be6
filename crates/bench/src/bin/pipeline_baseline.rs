//! Records the parse→infer pipeline baseline to a JSON file
//! (`BENCH_PR10.json` at the repository root when run from there).
//!
//! The same workloads as `benches/pipeline.rs`, measured with a fixed
//! protocol (best-of-N batches) so re-runs are comparable across PRs:
//!
//! ```text
//! cargo run --release -p tfd-bench --bin pipeline_baseline [out.json]
//! ```
//!
//! Beyond the per-entry rows/sec sweep, the file records:
//!
//! * the **parse-only speedup** of each byte-level front-end over its
//!   retained char-level `reference` twin (JSON tokens, XML char
//!   iterators, CSV per-char state machine) on the 100k-row corpus —
//!   the honesty number for the byte-level work of PR 1–2;
//! * the **streaming cost**: chunk-fed parse→infer (resumable scanner +
//!   `InferAccumulator` fold, `O(1 record)` peak memory) relative to the
//!   whole-buffer one-shot path on the same 100k-record sequences — the
//!   honesty number for the streaming work of PR 3 (target: within
//!   ~15%, i.e. ratio ≲ 1.15);
//! * the **SWAR scan speedup** (PR 4): the chunked `find_any3` scanner
//!   used by the CSV boundary scanner's unquoted-field fast path and the
//!   record splitter, against the byte-at-a-time loop it replaced, on a
//!   synthetic unquoted-cell buffer;
//! * the **parallel scaling** of the sharded driver (PR 5):
//!   `engine::run` at 1/2/4 worker threads on the 100k-row
//!   corpora, with the host's `available_parallelism` recorded alongside
//!   — the speedup is only meaningful relative to the cores the host
//!   actually has (a single-core container measures the sharding
//!   overhead, not the scaling; the differential suite, not this file,
//!   is what guarantees the parallel path's correctness);
//! * the **interner occupancy** before/after N sequential
//!   disjoint-vocabulary corpora, each in its own scoped arena (PR 8):
//!   the after figure matching the before figure is the memory-reclaim
//!   honesty number — the old global interner grew linearly in N;
//! * the **registry ingest** cost (PR 9): the 100k-row CSV corpus
//!   POSTed to an in-process `tfd serve` daemon over a loopback socket
//!   vs the same corpus through the in-process jobs-4 driver — the
//!   honest price of the HTTP + registry layer;
//! * the **scanner backend** (PR 10): which SIMD kernel set the runtime
//!   dispatcher picked on this host (`scanner_backend`), and the
//!   three-way scan race — the dispatched kernel vs the forced portable
//!   SWAR kernel vs the plain `position` loop — on the 100k-row CSV
//!   corpus;
//! * the **thread-scaling probe** (PR 10), next to `host_parallelism`:
//!   a fixed CPU-bound workload split across 1/2/4 threads, recording
//!   what this host can actually deliver — the ceiling against which
//!   `parallel_scaling_100k` must be read (a 1-core container cannot
//!   show a parallel win no matter how good the scheduler is).

use std::fmt::Write as _;
use std::time::Instant;
use tfd_bench::{
    csv_rows_text, json_lines_text, json_rows_text, parallel_pipeline, stream_pipeline,
    xml_docs_text, xml_rows_text,
};
use tfd_core::analyze::{diff_global, fingerprint, run_lints, CompatMode, LintConfig};
use tfd_core::{globalize_env, infer_many, infer_with, InferOptions, Shape, StreamFormat};

const SIZES: [usize; 3] = [10, 1_000, 100_000];

/// Best-of-batches seconds per iteration of `f`, budgeted by `budget_s`.
fn best_time<F: FnMut() -> Shape>(mut f: F, budget_s: f64) -> f64 {
    // Warm-up + calibration.
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().as_secs_f64();
    let batch = (0.02 / once.max(1e-9)).clamp(1.0, 10_000.0) as usize;
    let mut best = f64::INFINITY;
    let start = Instant::now();
    let mut runs = 0usize;
    while start.elapsed().as_secs_f64() < budget_s || runs < 3 {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        best = best.min(t.elapsed().as_secs_f64() / batch as f64);
        runs += 1;
    }
    best
}

struct Entry {
    id: String,
    rows: usize,
    seconds: f64,
}

impl Entry {
    fn rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.seconds
    }
}

/// Parse-only byte-vs-reference timing pair on the 100k-row corpus.
struct Speedup {
    format: &'static str,
    bytes_s: f64,
    reference_s: f64,
}

impl Speedup {
    fn ratio(&self) -> f64 {
        self.reference_s / self.bytes_s
    }
}

/// Streaming vs whole-buffer timing pair on a 100k-record sequence.
struct StreamCost {
    format: &'static str,
    stream_s: f64,
    oneshot_s: f64,
}

impl StreamCost {
    fn ratio(&self) -> f64 {
        self.stream_s / self.oneshot_s
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR10.json".to_owned());
    let mut entries: Vec<Entry> = Vec::new();
    let budget = 0.5;

    for rows in SIZES {
        let text = json_rows_text(3, rows, 8);
        let secs = best_time(
            || {
                infer_with(
                    &tfd_json::parse_value(&text).unwrap(),
                    &InferOptions::json(),
                )
            },
            budget,
        );
        entries.push(Entry {
            id: format!("pipeline/json/{rows}"),
            rows,
            seconds: secs,
        });

        let secs = best_time(
            || {
                infer_with(
                    &tfd_json::reference::parse(&text).unwrap().to_value(),
                    &InferOptions::json(),
                )
            },
            budget,
        );
        entries.push(Entry {
            id: format!("pipeline/json-reference/{rows}"),
            rows,
            seconds: secs,
        });
    }

    for rows in SIZES {
        let text = xml_rows_text(rows);
        let secs = best_time(
            || infer_with(&tfd_xml::parse_value(&text).unwrap(), &InferOptions::xml()),
            budget,
        );
        entries.push(Entry {
            id: format!("pipeline/xml/{rows}"),
            rows,
            seconds: secs,
        });

        let secs = best_time(
            || {
                infer_with(
                    &tfd_xml::reference::parse(&text).unwrap().to_value(),
                    &InferOptions::xml(),
                )
            },
            budget,
        );
        entries.push(Entry {
            id: format!("pipeline/xml-reference/{rows}"),
            rows,
            seconds: secs,
        });
    }

    for rows in SIZES {
        let text = csv_rows_text(rows);
        let secs = best_time(
            || infer_with(&tfd_csv::parse_value(&text).unwrap(), &InferOptions::csv()),
            budget,
        );
        entries.push(Entry {
            id: format!("pipeline/csv/{rows}"),
            rows,
            seconds: secs,
        });

        let secs = best_time(
            || {
                infer_with(
                    &tfd_csv::reference::parse(&text).unwrap().to_value(),
                    &InferOptions::csv(),
                )
            },
            budget,
        );
        entries.push(Entry {
            id: format!("pipeline/csv-reference/{rows}"),
            rows,
            seconds: secs,
        });
    }

    // Streaming vs whole-buffer, on per-record workloads.
    for rows in SIZES {
        let text = json_lines_text(3, rows, 8);
        let secs = best_time(
            || {
                let docs = tfd_json::parse_many_values(&text).unwrap();
                infer_many(&docs, &InferOptions::json())
            },
            budget,
        );
        entries.push(Entry {
            id: format!("pipeline/jsonl/{rows}"),
            rows,
            seconds: secs,
        });
        let secs = best_time(|| stream_pipeline(StreamFormat::Json, &text), budget);
        entries.push(Entry {
            id: format!("pipeline/jsonl-stream/{rows}"),
            rows,
            seconds: secs,
        });
    }

    for rows in SIZES {
        let text = xml_docs_text(rows);
        let secs = best_time(
            || {
                let docs = tfd_xml::parse_many_values(&text).unwrap();
                infer_many(&docs, &InferOptions::xml())
            },
            budget,
        );
        entries.push(Entry {
            id: format!("pipeline/xml-docs/{rows}"),
            rows,
            seconds: secs,
        });
        let secs = best_time(|| stream_pipeline(StreamFormat::Xml, &text), budget);
        entries.push(Entry {
            id: format!("pipeline/xml-stream/{rows}"),
            rows,
            seconds: secs,
        });
    }

    for rows in SIZES {
        let text = csv_rows_text(rows);
        let secs = best_time(|| stream_pipeline(StreamFormat::Csv, &text), budget);
        entries.push(Entry {
            id: format!("pipeline/csv-stream/{rows}"),
            rows,
            seconds: secs,
        });
    }

    // Streaming cost at 100k records: chunk-fed parse→infer relative to
    // the whole-buffer one-shot on the same record sequence, taken from
    // the entries just measured (one measurement, one story).
    let secs_of = |id: &str| -> f64 {
        entries
            .iter()
            .find(|e| e.id == id)
            .unwrap_or_else(|| panic!("missing entry {id}"))
            .seconds
    };
    let stream_costs = [
        StreamCost {
            format: "json",
            stream_s: secs_of("pipeline/jsonl-stream/100000"),
            oneshot_s: secs_of("pipeline/jsonl/100000"),
        },
        StreamCost {
            format: "xml",
            stream_s: secs_of("pipeline/xml-stream/100000"),
            oneshot_s: secs_of("pipeline/xml-docs/100000"),
        },
        StreamCost {
            format: "csv",
            stream_s: secs_of("pipeline/csv-stream/100000"),
            oneshot_s: secs_of("pipeline/csv/100000"),
        },
    ];

    // Parallel scaling: the sharded driver at 1/2/4 workers on the
    // 100k-record corpora. Honesty note: the ratios are measured on THIS
    // host — `host_parallelism` says how many cores it had. On one core
    // the jobs-4 ratio records the sharding overhead (expect ≈1.0x); the
    // ≥2x multicore win requires ≥4 real cores. The differential suite
    // (tests/parallel_agreement.rs), not this file, guarantees the
    // parallel path's correctness.
    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);

    // Thread-scaling probe: a fixed CPU-bound workload (no memory
    // traffic, no locks) split evenly across 1/2/4 threads. This is the
    // hardware ceiling for any parallel speedup below — if the probe
    // cannot beat 1.0x, neither can the sharded driver, and the
    // `parallel_scaling_100k` ratios measure scheduling overhead, not
    // scaling.
    fn spin(iters: u64) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..iters {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .rotate_left(13)
                .wrapping_add(1);
        }
        x
    }
    let probe = |threads: usize| -> f64 {
        const TOTAL: u64 = 64_000_000;
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| std::hint::black_box(spin(TOTAL / threads as u64)));
                }
            });
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let (probe1_s, probe2_s, probe4_s) = (probe(1), probe(2), probe(4));
    struct ParScale {
        format: &'static str,
        jobs1_s: f64,
        jobs2_s: f64,
        jobs4_s: f64,
    }
    impl ParScale {
        fn speedup4(&self) -> f64 {
            self.jobs1_s / self.jobs4_s
        }
    }
    let par_corpora = [
        (StreamFormat::Json, json_lines_text(3, 100_000, 8), "json"),
        (StreamFormat::Xml, xml_docs_text(100_000), "xml"),
        (StreamFormat::Csv, csv_rows_text(100_000), "csv"),
    ];
    let par_scales: Vec<ParScale> = par_corpora
        .iter()
        .map(|(format, text, name)| ParScale {
            format: name,
            jobs1_s: best_time(|| parallel_pipeline(*format, text, 1), budget),
            jobs2_s: best_time(|| parallel_pipeline(*format, text, 2), budget),
            jobs4_s: best_time(|| parallel_pipeline(*format, text, 4), budget),
        })
        .collect();

    // Parse-only speedups of each byte-level front-end over its retained
    // char-level reference, on the largest corpus. (`Shape::Bottom` keeps
    // `best_time`'s signature; only the parse is timed.)
    let json_text = json_rows_text(3, 100_000, 8);
    let xml_text = xml_rows_text(100_000);
    let csv_text = csv_rows_text(100_000);
    let speedups = [
        Speedup {
            format: "json",
            bytes_s: best_time(
                || {
                    tfd_json::parse_value(&json_text).unwrap();
                    Shape::Bottom
                },
                budget,
            ),
            reference_s: best_time(
                || {
                    tfd_json::reference::parse(&json_text).unwrap().to_value();
                    Shape::Bottom
                },
                budget,
            ),
        },
        Speedup {
            format: "xml",
            bytes_s: best_time(
                || {
                    tfd_xml::parse_value(&xml_text).unwrap();
                    Shape::Bottom
                },
                budget,
            ),
            reference_s: best_time(
                || {
                    tfd_xml::reference::parse(&xml_text).unwrap().to_value();
                    Shape::Bottom
                },
                budget,
            ),
        },
        Speedup {
            format: "csv",
            bytes_s: best_time(
                || {
                    tfd_csv::parse_value(&csv_text).unwrap();
                    Shape::Bottom
                },
                budget,
            ),
            reference_s: best_time(
                || {
                    tfd_csv::reference::parse(&csv_text).unwrap().to_value();
                    Shape::Bottom
                },
                budget,
            ),
        },
    ];

    // The CSV unquoted-field scan on the *actual* 100k-row pipeline
    // corpus (realistic cell lengths, not a synthetic pathology), four
    // ways: the runtime-dispatched kernel the hot paths now use
    // (AVX2/SSE2/NEON where the host has them), the same entry point
    // forced onto the portable SWAR kernel, the plain bounded
    // `position` loop (which LLVM autovectorizes — the honest
    // near-peer), and a replica of the pre-PR4 inner loop, whose
    // per-byte `starts_with` check defeated vectorization. Each
    // iteration hops special-to-special across the whole corpus.
    let scan_buf: Vec<u8> = csv_rows_text(100_000).into_bytes();
    fn walk(buf: &[u8], find: impl Fn(&[u8]) -> Option<usize>) -> usize {
        let mut i = 0usize;
        let mut hits = 0usize;
        while i < buf.len() {
            match find(&buf[i..]) {
                Some(off) => {
                    i += off + 1;
                    hits += 1;
                }
                None => break,
            }
        }
        hits
    }
    /// The pre-PR4 field scan: byte-at-a-time with a `starts_with`
    /// delimiter probe on every candidate byte.
    fn old_loop(h: &[u8], delim: &[u8]) -> Option<usize> {
        let d0 = delim[0];
        let mut j = 0usize;
        while j < h.len() {
            let x = h[j];
            if x == b'\n' || x == b'\r' || (x == d0 && h[j..].starts_with(delim)) {
                return Some(j);
            }
            j += 1;
        }
        None
    }
    let scanner_backend = tfd_value::scan::backend_name();
    let scan_dispatch_s = best_time(
        || {
            std::hint::black_box(walk(&scan_buf, |h| {
                tfd_csv::scan::find_any3(h, b',', b'\n', b'\r')
            }));
            Shape::Bottom
        },
        budget,
    );
    assert!(
        tfd_value::scan::force_backend("swar"),
        "the portable kernel is always available"
    );
    let scan_swar_s = best_time(
        || {
            std::hint::black_box(walk(&scan_buf, |h| {
                tfd_csv::scan::find_any3(h, b',', b'\n', b'\r')
            }));
            Shape::Bottom
        },
        budget,
    );
    assert!(tfd_value::scan::force_backend("auto"));

    // The same three-way race on a sparse buffer — one special byte
    // every ~250 bytes, the shape of quoted blobs and long JSON
    // strings. On realistic short-field CSV the 16-byte scalar probe
    // in the public wrappers swallows almost every hop before any
    // kernel runs, so the dispatch comparison above mostly measures
    // call overhead; this buffer is where the wide kernels do the
    // actual scanning.
    let sparse_buf: Vec<u8> = (0..4_000_000usize)
        .map(|i| if i % 251 == 250 { b',' } else { b'x' })
        .collect();
    let sparse_dispatch_s = best_time(
        || {
            std::hint::black_box(walk(&sparse_buf, |h| {
                tfd_csv::scan::find_any3(h, b',', b'\n', b'\r')
            }));
            Shape::Bottom
        },
        budget,
    );
    assert!(tfd_value::scan::force_backend("swar"));
    let sparse_swar_s = best_time(
        || {
            std::hint::black_box(walk(&sparse_buf, |h| {
                tfd_csv::scan::find_any3(h, b',', b'\n', b'\r')
            }));
            Shape::Bottom
        },
        budget,
    );
    assert!(tfd_value::scan::force_backend("auto"));
    let sparse_naive_s = best_time(
        || {
            std::hint::black_box(walk(&sparse_buf, |h| {
                tfd_csv::scan::find_any3_naive(h, b',', b'\n', b'\r')
            }));
            Shape::Bottom
        },
        budget,
    );
    let scan_naive_s = best_time(
        || {
            std::hint::black_box(walk(&scan_buf, |h| {
                tfd_csv::scan::find_any3_naive(h, b',', b'\n', b'\r')
            }));
            Shape::Bottom
        },
        budget,
    );
    let scan_old_s = best_time(
        || {
            std::hint::black_box(walk(&scan_buf, |h| old_loop(h, b",")));
            Shape::Bottom
        },
        budget,
    );

    // Analysis overhead (PR 7): `tfd analyze`/`diff` run on the inferred
    // `GlobalShape`, not on the corpus, so one full analysis pass
    // (fingerprint + every lint + a Full-mode self-diff) should cost a
    // vanishing fraction of the ingest that produced the shape. Measured
    // against the 100k-row CSV parse→infer from the entries above.
    let analyzed = globalize_env(infer_with(
        &tfd_csv::parse_value(&csv_text).unwrap(),
        &InferOptions::csv(),
    ));
    let analyze_s = best_time(
        || {
            std::hint::black_box(fingerprint(&analyzed));
            std::hint::black_box(run_lints(&analyzed, &LintConfig::default()).len());
            std::hint::black_box(diff_global(&analyzed, &analyzed, CompatMode::Full).is_empty());
            Shape::Bottom
        },
        budget,
    );
    let ingest_s = secs_of("pipeline/csv/100000");

    // Interner occupancy (PR 8): N sequential corpora with pairwise
    // disjoint vocabularies, each inferred inside its own scoped arena
    // that drops when the corpus is done. The honest capacity-based
    // process figure after N corpora must match the figure before the
    // first — the pre-PR8 global interner grew by every corpus's
    // vocabulary and never gave it back.
    let occupancy_corpora = 8usize;
    let occupancy_keys = 2_000usize;
    let intern_before = tfd_value::intern::stats();
    let mut peak_corpus_arena_bytes = 0usize;
    for k in 0..occupancy_corpora {
        let mut text = String::new();
        for r in 0..occupancy_keys {
            let _ = writeln!(text, "{{\"corpus{k}_key{r}\": {r}}}");
        }
        let arena = tfd_value::Interner::new();
        let summary = tfd_core::engine::infer_slice_dyn_in(
            StreamFormat::Json,
            text.as_bytes(),
            &InferOptions::json(),
            2,
            &arena,
        )
        .expect("occupancy corpus is well-formed");
        peak_corpus_arena_bytes = peak_corpus_arena_bytes.max(arena.stats().retained_bytes);
        std::hint::black_box(summary.records);
    }
    let intern_after = tfd_value::intern::stats();

    // Registry ingest over the wire (PR 9): the 100k-row CSV corpus
    // POSTed to an in-process `tfd serve` daemon on a loopback socket
    // (connection + HTTP framing + recovery driver + absorb under the
    // tenant lock), against the same corpus through the in-process
    // jobs-4 driver. The ratio is the honest cost of putting the
    // registry between a client and the engine; re-ingesting is a
    // no-op join (Lemma 1), so repeated iterations measure the steady
    // state, not shape growth.
    let serve_handle = tfd_serve::Server::bind("127.0.0.1:0", tfd_serve::ServeConfig::default())
        .expect("bind loopback")
        .spawn()
        .expect("spawn server");
    let serve_addr = serve_handle.addr();
    let serve_corpus = csv_rows_text(100_000);
    let serve_ingest_s = best_time(
        || {
            let r = tfd_serve::request(
                serve_addr,
                "POST",
                "/v1/bench/ingest?format=csv&jobs=4",
                Some(("text/csv", serve_corpus.as_bytes())),
            )
            .expect("ingest request");
            assert_eq!(r.status, 200, "{}", r.text());
            Shape::Bottom
        },
        budget,
    );
    let serve_inproc_s = best_time(
        || parallel_pipeline(StreamFormat::Csv, &serve_corpus, 4),
        budget,
    );
    serve_handle.stop();

    let mut json = String::from("{\n  \"benchmark\": \"pipeline parse+infer (rows/sec)\",\n");
    let _ = writeln!(
        json,
        "  \"protocol\": \"best-of-batches, {budget}s budget per entry\","
    );
    json.push_str("  \"parse_speedup_vs_reference\": {\n");
    for (i, s) in speedups.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{}\": {{\"bytes_path_s\": {:e}, \"char_path_s\": {:e}, \"speedup\": {:.2}}}{}",
            s.format,
            s.bytes_s,
            s.reference_s,
            s.ratio(),
            if i + 1 < speedups.len() { "," } else { "" }
        );
    }
    json.push_str("  },\n");
    json.push_str("  \"streaming_vs_oneshot_100k\": {\n");
    for (i, s) in stream_costs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{}\": {{\"stream_s\": {:e}, \"oneshot_s\": {:e}, \"ratio\": {:.3}}}{}",
            s.format,
            s.stream_s,
            s.oneshot_s,
            s.ratio(),
            if i + 1 < stream_costs.len() { "," } else { "" }
        );
    }
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"host_parallelism\": {host_parallelism},");
    let _ = writeln!(
        json,
        "  \"thread_scaling_probe\": {{\"threads1_s\": {:e}, \"threads2_s\": {:e}, \"threads4_s\": {:e}, \"speedup_threads4\": {:.2}}},",
        probe1_s,
        probe2_s,
        probe4_s,
        probe1_s / probe4_s
    );
    let _ = writeln!(json, "  \"scanner_backend\": \"{scanner_backend}\",");
    json.push_str("  \"parallel_scaling_100k\": {\n");
    for (i, p) in par_scales.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{}\": {{\"jobs1_s\": {:e}, \"jobs2_s\": {:e}, \"jobs4_s\": {:e}, \"speedup_jobs4\": {:.2}}}{}",
            p.format,
            p.jobs1_s,
            p.jobs2_s,
            p.jobs4_s,
            p.speedup4(),
            if i + 1 < par_scales.len() { "," } else { "" }
        );
    }
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"csv_scan_backends\": {{\"buffer_bytes\": {}, \"backend\": \"{scanner_backend}\", \"dispatch_s\": {:e}, \"swar_s\": {:e}, \"position_s\": {:e}, \"old_loop_s\": {:e}, \"dispatch_vs_position\": {:.2}, \"dispatch_vs_swar\": {:.2}, \"dispatch_vs_old\": {:.2}}},",
        scan_buf.len(),
        scan_dispatch_s,
        scan_swar_s,
        scan_naive_s,
        scan_old_s,
        scan_naive_s / scan_dispatch_s,
        scan_swar_s / scan_dispatch_s,
        scan_old_s / scan_dispatch_s
    );
    let _ = writeln!(
        json,
        "  \"sparse_scan_backends\": {{\"buffer_bytes\": {}, \"gap_bytes\": 250, \"backend\": \"{scanner_backend}\", \"dispatch_s\": {:e}, \"swar_s\": {:e}, \"position_s\": {:e}, \"dispatch_vs_position\": {:.2}, \"dispatch_vs_swar\": {:.2}}},",
        sparse_buf.len(),
        sparse_dispatch_s,
        sparse_swar_s,
        sparse_naive_s,
        sparse_naive_s / sparse_dispatch_s,
        sparse_swar_s / sparse_dispatch_s
    );
    let _ = writeln!(
        json,
        "  \"analyze_overhead\": {{\"csv_100k_ingest_s\": {:e}, \"analysis_pass_s\": {:e}, \"fraction_of_ingest\": {:.5}}},",
        ingest_s,
        analyze_s,
        analyze_s / ingest_s
    );
    let _ = writeln!(
        json,
        "  \"interner_occupancy\": {{\"sequential_corpora\": {}, \"distinct_keys_per_corpus\": {}, \"retained_bytes_before\": {}, \"retained_bytes_after\": {}, \"peak_corpus_arena_bytes\": {}}},",
        occupancy_corpora,
        occupancy_keys,
        intern_before.retained_bytes,
        intern_after.retained_bytes,
        peak_corpus_arena_bytes
    );
    let _ = writeln!(
        json,
        "  \"serve_ingest\": {{\"csv_rows\": 100000, \"corpus_bytes\": {}, \"http_ingest_s\": {:e}, \"inprocess_jobs4_s\": {:e}, \"overhead_ratio\": {:.3}, \"rows_per_sec\": {:.0}}},",
        serve_corpus.len(),
        serve_ingest_s,
        serve_inproc_s,
        serve_ingest_s / serve_inproc_s,
        100_000f64 / serve_ingest_s
    );
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"id\": \"{}\", \"rows\": {}, \"seconds_per_iter\": {:e}, \"rows_per_sec\": {:.0}}}{}",
            e.id,
            e.rows,
            e.seconds,
            e.rows_per_sec(),
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write baseline file");
    println!("{json}");
    println!("baseline written to {out_path}");
    for s in &speedups {
        println!(
            "{} parse speedup (bytes vs chars): {:.2}x",
            s.format,
            s.ratio()
        );
    }
    for s in &stream_costs {
        println!(
            "{} streaming cost (chunk-fed vs whole-buffer parse→infer): {:.3}x",
            s.format,
            s.ratio()
        );
    }
    println!(
        "csv unquoted scan ({scanner_backend} dispatch): {:.2}x vs plain position, {:.2}x vs forced swar, {:.2}x vs the pre-PR4 loop",
        scan_naive_s / scan_dispatch_s,
        scan_swar_s / scan_dispatch_s,
        scan_old_s / scan_dispatch_s
    );
    println!(
        "sparse scan, 250-byte gaps ({scanner_backend} dispatch): {:.2}x vs plain position, {:.2}x vs forced swar",
        sparse_naive_s / sparse_dispatch_s,
        sparse_swar_s / sparse_dispatch_s
    );
    println!(
        "thread-scaling probe (host has {} core(s)): 4 threads / 1 thread = {:.2}x",
        host_parallelism,
        probe1_s / probe4_s
    );
    for p in &par_scales {
        println!(
            "{} parallel scaling (host has {} core(s)): jobs4/jobs1 = {:.2}x",
            p.format,
            host_parallelism,
            p.speedup4()
        );
    }
    println!(
        "analysis pass (fingerprint + lints + self-diff): {:.5}x of the 100k-row csv ingest",
        analyze_s / ingest_s
    );
    println!(
        "interner occupancy over {} disjoint corpora: {} bytes before, {} after (peak corpus arena {} bytes)",
        occupancy_corpora,
        intern_before.retained_bytes,
        intern_after.retained_bytes,
        peak_corpus_arena_bytes
    );
    println!(
        "registry ingest (100k-row csv over loopback http): {:.3}x of the in-process jobs-4 driver ({:.0} rows/sec)",
        serve_ingest_s / serve_inproc_s,
        100_000f64 / serve_ingest_s
    );
}
