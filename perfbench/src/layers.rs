//! The traced run: each layer timed from outside, through its public
//! entry points, on the workload's own inputs. Every figure is derived
//! from the spans ([`Tracer::self_seconds`]), as a median over
//! repetitions or requests.

use std::time::Instant;

use tfd_codegen::generate_global;
use tfd_core::analyze::fingerprint;
use tfd_core::engine::{
    infer_files_parallel, infer_options_dyn, infer_reader_parallel_dyn_in, infer_slice_dyn_in,
    parse_many_values_dyn_in,
};
use tfd_core::recover::infer_slice_policy_dyn_in;
use tfd_core::stream::DEFAULT_CHUNK_SIZE;
use tfd_core::{
    csh, globalize_env, CsvFormat, DataFormat, GlobalShape, InferAccumulator, JsonFormat,
    RecoveryPolicy, Shape, StreamFormat, XmlFormat,
};
use tfd_serve::{ProviderKind, Registry};
use tfd_value::{Interner, Value};

use crate::host::Host;
use crate::registry::{self, Daemon, Op};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workload::{codegen_options, Kind, Workload};
use crate::{batch, oracle, Metric, Outcome};

/// Repetitions of the per-corpus layers.
const REPS: usize = 5;
/// Calls per repetition of the shape-sized layers (globalize,
/// fingerprint, provider), which take microseconds each.
const SHAPE_CALLS: usize = 20;
/// Closed-loop HTTP ingests compared against the same in-process calls.
const OVERHEAD_INGESTS: usize = 30;
/// Trivial `GET fingerprint` requests, and the rate they are offered at.
const RTT_REQUESTS: usize = 200;
const RTT_RATE: f64 = 200.0;

/// Tallies checked operations.
#[derive(Default)]
struct Checks {
    attempted: usize,
    failed: usize,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

fn scan_count<F: DataFormat>(bytes: &[u8]) -> usize {
    let mut scanner = F::boundaries();
    let mut n = 0;
    F::scan(&mut scanner, bytes, &mut |_| n += 1);
    n
}

fn scan(format: StreamFormat, bytes: &[u8]) -> usize {
    match format {
        StreamFormat::Json => scan_count::<JsonFormat>(bytes),
        StreamFormat::Xml => scan_count::<XmlFormat>(bytes),
        StreamFormat::Csv => scan_count::<CsvFormat>(bytes),
    }
}

/// Counts gathered once, on the first repetition.
#[derive(Default)]
struct Counts {
    bytes: usize,
    records: usize,
    symbols: usize,
    retained_bytes: usize,
    widened: usize,
    skipped: usize,
}

/// One repetition of every per-corpus layer, each in its own span.
fn corpus_layers(
    w: &Workload,
    tracer: &mut Tracer,
    checks: &mut Checks,
    mut counts: Option<&mut Counts>,
) {
    for c in &w.corpora {
        let options = infer_options_dyn(c.format);
        let texts: Vec<&[u8]> = c.files.iter().map(|f| f.clean.as_bytes()).collect();

        let span = tracer.begin("scan");
        let cuts: usize = texts.iter().map(|t| scan(c.format, t)).sum();
        tracer.end(span);
        std::hint::black_box(cuts);

        let arenas: Vec<Interner> = texts.iter().map(|_| Interner::new()).collect();
        let span = tracer.begin("parse");
        let parsed: Vec<Result<Vec<Value>, _>> = c
            .files
            .iter()
            .zip(&arenas)
            .map(|(f, a)| parse_many_values_dyn_in(c.format, &f.clean, a))
            .collect();
        tracer.end(span);
        let values: Vec<Vec<Value>> = parsed.into_iter().map(Result::unwrap_or_default).collect();
        for (f, v) in c.files.iter().zip(&values) {
            checks.check(v.len() == f.spans.len(), || {
                format!("parse gave {} records, expected {}", v.len(), f.spans.len())
            });
        }

        let span = tracer.begin("fold");
        let folds: Vec<Shape> = values
            .iter()
            .map(|vs| {
                let mut acc = InferAccumulator::new(options.clone());
                vs.iter().for_each(|v| acc.push(v));
                acc.finish()
            })
            .collect();
        tracer.end(span);
        if c.injected() == 0 {
            let joined = folds.into_iter().fold(Shape::Bottom, csh);
            checks.check(joined == c.fold, || {
                format!("{} fold differs from the reference", w.name)
            });
        }

        if let Some(counts) = counts.as_deref_mut() {
            counts.bytes += texts.iter().map(|t| t.len()).sum::<usize>();
            counts.records += values.iter().map(Vec::len).sum::<usize>();
            for a in &arenas {
                let s = a.stats();
                counts.symbols += s.symbols;
                counts.retained_bytes += s.retained_bytes;
            }
            for vs in &values {
                let mut acc = InferAccumulator::new(options.clone());
                for v in vs {
                    let before = acc.shape().clone();
                    acc.push(v);
                    counts.widened += usize::from(*acc.shape() != before);
                }
            }
        }
        drop(values);
        drop(arenas);

        for (name, jobs) in [("engine.jobs1", 1), ("engine.jobs2", 2)] {
            let span = tracer.begin(name);
            let ok = texts
                .iter()
                .all(|t| infer_slice_dyn_in(c.format, t, &options, jobs, &Interner::new()).is_ok());
            tracer.end(span);
            checks.check(ok, || format!("{name} failed on {}", w.name));
        }
        let span = tracer.begin("engine.stream_jobs2");
        let ok = texts.iter().all(|t| {
            infer_reader_parallel_dyn_in(
                c.format,
                *t,
                &options,
                DEFAULT_CHUNK_SIZE,
                2,
                &Interner::new(),
            )
            .is_ok()
        });
        tracer.end(span);
        checks.check(ok, || "the streaming engine failed".into());

        let skip = RecoveryPolicy::skip();
        let fail_fast = RecoveryPolicy::default();
        let span = tracer.begin("recover.skip");
        let skipped: Option<usize> = c
            .files
            .iter()
            .map(|f| {
                infer_slice_policy_dyn_in(
                    c.format,
                    f.text().as_bytes(),
                    &options,
                    &skip,
                    1,
                    &Interner::new(),
                )
                .ok()
                .map(|r| r.report.total())
            })
            .sum();
        tracer.end(span);
        checks.check(skipped == Some(c.injected()), || {
            format!(
                "Skip mode dropped {skipped:?} records, {} were corrupted",
                c.injected()
            )
        });
        if let Some(counts) = counts.as_deref_mut() {
            counts.skipped += skipped.unwrap_or(0);
        }
        for (name, policy) in [
            ("recover.skip_clean", &skip),
            ("recover.failfast_clean", &fail_fast),
        ] {
            let span = tracer.begin(name);
            let ok = texts.iter().all(|t| {
                infer_slice_policy_dyn_in(c.format, t, &options, policy, 1, &Interner::new())
                    .is_ok()
            });
            tracer.end(span);
            checks.check(ok, || format!("{name} failed"));
        }

        let span = tracer.begin("corpus.read");
        let read: usize = c
            .paths
            .iter()
            .map(|p| std::fs::read(p).map_or(0, |b| b.len()))
            .sum();
        tracer.end(span);
        std::hint::black_box(read);
        let span = tracer.begin("corpus");
        let results = infer_files_parallel(c.format, &c.paths, &options, &skip, 2);
        tracer.end(span);
        let skipped: Option<usize> = results
            .iter()
            .map(|r| r.as_ref().ok().map(|s| s.recovered.report.total()))
            .sum();
        checks.check(skipped == Some(c.injected()), || {
            format!("infer_files_parallel dropped {skipped:?} records")
        });

        let view = oracle::corpus_view(c.format, c.fold.clone());
        let global = GlobalShape::plain(view.clone());
        let codegen = codegen_options(c.format);
        for _ in 0..SHAPE_CALLS {
            let input = view.clone();
            let span = tracer.begin("globalize");
            let g = globalize_env(input);
            tracer.end(span);
            std::hint::black_box(g);
            let span = tracer.begin("fingerprint");
            std::hint::black_box(fingerprint(&global));
            tracer.end(span);
            let span = tracer.begin("provider");
            std::hint::black_box(generate_global(&global, "provided", "Root", &codegen));
            tracer.end(span);
        }
    }
}

/// The workload's registry requests, in-process: each call in its own
/// group. Returns how many provider reads hit the cache, out of how many.
fn registry_replay(
    w: &Workload,
    ops: &[Op],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (usize, usize) {
    let reg = Registry::new();
    let (mut hits, mut providers) = (0, 0);
    for &op in ops {
        tracer.next_group();
        let span = tracer.begin(if op.is_ingest() {
            "registry.ingest"
        } else {
            "registry.read"
        });
        let ok = match op {
            Op::Ingest(b) => {
                let batch = &w.batches[b];
                reg.ingest(&batch.tenant, &batch.ingest_request())
                    .is_ok_and(|o| o.records == batch.records)
            }
            Op::Shape(t) => reg.shape(&w.tenants[t], false).is_ok(),
            Op::Fingerprint(t) => reg.fingerprint(&w.tenants[t]).is_ok(),
            Op::Provider(t) => {
                let out = reg.provider(
                    &w.tenants[t],
                    ProviderKind::Rust,
                    "provided",
                    "Root",
                    "::types_from_data",
                );
                providers += 1;
                hits += usize::from(out.as_ref().is_ok_and(|o| o.cached));
                out.is_ok()
            }
            Op::Check(b) => {
                let batch = &w.batches[b];
                reg.check(&batch.tenant, Some(batch.format), batch.check.as_bytes())
                    .is_ok()
            }
        };
        tracer.end(span);
        checks.check(ok, || "an in-process registry call failed".into());
    }
    (hits, providers)
}

/// HTTP against a live daemon: closed-loop ingests next to the same
/// in-process calls (the HTTP overhead), then an open loop of trivial
/// reads (the round trip and the generator's lag).
fn http_layers(
    w: &Workload,
    tfd: &str,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (f64, f64, Vec<f64>) {
    let (warmup, ingests) = w.registry_plan();
    let ingests = &ingests[..ingests.len().min(OVERHEAD_INGESTS)];
    let daemon = match Daemon::spawn(tfd) {
        Ok((d, _)) => d,
        Err(e) => {
            checks.check(false, || e);
            return (f64::NAN, f64::NAN, Vec::new());
        }
    };
    let reg = Registry::new();
    let mut gaps = Vec::new();
    for (i, &b) in warmup.iter().chain(ingests).enumerate() {
        let batch = &w.batches[b];
        let t = Instant::now();
        let ok = reg.ingest(&batch.tenant, &batch.ingest_request()).is_ok();
        let in_process = t.elapsed().as_secs_f64();
        tracer.next_group();
        let span = tracer.begin("http.ingest");
        let t = Instant::now();
        let ok = ok && registry::send(&daemon.addr, &w.batches, &w.tenants, Op::Ingest(b));
        let over_http = t.elapsed().as_secs_f64();
        tracer.end(span);
        checks.check(ok, || "an HTTP ingest failed".into());
        if i >= warmup.len() {
            gaps.push((over_http - in_process) * 1e3);
        }
    }
    let ops = vec![Op::Fingerprint(0); RTT_REQUESTS];
    let (samples, _) =
        registry::open_loop(&daemon.addr, &w.batches, &w.tenants, &ops, RTT_RATE, tracer);
    for s in &samples {
        checks.check(s.ok, || "an HTTP fingerprint read failed".into());
    }
    let rtt: Vec<f64> = samples.iter().map(|s| s.latency_s * 1e3).collect();
    let lag: Vec<f64> = samples.iter().map(|s| s.lag_s * 1e3).collect();
    (median(&rtt), median(&gaps), lag)
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The traced run: every per-layer metric on this workload's inputs.
pub fn run(w: &Workload, tfd: &str, host: &Host, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut checks = Checks::default();
    let mut counts = Counts::default();
    for rep in 0..REPS {
        tracer.next_group();
        corpus_layers(w, tracer, &mut checks, (rep == 0).then_some(&mut counts));
    }
    let (warmup, ingests) = w.registry_plan();
    let mut ops: Vec<Op> = warmup.iter().map(|&b| Op::Ingest(b)).collect();
    ops.extend(registry::schedule(&ingests, w.tenants.len()));
    let (hits, providers) = registry_replay(w, &ops, tracer, &mut checks);
    let (rtt_ms, overhead_ms, rtt_lag) = http_layers(w, tfd, tracer, &mut checks);

    // Tracing overhead: the end-to-end run twice, on the same inputs,
    // first untraced, then traced.
    let half = seconds / 2.0;
    let (throughput, traced_throughput, overhead_frac, lag) = match &w.kind {
        Kind::Batch(plan) => {
            let plain = batch::run(tfd, plan, half, &mut Tracer::new(false));
            let traced = batch::run(tfd, plan, half, tracer);
            for s in [&plain, &traced] {
                checks.attempted += s.attempted;
                checks.failed += s.failed;
            }
            let (a, b) = (plain.records_per_s(plan), traced.records_per_s(plan));
            (a, b, (a - b) / a, rtt_lag)
        }
        Kind::Registry => {
            let plain = registry::run(tfd, w, half, &mut Tracer::new(false));
            let traced = registry::run(tfd, w, half, tracer);
            for s in [&plain, &traced] {
                checks.attempted += s.attempted;
                checks.failed += s.failed;
            }
            let p50 = |s: &registry::Samples| quantile(&s.latencies_ms(true), 0.5);
            let lag = traced.requests.iter().map(|r| r.lag_s * 1e3).collect();
            let (a, b) = (p50(&plain), p50(&traced));
            (
                plain.records as f64 / plain.elapsed_s,
                traced.records as f64 / traced.elapsed_s,
                (b - a) / a,
                lag,
            )
        }
    };

    let med = |name: &str| median(&tracer.self_seconds(name));
    let scan_s = med("scan");
    let parse_s = med("parse");
    let fold_s = med("fold");
    let jobs1_s = med("engine.jobs1");
    let jobs2_s = med("engine.jobs2");
    let scan_gb_per_s = counts.bytes as f64 / scan_s / 1e9;
    let ms = |name: &str| med(name) * 1e3;
    Outcome {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: vec![
            m("scan.s", "s", scan_s),
            m("scan.gb_per_s", "GB/s", scan_gb_per_s),
            m(
                "scan.ceiling_frac",
                "ratio",
                scan_gb_per_s / host.sweep_gb_per_s,
            ),
            m("parse.s", "s", parse_s),
            m(
                "parse.mb_per_s",
                "MB/s",
                counts.bytes as f64 / parse_s / 1e6,
            ),
            m("parse.records", "count", counts.records as f64),
            m("intern.symbols", "count", counts.symbols as f64),
            m(
                "intern.retained_bytes",
                "bytes",
                counts.retained_bytes as f64,
            ),
            m("fold.s", "s", fold_s),
            m(
                "fold.widen_frac",
                "ratio",
                counts.widened as f64 / counts.records as f64,
            ),
            m("engine.jobs1_s", "s", jobs1_s),
            m("engine.jobs2_s", "s", jobs2_s),
            m("engine.stream_jobs2_s", "s", med("engine.stream_jobs2")),
            m("engine.speedup", "ratio", jobs1_s / jobs2_s),
            m(
                "engine.overhead_frac",
                "ratio",
                (jobs1_s - scan_s - parse_s - fold_s) / jobs1_s,
            ),
            m("recover.skip_s", "s", med("recover.skip")),
            m(
                "recover.clean_tax",
                "ratio",
                med("recover.skip_clean") / med("recover.failfast_clean"),
            ),
            m("recover.skipped", "count", counts.skipped as f64),
            m("corpus.s", "s", med("corpus")),
            m("corpus.read_s", "s", med("corpus.read")),
            m("globalize.s", "s", med("globalize") / SHAPE_CALLS as f64),
            m(
                "fingerprint.s",
                "s",
                med("fingerprint") / SHAPE_CALLS as f64,
            ),
            m("provider.s", "s", med("provider") / SHAPE_CALLS as f64),
            m("registry.ingest_ms", "ms", ms("registry.ingest")),
            m("registry.read_ms", "ms", ms("registry.read")),
            m(
                "registry.provider_hit_ratio",
                "ratio",
                hits as f64 / providers.max(1) as f64,
            ),
            m("http.rtt_ms", "ms", rtt_ms),
            m("http.overhead_ms", "ms", overhead_ms),
            m("loadgen.lag_ms_p99", "ms", quantile(&lag, 0.99)),
            m(
                "trace.records_per_s_delta",
                "1/s",
                traced_throughput - throughput,
            ),
            m("trace.overhead_frac", "ratio", overhead_frac),
            m("host.nproc", "count", host.nproc as f64),
            m("host.probe_speedup", "ratio", host.probe_speedup),
            m("host.sweep_gb_per_s", "GB/s", host.sweep_gb_per_s),
        ],
    }
}
