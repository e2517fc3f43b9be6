//! Batch workloads end to end: the release `tfd` binary as a child
//! process, one pass per invocation set, each output checked.

use std::time::Instant;

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{sys, Metric, Outcome};

/// One `tfd` invocation and what it must produce.
pub struct Invocation {
    pub args: Vec<String>,
    /// Exactly what stdout must hold.
    pub expect_stdout: String,
    /// How many records the skip reports on stderr must add up to.
    pub expect_skipped: usize,
}

/// What a batch workload runs. A pass is every invocation in `passes`
/// (the ingest of the whole corpus, one invocation per format) and a
/// read every invocation in `reads` (one sample read per format); each
/// pass is followed by [`READS_PER_PASS`] reads.
pub struct Plan {
    pub passes: Vec<Invocation>,
    pub reads: Vec<Invocation>,
    /// Records a pass folds (the clean subset).
    pub records: usize,
}

/// Reads per pass: the registry workload's two reads per ingest.
const READS_PER_PASS: usize = 2;
/// Untimed passes before timing starts; `setup_s` is their median.
const SETUP_PASSES: usize = 5;

/// Sum of `N` over the `…: skipped N malformed record(s)` lines.
fn skipped(stderr: &str) -> usize {
    stderr
        .lines()
        .filter_map(|l| {
            l.split(": skipped ")
                .nth(1)?
                .split(' ')
                .next()?
                .parse::<usize>()
                .ok()
        })
        .sum()
}

/// Runs one invocation: (output correct, wall seconds, peak RSS KiB,
/// or 0 unless `watch_rss`).
fn invoke(tfd: &str, inv: &Invocation, watch_rss: bool, tracer: &mut Tracer) -> (bool, f64, i64) {
    let t = Instant::now();
    let child = tracer.begin("tfd");
    let run = sys::run(tfd, &inv.args, watch_rss);
    tracer.end(child);
    let secs = t.elapsed().as_secs_f64();
    let check = tracer.begin("check");
    let (ok, rss) = match run {
        Ok(f) => {
            let ok = f.code == Some(0)
                && f.stdout == inv.expect_stdout
                && skipped(&f.stderr) == inv.expect_skipped;
            if !ok {
                eprintln!(
                    "perfbench: tfd {:?} gave exit {:?}, {} stdout bytes, stderr {:?}",
                    inv.args,
                    f.code,
                    f.stdout.len(),
                    f.stderr
                );
            }
            (ok, f.peak_rss_kb)
        }
        Err(e) => {
            eprintln!("perfbench: tfd {:?}: {e}", inv.args);
            (false, 0)
        }
    };
    tracer.end(check);
    (ok, secs, rss)
}

/// Everything a batch run measured.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub pass_s: Vec<f64>,
    pub read_s: Vec<f64>,
    pub rss_kb: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
}

/// Runs `invocations` back to back as one operation in its own span
/// group: (all correct, seconds, peak RSS KiB).
fn operation(
    tfd: &str,
    name: &'static str,
    invocations: &[Invocation],
    watch_rss: bool,
    tracer: &mut Tracer,
) -> (bool, f64, i64) {
    tracer.next_group();
    let span = tracer.begin(name);
    let mut all = (true, 0.0, 0);
    for inv in invocations {
        let (ok, s, rss) = invoke(tfd, inv, watch_rss, tracer);
        all = (all.0 && ok, all.1 + s, all.2.max(rss));
    }
    tracer.end(span);
    all
}

/// Set-up passes (which also sample peak memory), then passes with
/// their reads until `seconds` run out.
pub fn run(tfd: &str, plan: &Plan, seconds: f64, tracer: &mut Tracer) -> Samples {
    let mut out = Samples::default();
    for _ in 0..SETUP_PASSES {
        let (ok, s, rss) = operation(tfd, "pass", &plan.passes, true, tracer);
        out.setup_s.push(s);
        out.rss_kb.push(rss as f64);
        out.attempted += 1;
        out.failed += usize::from(!ok);
    }
    let start = Instant::now();
    while out.pass_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (ok, s, _) = operation(tfd, "pass", &plan.passes, false, tracer);
        out.pass_s.push(s);
        out.attempted += 1;
        out.failed += usize::from(!ok);
        for _ in 0..READS_PER_PASS {
            let (ok, s, _) = operation(tfd, "read", &plan.reads, false, tracer);
            out.read_s.push(s);
            out.attempted += 1;
            out.failed += usize::from(!ok);
        }
    }
    out
}

impl Samples {
    /// Records folded per second in the 95th-percentile timed pass: the
    /// rate 19 passes in 20 meet. The median pass is no use as a bounded
    /// figure, because it moves with the host's clock (see "Medians are
    /// not end-to-end metrics" in perfbench/README.md).
    pub fn records_per_s(&self, plan: &Plan) -> f64 {
        plan.records as f64 / quantile(&self.pass_s, 0.95)
    }

    pub fn outcome(&self, plan: &Plan) -> Outcome {
        let ms = |xs: &[f64], p: f64| quantile(xs, p) * 1e3;
        Outcome {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: vec![
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: median(&self.setup_s),
                },
                Metric {
                    name: "records_per_s",
                    unit: "1/s",
                    value: self.records_per_s(plan),
                },
                Metric {
                    name: "peak_rss_mb",
                    unit: "MiB",
                    value: median(&self.rss_kb) / 1024.0,
                },
                Metric {
                    name: "ingest_ms_p95",
                    unit: "ms",
                    value: ms(&self.pass_s, 0.95),
                },
                Metric {
                    name: "read_ms_p95",
                    unit: "ms",
                    value: ms(&self.read_s, 0.95),
                },
            ],
        }
    }
}
