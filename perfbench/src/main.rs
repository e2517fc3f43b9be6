//! The repository benchmark: one command, three workloads, end-to-end
//! metrics with tracing off and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload jsonl-uniform|files-dirty|registry-mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. It builds the release `tfd` binary
//! from the sources in place, generates the workload's inputs from the
//! seed, measures for `S` seconds, checks every output against a
//! reference fold, and prints the host record and then, as the last
//! line, the result object. See `perfbench/README.md` for the metrics.

mod batch;
mod gen;
mod host;
mod layers;
mod oracle;
mod registry;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use trace::Tracer;
use workload::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where cargo puts build outputs for the repository workspace; the
/// benchmark keeps its scratch files and span dumps there too.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the release `tfd` binary from the repository sources in the
/// current directory and returns its path.
fn build_tfd() -> Result<String, String> {
    if !Path::new("crates/cli/Cargo.toml").exists() {
        return Err("run from the repository root: crates/cli is missing".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "tfd-cli",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building tfd failed: {status}"));
    }
    let tfd = target_dir().join("release").join("tfd");
    if !tfd.exists() {
        return Err(format!("{} was not built", tfd.display()));
    }
    Ok(tfd.to_string_lossy().into_owned())
}

/// One metric as the result object prints it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            // A layer that failed leaves NaN behind; JSON spells it null.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let tfd = build_tfd()?;
    let work =
        target_dir()
            .join("perfbench")
            .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let host = host::measure();
    println!("{}", host.json());
    eprintln!("perfbench: {}", host.json());
    let outcome = (|| {
        let w = Workload::build(&args.workload, args.seed, args.seconds, &work)?;
        if args.trace {
            let mut tracer = Tracer::new(true);
            let out = layers::run(&w, &tfd, &host, args.seconds, &mut tracer);
            let spans = target_dir()
                .join("perfbench")
                .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
            tracer
                .write_jsonl(&spans)
                .map_err(|e| format!("{}: {e}", spans.display()))?;
            eprintln!("perfbench: spans written to {}", spans.display());
            Ok(out)
        } else {
            Ok(w.run_end_to_end(&tfd, args.seconds, &mut Tracer::new(false)))
        }
    })();
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", result_json(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
