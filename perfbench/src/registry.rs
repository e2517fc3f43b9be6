//! The registry workload end to end: `tfd serve` as a child process,
//! driven by a single-process open-loop load generator.
//!
//! Requests go out on a fixed schedule (`OFFERED_RATE` per second,
//! one ingest then two reads), whatever the daemon's pace; at most
//! [`SENDERS`] are in flight. Each request is timed from when it was
//! due, so a stall also charges the requests queued behind it, and the
//! generator reports how late it sent.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tfd_core::analyze::fingerprint;
use tfd_core::{GlobalShape, Shape};

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workload::{ext, Batch, Workload, OFFERED_RATE};
use crate::{sys, Metric, Outcome};

/// Load-generator threads, hence connections in flight.
const SENDERS: usize = 2;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 31;

/// A running `tfd serve` child, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes to a closed pipe.
    _stderr: BufReader<ChildStderr>,
    pub addr: String,
}

impl Daemon {
    /// Spawns `tfd serve` on an ephemeral port and waits for its first
    /// successful response; returns it with the seconds that took.
    pub fn spawn(tfd: &str) -> Result<(Daemon, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(tfd)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("tfd serve: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().ok_or("tfd serve: no stderr")?);
        let mut line = String::new();
        let _ = stderr.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split("/v1").next())
            .map(str::to_owned);
        let mut daemon = Daemon {
            child,
            _stderr: stderr,
            addr: addr.unwrap_or_default(),
        };
        if daemon.addr.is_empty() {
            return Err(format!("tfd serve announced no address: {line:?}"));
        }
        loop {
            match tfd_serve::request(daemon.addr.as_str(), "GET", "/v1/stats", None) {
                Ok(r) if r.status == 200 => return Ok((daemon, t.elapsed().as_secs_f64())),
                _ if t.elapsed() > Duration::from_secs(10) => {
                    daemon.stop();
                    return Err("tfd serve never answered /v1/stats".into());
                }
                _ => std::thread::sleep(Duration::from_micros(20)),
            }
        }
    }

    /// The daemon's resident-set high-water mark, KiB.
    pub fn peak_rss_kb(&self) -> Option<i64> {
        sys::vm_hwm_kb(self.child.id())
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One scheduled request.
#[derive(Clone, Copy)]
pub enum Op {
    Ingest(usize),
    Shape(usize),
    Fingerprint(usize),
    Provider(usize),
    /// `POST check` with batch `b`'s check body, to `b`'s tenant.
    Check(usize),
}

impl Op {
    pub fn is_ingest(self) -> bool {
        matches!(self, Op::Ingest(_))
    }
}

/// The fixed request mix: each ingest is followed by two reads, which
/// rotate over the tenants and cycle shape, fingerprint, provider and a
/// check of the just-ingested batch's records.
pub fn schedule(ingests: &[usize], tenants: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(ingests.len() * 3);
    for (j, &b) in ingests.iter().enumerate() {
        ops.push(Op::Ingest(b));
        for r in 2 * j..2 * j + 2 {
            let tenant = (j + r) % tenants;
            ops.push(match r % 4 {
                0 => Op::Shape(tenant),
                1 => Op::Fingerprint(tenant),
                2 => Op::Provider(tenant),
                _ => Op::Check(b),
            });
        }
    }
    ops
}

/// Sends one request; true when the daemon's answer is right.
pub fn send(addr: &str, batches: &[Batch], tenants: &[String], op: Op) -> bool {
    let get = |path: String| tfd_serve::request(addr, "GET", &path, None);
    let result = match op {
        Op::Ingest(b) => {
            let batch = &batches[b];
            let path = format!(
                "/v1/{}/ingest?format={}&jobs=1",
                batch.tenant,
                ext(batch.format)
            );
            let want = format!("\"records\":{},", batch.records);
            tfd_serve::request(
                addr,
                "POST",
                &path,
                Some(("application/json", batch.body.as_bytes())),
            )
            .map(|r| r.status == 200 && r.text().contains(&want))
        }
        Op::Shape(t) => {
            get(format!("/v1/{}/shape", tenants[t])).map(|r| r.status == 200 && !r.body.is_empty())
        }
        Op::Fingerprint(t) => {
            get(format!("/v1/{}/fingerprint", tenants[t])).map(|r| r.status == 200)
        }
        Op::Provider(t) => get(format!("/v1/{}/provider/rust", tenants[t]))
            .map(|r| r.status == 200 && r.text().contains("pub struct")),
        Op::Check(b) => {
            let batch = &batches[b];
            let path = format!("/v1/{}/check?format={}", batch.tenant, ext(batch.format));
            tfd_serve::request(
                addr,
                "POST",
                &path,
                Some(("application/json", batch.check.as_bytes())),
            )
            .map(|r| r.status == 200 && r.text().contains("\"conforms\""))
        }
    };
    result.unwrap_or(false)
}

/// One request as the generator saw it.
pub struct Sample {
    pub op: Op,
    pub ok: bool,
    /// From when it was due until its response was read, seconds.
    pub latency_s: f64,
    /// From when it was due until it was sent, seconds.
    pub lag_s: f64,
}

/// Runs `ops` open-loop at `rate` per second from [`SENDERS`] threads.
pub fn open_loop(
    addr: &str,
    batches: &[Batch],
    tenants: &[String],
    ops: &[Op],
    rate: f64,
    tracer: &mut Tracer,
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    let period = Duration::from_secs_f64(1.0 / rate);
    let (enabled, origin) = (tracer.enabled(), tracer.origin());
    let per_thread: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SENDERS)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut local = Tracer::with_origin(enabled, origin);
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&op) = ops.get(i) else { break };
                        let due = t0 + period * i as u32;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        local.next_group();
                        let span = local.begin(if op.is_ingest() {
                            "http.ingest"
                        } else {
                            "http.read"
                        });
                        let ok = send(addr, batches, tenants, op);
                        local.end(span);
                        samples.push(Sample {
                            op,
                            ok,
                            latency_s: sent.elapsed().as_secs_f64() + (sent - due).as_secs_f64(),
                            lag_s: (sent - due).as_secs_f64(),
                        });
                    }
                    (samples, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load-generator thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for (s, t) in per_thread {
        samples.extend(s);
        tracer.merge(t);
    }
    (samples, elapsed)
}

/// The fingerprint each tenant must report: the reference folds of the
/// batches it accepted, absorbed like the registry absorbs uploads.
fn expected_fingerprints(
    batches: &[Batch],
    tenants: &[String],
    folds: &[Shape],
    accepted: &[bool],
) -> Vec<String> {
    tenants
        .iter()
        .map(|tenant| {
            let mut g = GlobalShape::plain(Shape::Bottom);
            for (b, fold) in folds.iter().enumerate() {
                if accepted[b] && &batches[b].tenant == tenant {
                    g.absorb(fold.clone());
                }
            }
            fingerprint(&g).to_string()
        })
        .collect()
}

/// Everything a registry run measured.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub requests: Vec<Sample>,
    pub elapsed_s: f64,
    pub records: usize,
    pub peak_rss_kb: f64,
    pub attempted: usize,
    pub failed: usize,
}

/// Set-up (daemon start-ups and one warm-up ingest per tenant), the
/// open loop over `seconds`, then the per-tenant fingerprint check.
pub fn run(tfd: &str, w: &Workload, seconds: f64, tracer: &mut Tracer) -> Samples {
    let (batches, tenants) = (&w.batches, &w.tenants);
    let mut out = Samples::default();
    let mut daemon = None;
    for _ in 0..SETUP_SPAWNS {
        out.attempted += 1;
        match Daemon::spawn(tfd) {
            Ok((d, s)) => {
                out.setup_s.push(s);
                daemon = Some(d);
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                out.failed += 1;
            }
        }
    }
    let Some(daemon) = daemon else { return out };
    let (warmup, mut ingests) = w.registry_plan();
    ingests.truncate((seconds * OFFERED_RATE / 3.0).ceil() as usize);
    let mut accepted = vec![false; batches.len()];
    for &b in &warmup {
        accepted[b] = send(&daemon.addr, batches, tenants, Op::Ingest(b));
        out.attempted += 1;
        out.failed += usize::from(!accepted[b]);
    }
    let ops = schedule(&ingests, tenants.len());
    let (requests, elapsed) = open_loop(&daemon.addr, batches, tenants, &ops, OFFERED_RATE, tracer);
    for s in &requests {
        out.attempted += 1;
        out.failed += usize::from(!s.ok);
        if let (Op::Ingest(b), true) = (s.op, s.ok) {
            accepted[b] = true;
            out.records += batches[b].records;
        }
    }
    for (tenant, want) in tenants.iter().zip(expected_fingerprints(
        batches,
        tenants,
        &w.batch_folds,
        &accepted,
    )) {
        out.attempted += 1;
        let got = tfd_serve::request(
            daemon.addr.as_str(),
            "GET",
            &format!("/v1/{tenant}/fingerprint"),
            None,
        )
        .map(|r| r.text())
        .unwrap_or_default();
        if !got.contains(&format!("\"fingerprint\":\"{want}\"")) {
            eprintln!(
                "perfbench: tenant {tenant} reports {got:?}, the reference fold gives {want}"
            );
            out.failed += 1;
        }
    }
    out.peak_rss_kb = daemon.peak_rss_kb().unwrap_or(0) as f64;
    out.requests = requests;
    out.elapsed_s = elapsed;
    out
}

impl Samples {
    pub fn latencies_ms(&self, ingest: bool) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|s| s.op.is_ingest() == ingest)
            .map(|s| s.latency_s * 1e3)
            .collect()
    }

    pub fn outcome(&self) -> Outcome {
        let (ingest, read) = (self.latencies_ms(true), self.latencies_ms(false));
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
                    value: self.records as f64 / self.elapsed_s,
                },
                Metric {
                    name: "peak_rss_mb",
                    unit: "MiB",
                    value: self.peak_rss_kb / 1024.0,
                },
                Metric {
                    name: "ingest_ms_p95",
                    unit: "ms",
                    value: quantile(&ingest, 0.95),
                },
                Metric {
                    name: "read_ms_p95",
                    unit: "ms",
                    value: quantile(&read, 0.95),
                },
            ],
        }
    }
}
