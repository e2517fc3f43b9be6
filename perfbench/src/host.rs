//! The host record every result carries, with the two hardware
//! ceilings the layer numbers are read against: how well CPU-bound work
//! scales to `nproc` threads, and how fast one pass can stream memory.

use std::time::Instant;

use crate::sys;

/// Where a result was measured. Figures from different hosts are never
/// comparable; this record makes that visible.
pub struct Host {
    pub cpu_model: String,
    pub nproc: usize,
    pub scan_backend: &'static str,
    /// 1-thread time over `nproc`-thread time for a fixed, lock-free,
    /// memory-free spin loop: the ceiling for any parallel speedup.
    pub probe_speedup: f64,
    /// Single-pass read bandwidth over a buffer larger than the
    /// last-level cache, GB/s: the ceiling for the scanners.
    pub sweep_gb_per_s: f64,
}

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

/// Best-of-three time to split a fixed spin budget over `threads`.
fn probe(threads: usize) -> f64 {
    const TOTAL: u64 = 32_000_000;
    (0..3)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| std::hint::black_box(spin(TOTAL / threads as u64)));
                }
            });
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Best-of-three single read pass over a buffer 1.25× the last-level
/// cache (64 MiB at least, 512 MiB at most), in GB/s.
fn sweep() -> f64 {
    let llc = sys::last_level_cache_bytes().unwrap_or(32 << 20);
    let bytes = (llc + llc / 4).clamp(64 << 20, 512 << 20);
    let buf = vec![1u64; bytes / 8];
    let best = (0..3)
        .map(|_| {
            let t = Instant::now();
            let sum = buf.iter().fold(0u64, |a, &w| a.wrapping_add(w));
            std::hint::black_box(sum);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    bytes as f64 / best / 1e9
}

/// Measures the host record.
pub fn measure() -> Host {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let probe_speedup = probe(1) / probe(nproc);
    Host {
        cpu_model: sys::cpu_model(),
        nproc,
        scan_backend: tfd_value::scan::backend_name(),
        probe_speedup,
        sweep_gb_per_s: sweep(),
    }
}

impl Host {
    /// The record as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"host\": {{\"cpu_model\": \"{}\", \"nproc\": {}, \"scan_backend\": \"{}\", \
             \"probe_speedup\": {}, \"sweep_gb_per_s\": {}}}}}",
            tfd_core::report::json_escape(&self.cpu_model),
            self.nproc,
            self.scan_backend,
            self.probe_speedup,
            self.sweep_gb_per_s
        )
    }
}
