//! What the benchmark reads about processes and the host from outside
//! them: a child's peak resident memory (`VmHWM`), and the CPU model
//! and last-level cache size.

use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::Duration;

/// A finished child: exit code, peak resident set and captured output.
pub struct Finished {
    /// The exit code (`None` when a signal ended the child).
    pub code: Option<i32>,
    /// The child's `VmHWM` as last seen before it exited, KiB (0 when
    /// not watched).
    pub peak_rss_kb: i64,
    /// Everything the child wrote to stdout.
    pub stdout: String,
    /// Everything the child wrote to stderr.
    pub stderr: String,
}

/// Runs `program args…` to completion, capturing its output. With
/// `watch_rss`, a watcher thread samples the child's `VmHWM` every
/// millisecond; timed runs leave it off so it never competes with the
/// child for a CPU.
///
/// `wait4`/`getrusage` peak figures are no use here: std spawns with
/// `posix_spawn`, whose vfork-style child inherits the *spawner's*
/// high-water mark at `exec`, so every child would report at least the
/// benchmark's own peak. `VmHWM` belongs to the child's fresh address
/// space alone, and it only grows, so the last sample is the peak up to
/// the child's final millisecond.
pub fn run(program: &str, args: &[String], watch_rss: bool) -> std::io::Result<Finished> {
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let pid = child.id();
    let peak = AtomicI64::new(0);
    let done = AtomicBool::new(false);
    let mut stdout = String::new();
    let mut stderr = String::new();
    let read = std::thread::scope(|s| {
        s.spawn(|| {
            while watch_rss && !done.load(Ordering::Relaxed) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak.fetch_max(kb, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // Stderr carries at most a line per input file, far below a
        // pipe's capacity, so draining stdout first cannot deadlock.
        let read = (|| {
            if let Some(out) = child.stdout.as_mut() {
                out.read_to_string(&mut stdout)?;
            }
            if let Some(err) = child.stderr.as_mut() {
                err.read_to_string(&mut stderr)?;
            }
            Ok::<_, std::io::Error>(())
        })();
        done.store(true, Ordering::Relaxed);
        read
    });
    let status = child.wait()?;
    read?;
    Ok(Finished {
        code: status.code(),
        peak_rss_kb: peak.load(Ordering::Relaxed),
        stdout,
        stderr,
    })
}

/// The high-water mark of a live process's resident set (`VmHWM`), KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<i64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name") || l.starts_with("Model"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The largest CPU cache size the kernel reports, in bytes (the
/// last-level cache), if any.
pub fn last_level_cache_bytes() -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("size")).ok())
        .filter_map(|s| {
            let s = s.trim();
            let (digits, scale) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1 << 10),
                b'M' => (&s[..s.len() - 1], 1 << 20),
                b'G' => (&s[..s.len() - 1], 1 << 30),
                _ => (s, 1),
            };
            digits.parse::<usize>().ok().map(|n| n * scale)
        })
        .max()
}
