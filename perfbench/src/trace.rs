//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and a group id shared by every
//! span of one pass or request. Spans stay in memory while the run
//! measures and are written out once at the end; a layer's figure is
//! its **self time**: its span's duration minus the parts its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    group: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans when enabled; every call is a no-op when not.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    group: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// An open span, closed by [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_origin(enabled, Instant::now())
    }

    /// A tracer whose clock starts at `origin`, so spans recorded on
    /// several threads can be [merged](Tracer::merge) onto one timeline.
    pub fn with_origin(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            group: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Appends another thread's spans (recorded against the same
    /// origin), giving each of its groups a fresh id here.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        let group_base = self.group;
        for s in other.spans {
            self.spans.push(Span {
                group: group_base + s.group,
                parent: s.parent.map(|p| p + base),
                ..s
            });
        }
        self.group += other.group;
    }

    /// Starts a new group: the spans that follow belong to one pass or
    /// request.
    pub fn next_group(&mut self) -> u64 {
        self.group += 1;
        self.group
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            group: self.group,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        self.spans[id].end_ns = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close in LIFO order");
        self.open.pop();
    }

    /// Per group, the summed self time (seconds) of the spans named
    /// `name`, in group order.
    pub fn self_seconds(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_group: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                *by_group.entry(s.group).or_default() += (s.end_ns - s.start_ns) - child_ns[i];
            }
        }
        by_group.values().map(|&ns| ns as f64 / 1e9).collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
