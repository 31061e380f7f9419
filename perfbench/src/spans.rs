//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each module's
//! public functions, kept in memory, and written out once the run ends.
//! The recorder is a plain value owned by the thread that records into
//! it: it never touches the program's process-global `hpf_trace`
//! registry, whose lock sits on the service's hot path.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the root span of one traced op. Its self time is the part of
/// the op no layer span explains (`bench.unattributed.ms`).
pub const OP: &str = "op";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record `f` as the root span of op `op`.
    pub fn op<T>(&mut self, op: u64, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.op = op;
        self.span(OP, f)
    }

    /// Record `f` as a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total self time (ns) per span name: each span's duration minus the
    /// part covered by its direct children, times `scale(op id)`.
    pub fn self_ns(&self, scale: impl Fn(u64) -> f64) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.ns().saturating_sub(c) as f64 * scale(s.op);
        }
        out
    }

    /// Number of root (`op`) spans.
    pub fn ops(&self) -> usize {
        self.spans.iter().filter(|s| s.name == OP).count()
    }

    /// Total duration (ns) of the root spans, each times `scale(op id)`.
    pub fn op_ns(&self, scale: impl Fn(u64) -> f64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == OP)
            .map(|s| s.ns() as f64 * scale(s.op))
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"op":{}}}"#,
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(Instant::now());
        r.op(7, |r| {
            r.span("a", |r| {
                r.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            })
        });
        let s = r.self_ns(|_| 1.0);
        let total = r.op_ns(|_| 1.0);
        assert_eq!(s.values().sum::<f64>(), total);
        assert!(s["b"] >= 2e6);
        assert_eq!(r.self_ns(|_| 2.0)["b"], 2.0 * s["b"]);
        assert!(s["a"] < s["b"]);
        assert!(r.spans().iter().all(|s| s.op == 7));
        assert_eq!(r.spans()[2].parent, Some(1));
    }
}
