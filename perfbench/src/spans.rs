//! The benchmark's own span recorder.
//!
//! Spans are kept in memory and written out when the run ends. They are
//! recorded around calls into the program from the benchmark's side; the
//! engine's own tracer and profiler are never used as a source, since those
//! planes are part of what the armed-against-inert probe measures.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary this span wraps, e.g. `facade.solve` or `kernel.dot`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Identifier of the op (or probe) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder with an explicit open-span stack.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new op id; spans opened from now on carry it.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.spans.push(span);
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn end(&mut self, idx: usize) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        let now = self.now_ns();
        self.spans[idx].end_ns = now;
        self.spans[idx].ns()
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every closed span named `name` of op `op`
    /// or later.
    pub fn seconds_since(&self, name: &str, op: u64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op >= op && s.end_ns > 0)
            .map(|s| s.ns() as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_op_id() {
        let mut rec = Recorder::new();
        let op = rec.next_op();
        let outer = rec.begin("op");
        let inner = rec.span("facade.solve", || 7);
        rec.end(outer);
        assert_eq!(inner, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, op);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(rec.seconds_since("facade.solve", op).len(), 1);
        assert!(rec.seconds_since("facade.solve", op + 1).is_empty());
    }
}
