//! Spans recorded by the benchmark itself, from outside the product,
//! around the calls into each layer. Kept in memory; written as JSON
//! lines with `--trace-out`.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one operation share `op`; `parent` is an
/// index into the log.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span log. `None`-like when disabled: recording is a
/// no-op, so the untraced run pays one branch per call site.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let span = Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` under a span; returns its result and how long it took, at
    /// the reference host's speed (`hostspeed::scale`, the identity in the
    /// traced run, which is the one that keeps spans).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, op, parent, start, end);
        (
            out,
            crate::hostspeed::scale((end - start).as_nanos() as u64),
        )
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the log to `path`, if `--trace-out` named one.
    pub fn write_if_asked(&self, path: Option<&Path>) {
        if let Some(path) = path {
            self.write(path)
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("wrote {} spans to {}", self.len(), path.display());
        }
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_their_operation_parent_and_times() {
        let mut log = SpanLog::new(true);
        let t0 = log.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = log.record("ask", 7, None, at(0), at(100));
        let child = log.record("analyze", 7, Some(root), at(5), at(25));
        assert_eq!((root, child, log.len()), (0, 1, 2));
        assert_eq!(
            log.spans[child],
            Span {
                name: "analyze",
                op: 7,
                parent: Some(root),
                start_ns: 5_000,
                end_ns: 25_000,
            }
        );
        let path = std::env::temp_dir().join(format!("e2e-spans-{}.jsonl", std::process::id()));
        log.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let now = Instant::now();
        log.record("x", 1, None, now, now);
        let (value, _) = log.time("y", 1, None, || 7);
        assert_eq!(value, 7);
        assert_eq!(log.len(), 0);
    }
}
