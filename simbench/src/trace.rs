//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded by the benchmark itself, around public calls;
//! spans inside the kernel are not part of this benchmark. A cell's
//! spans share its cell id: the root `cell` span and, as its children,
//! `kernel.boot`, `workloads.build`, `kernel.spawn`, `kernel.run` and
//! `export.render`.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// The cell the span belongs to.
    pub cell: u32,
    /// Index of the enclosing span, `None` for a cell's root.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Public calls the span covers (spawns are one span per batch).
    pub calls: u64,
}

/// Times phases and, when on, records each as a span.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
    open: Vec<usize>,
    cell: u32,
}

impl Tracer {
    /// A tracer that only times.
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: None,
            open: Vec::new(),
            cell: 0,
        }
    }

    /// A tracer that also records spans.
    pub fn on() -> Self {
        Tracer {
            spans: Some(Vec::new()),
            ..Tracer::off()
        }
    }

    /// The recorded spans (empty when off).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of `cell`.
    pub fn begin_cell(&mut self, cell: u32) {
        self.cell = cell;
        self.push("cell", 1);
    }

    /// Closes the root span of the current cell.
    pub fn end_cell(&mut self) {
        self.pop();
    }

    fn push(&mut self, name: &'static str, calls: u64) {
        let start_ns = self.now_ns();
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                name,
                cell: self.cell,
                parent: self.open.last().copied(),
                start_ns,
                end_ns: start_ns,
                calls,
            });
            self.open.push(spans.len() - 1);
        }
    }

    fn pop(&mut self) {
        let end_ns = self.now_ns();
        if let (Some(spans), Some(i)) = (&mut self.spans, self.open.pop()) {
            spans[i].end_ns = end_ns;
        }
    }

    /// Runs `f` as a child span of the open cell covering `calls` public
    /// calls; returns its result and host duration.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        calls: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        self.push(name, calls);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.pop();
        (out, elapsed)
    }
}

/// Renders spans as Chrome trace-event JSON (loads in Perfetto).
pub fn chrome_trace_json(spans: &[Span], process: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let _ = write!(
        out,
        "\n{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"simbench {process}\"}}}}"
    );
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{id},\"parent\":{parent},\"cell\":{},\"calls\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.cell,
            s.calls
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Per-layer totals over a set of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub spans: u64,
    /// Public calls they covered.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans, ns.
    pub self_ns: u64,
}

/// Count, total time and self time per span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.calls += s.calls;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child);
    }
    out
}

/// The per-layer table printed after a traced run.
pub fn layer_table(spans: &[Span]) -> String {
    let times = layer_times(spans);
    let cell_ns = times.get("cell").map_or(0, |t| t.total_ns).max(1);
    let mut out = format!(
        "{:<16} {:>6} {:>8} {:>11} {:>11} {:>7}\n",
        "layer", "spans", "calls", "total ms", "self ms", "self %"
    );
    for (name, t) in &times {
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>8} {:>11.3} {:>11.3} {:>6.1}%",
            name,
            t.spans,
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / cell_ns as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            cell: 0,
            parent,
            start_ns,
            end_ns,
            calls: 1,
        };
        let spans = [
            span("cell", None, 0, 100),
            span("kernel.boot", Some(0), 10, 30),
            span("kernel.run", Some(0), 40, 90),
        ];
        let t = layer_times(&spans);
        assert_eq!((t["cell"].total_ns, t["cell"].self_ns), (100, 30));
        assert_eq!(
            (t["kernel.run"].total_ns, t["kernel.run"].self_ns),
            (50, 50)
        );
        let json = chrome_trace_json(&spans, "w");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"parent\":0"));
    }
}
