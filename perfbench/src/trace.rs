//! In-memory spans recorded at the benchmark's own boundaries around the
//! calls it makes into each layer, written out as a Chrome/Perfetto trace
//! when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Identifies a recorded span.
pub type SpanId = usize;

/// One timed interval. Spans of one request (a sweep point, or a served
/// job) share its `group` identifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name (`plan`, `simulate`, `submit`, ...).
    pub name: &'static str,
    /// Free-form label (app, mechanism, job id).
    pub label: String,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request identifier shared by related spans.
    pub group: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Thread lane for display.
    pub lane: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; a disabled recorder drops everything, so untraced runs
/// pay one branch per boundary.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `t` in nanoseconds since the recorder was created.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id (`None` when disabled).
    pub fn record(&mut self, span: Span) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Recorder::close`]. Children may
    /// name it as their parent before it closes.
    pub fn open(
        &mut self,
        name: &'static str,
        label: impl Into<String>,
        parent: Option<SpanId>,
        group: u64,
    ) -> Option<SpanId> {
        let now = self.now_ns();
        self.record(Span {
            name,
            label: label.into(),
            parent,
            group,
            start_ns: now,
            end_ns: now,
            lane: 0,
        })
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends spans recorded elsewhere (a client thread's recorder with
    /// the same origin), re-parenting them under `parent`.
    pub fn absorb(&mut self, spans: Vec<Span>, parent: Option<SpanId>) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len();
        for mut s in spans {
            s.parent = match s.parent {
                Some(p) => Some(base + p),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    /// A recorder sharing this one's origin, for another thread.
    pub fn fork(&self) -> Recorder {
        Recorder {
            origin: self.origin,
            enabled: self.enabled,
            spans: Vec::new(),
        }
    }

    /// The spans as Chrome/Perfetto trace JSON (`X` events, microseconds).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"group\":{},\"label\":",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
                s.group,
            );
            commsense_core::json::push_escaped(&mut out, &s.label);
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of span `id`: its duration minus the part of it its direct
/// children cover (overlapping children are merged, and children are
/// clipped to the parent's interval).
pub fn self_ns(spans: &[Span], id: SpanId) -> u64 {
    let parent = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.dur_ns() - covered
}

/// Self time summed per span name, in seconds, in first-seen order.
pub fn self_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (id, s) in spans.iter().enumerate() {
        let secs = self_ns(spans, id) as f64 / 1e9;
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some(slot) => slot.1 += secs,
            None => out.push((s.name, secs)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            label: String::new(),
            parent,
            group: 0,
            start_ns,
            end_ns,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 40),  // overlaps the first child
            span(Some(0), 90, 120), // runs past the parent
            span(Some(1), 12, 14),  // a grandchild: not the root's direct child
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 10);
        assert_eq!(self_ns(&spans, 1), 18);
        assert_eq!(self_ns(&spans, 4), 2);
        let by_name = self_by_name(&spans);
        assert_eq!(by_name.len(), 1);
        // 60 + 18 + 20 + 30 + 2: overlapping siblings each keep their own.
        assert!((by_name[0].1 - 130e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let id = r.open("plan", "EM3D", None, 1);
        r.close(id);
        assert!(id.is_none());
        assert!(r.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_tree() {
        let mut r = Recorder::new(true);
        let root = r.open("workload", "", None, 0);
        let mut other = r.fork();
        let job = other.open("submit", "j1", None, 7);
        let first = other.open("progress", "j1", job, 7);
        other.close(first);
        other.close(job);
        r.absorb(other.spans().to_vec(), root);
        r.close(root);
        assert_eq!(r.spans()[1].parent, root);
        assert_eq!(r.spans()[2].parent, Some(1));
        assert!(r.chrome_json().contains("\"name\":\"progress\""));
    }
}
