//! In-memory spans recorded around each call into a layer.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), the span that caused it, and the id of the request it belongs
//! to. Each thread appends to its own [`SpanLog`], so recording takes no
//! lock; the logs are merged and written out when the run ends. A disabled
//! log records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifies a span across all threads of a run: thread in the high 32
/// bits, index within that thread's log in the low 32 bits.
pub type SpanId = u64;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (see [`SpanId`]).
    pub id: SpanId,
    /// Layer-qualified name, e.g. `core.execute`.
    pub name: &'static str,
    /// Start, ns since the run epoch.
    pub start_ns: u64,
    /// End, ns since the run epoch.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The operation this span serves (shared by all its spans).
    pub request: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The per-thread span buffer.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    thread: u32,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for one thread; `enabled == false` makes every call a no-op.
    pub fn new(epoch: Instant, thread: u32, enabled: bool) -> Self {
        Self { epoch, thread, enabled, spans: Vec::new() }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant spans are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the run epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant to ns since the run epoch.
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = (u64::from(self.thread) << 32) | self.spans.len() as u64;
        self.spans.push(Span { id, name, start_ns, end_ns, parent, request });
        id
    }

    /// Opens a span that encloses spans recorded before its
    /// [`SpanLog::close`]; returns its id (0 when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, now, now, parent, request)
    }

    /// Ends a span opened by [`SpanLog::open`] on this log now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.end_at(id, now);
    }

    /// Sets the end of a span recorded on this log.
    pub fn end_at(&mut self, id: SpanId, end_ns: u64) {
        if self.enabled {
            self.spans[(id & 0xffff_ffff) as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// duration in ns. The call is timed even when the log is disabled, so
    /// callers can use the duration either way.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, start, end, parent, request);
        (out, end - start)
    }

    /// Moves every span of `other` into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once, and any part
/// of a child outside its parent is ignored). Keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Total self time per span name, ms — where the traced time went.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += own[&s.id] as f64 / 1e6;
    }
    out
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
}

/// Writes the spans as JSON lines, one span per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"request":{}}}"#,
            s.id, s.name, s.start_ns, s.end_ns, parent, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { id, name: "t", start_ns: start, end_ns: end, parent, request: 7 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 0, 100, None),
            span(2, 10, 30, Some(1)),
            span(3, 20, 50, Some(1)),  // overlaps span 2 over [20, 30)
            span(4, 90, 120, Some(1)), // sticks out past the parent's end
            span(5, 25, 28, Some(2)),
        ];
        let st = self_times(&spans);
        // children of 1 cover [10, 50) and [90, 100): 50 ns
        assert_eq!(st[&1], 50);
        assert_eq!(st[&2], 17);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 30);
        assert_eq!(st[&5], 3);
        // All five are named "t": 50 + 17 + 30 + 30 + 3 ns.
        assert_eq!(self_ms_by_name(&spans)["t"], 130.0 / 1e6);
    }

    #[test]
    fn disabled_log_keeps_nothing_but_still_times() {
        let mut log = SpanLog::new(Instant::now(), 0, false);
        let (v, ns) = log.time("x", None, 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(ns < 1_000_000_000);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch, 0, true);
        let mut b = SpanLog::new(epoch, 1, true);
        let ra = a.record("r", 0, 10, None, 1);
        let rb = b.record("r", 0, 10, None, 1);
        let child = b.record("c", 2, 4, Some(rb), 1);
        let outer = b.open("o", None, 2);
        b.record("i", 5, 6, Some(outer), 2);
        b.close(outer);
        assert_ne!(ra, rb);
        assert!(b.spans()[2].end_ns >= b.spans()[2].start_ns);
        a.absorb(b);
        assert_eq!(a.spans().len(), 5);
        assert_eq!(a.spans()[2].id, child);
        assert_eq!(durations(a.spans(), "r"), vec![10.0, 10.0]);
    }
}
