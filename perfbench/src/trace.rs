//! The benchmark's span recorder: spans around the public calls into each
//! layer, kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to; shared by every span of one op.
    pub op: u64,
    /// Layer or step name, e.g. `golite.parse`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Name of the root span of every timed operation.
pub const OP: &str = "op";

/// In-memory span sink. Spans nest by call structure: a span opened while
/// another is open becomes its child.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` of operation `op`.
    pub fn span<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.begin(op, name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Opens a span; it encloses every span opened before its [`end`].
    ///
    /// [`end`]: Recorder::end
    pub fn begin(&mut self, op: u64, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns() as f64 / 1e6
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time per span name, summed over all spans: each span's duration
/// minus the part of its interval that its direct children cover (children
/// overlapping each other are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = covered_ns(s.start_ns, s.end_ns, &mut children[s.id]);
        *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Share of operation wall time covered by leaf spans (spans without
/// children) under [`OP`] roots. A layer left without a span shows up as
/// a gap below 1.
pub fn leaf_coverage(spans: &[Span]) -> f64 {
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut op_wall = 0u64;
    let mut leaf = 0u64;
    for s in spans {
        let root = &spans[root_of(s.id)];
        if root.name != OP {
            continue;
        }
        if s.parent.is_none() {
            op_wall += s.dur_ns();
        } else if !has_child[s.id] {
            leaf += s.dur_ns();
        }
    }
    if op_wall == 0 {
        0.0
    } else {
        leaf as f64 / op_wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, None, OP, 0, 100),
            span(1, Some(0), "parse", 10, 30),
            span(2, Some(0), "check", 30, 90),
            span(3, Some(2), "solve", 40, 60),
            // Overlaps its sibling: the overlap is subtracted once.
            span(4, Some(2), "solve", 50, 70),
        ];
        let st = self_times(&spans);
        assert_eq!(st[OP], 100 - 20 - 60);
        assert_eq!(st["parse"], 20);
        assert_eq!(st["check"], 60 - 30);
        assert_eq!(st["solve"], 20 + 20);
        // Self times partition the root's wall time when children nest.
        let nested: Vec<Span> = spans[..4].to_vec();
        assert_eq!(self_times(&nested).values().sum::<u64>(), 100);
    }

    #[test]
    fn child_outside_its_parent_is_clipped() {
        let spans = vec![span(0, None, OP, 0, 50), span(1, Some(0), "late", 40, 80)];
        assert_eq!(self_times(&spans)[OP], 40);
    }

    #[test]
    fn leaf_coverage_ignores_non_op_roots() {
        let spans = vec![
            span(0, None, OP, 0, 100),
            span(1, Some(0), "a", 0, 45),
            span(2, Some(0), "b", 50, 95),
            span(3, None, "probe", 100, 200),
            span(4, Some(3), "parse", 100, 200),
        ];
        assert!((leaf_coverage(&spans) - 0.9).abs() < 1e-12);
        assert_eq!(leaf_coverage(&[]), 0.0);
    }

    #[test]
    fn recorder_nests_spans_by_call_structure() {
        let mut rec = Recorder::new();
        let v = rec.span(7, OP, |rec| {
            rec.span(7, "inner", |_| 1) + rec.span(7, "inner", |_| 2)
        });
        assert_eq!(v, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[2].start_ns >= spans[1].end_ns);
        assert_eq!(rec.to_jsonl().lines().count(), 3);
    }
}
