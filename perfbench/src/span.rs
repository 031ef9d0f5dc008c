//! Spans recorded from outside the program: one per public call the
//! benchmark makes into a layer. Spans stay in memory and are written
//! out with the result when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `gridworld.fig1`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which traced pass the span belongs to.
    pub run: u32,
}

/// Collects spans when on; every call is a no-op when off, so untraced
/// passes pay nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores everything.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Start a new run id for the spans that follow.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Time `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.ns(Instant::now());
        r
    }

    /// Record an already-timed interval under the innermost open span.
    /// Used where intervals overlap, such as two connections' requests
    /// in flight at once.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name: name.to_string(),
            start: self.ns(start),
            end: self.ns(end),
            parent: self.open.last().copied(),
            run: self.run,
        };
        self.spans.push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time in ns: its duration minus the part of its
/// interval its children cover. Overlapping children count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: `(calls, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += own;
    }
    out
}

/// The spans as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}\n  {{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.start,
            s.end,
            s.run
        );
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            // Runs past its parent's end: only [90, 100) is covered.
            span("c", 90, 120, Some(0)),
            span("a.inner", 15, 20, Some(1)),
        ];
        // pass: 100 − |[10,60) ∪ [90,100)| = 100 − 60.
        assert_eq!(self_times(&spans), vec![40, 25, 30, 30, 5]);
    }

    #[test]
    fn nested_children_inside_a_sibling_do_not_double_count() {
        let spans = vec![
            span("pass", 0, 50, None),
            span("a", 0, 50, Some(0)),
            span("b", 10, 20, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![0, 50, 10]);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        let agg = by_name(s);
        assert_eq!(agg["inner"].0, 2);
        assert!(agg["outer"].1 >= agg["outer"].2);
        assert!(to_json(s).contains("\"name\":\"outer\""));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
