//! Outside-in span recording: the benchmark wraps each call it makes
//! into a crate's public API in a named span. Spans stay in memory and
//! are written once, at exit.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One timed call. `parent` indexes the enclosing span in the same
/// trace; spans of one operation (a study, a scenario, a replica die)
/// share a `run_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off, [`Tracer::span`] only runs the
/// closure, so untimed-layer bookkeeping never reaches an untraced rep.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run_id: u64,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags the spans opened from now on with `run_id`.
    pub fn set_run(&mut self, run_id: u64) {
        self.run_id = run_id;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run_id: self.run_id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            span.duration_ns()
                .saturating_sub(covered(span.start_ns, span.end_ns, kids))
        })
        .collect()
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (lo, hi) in intervals {
        let (lo, hi) = (lo.max(reach), hi.min(end));
        if hi > lo {
            total += hi - lo;
            reach = hi;
        }
    }
    total
}

/// Self time summed per span name. Each root's self time — the part
/// of a traced pass no layer span covers — is booked as `other`.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let name = if span.parent.is_none() {
            "other"
        } else {
            span.name
        };
        *out.entry(name).or_insert(0) += own;
    }
    out
}

/// Share of the roots' wall time their direct children cover.
pub fn coverage(spans: &[Span]) -> f64 {
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    let other = self_by_name(spans).get("other").copied().unwrap_or(0);
    if root_ns == 0 {
        0.0
    } else {
        1.0 - other as f64 / root_ns as f64
    }
}

/// The spans as the trace file lists them.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj()
                    .with("name", s.name)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("parent", s.parent.map_or(Value::Null, Value::from))
                    .with("run_id", s.run_id)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let spans = [
            span("pass", 0, 100, None),
            span("setup", 0, 10, Some(0)),
            span("run", 20, 90, Some(0)),
            span("inner", 30, 50, Some(2)),
            span("inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 40, 20, 10]);
        let by_name = self_by_name(&spans);
        assert_eq!(by_name["other"], 20);
        assert_eq!(by_name["inner"], 30);
        assert_eq!(by_name["run"], 40);
        assert!((coverage(&spans) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("pass", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 95, 120, Some(0)),
        ];
        // Union of children inside the parent: [10, 80) + [95, 100).
        assert_eq!(self_times(&spans)[0], 100 - 75);
    }

    #[test]
    fn the_recorder_nests_and_tags_runs() {
        let mut t = Tracer::on();
        t.span("pass", |t| {
            t.set_run(3);
            t.span("child", |t| t.span("grandchild", |_| ()));
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[0].run_id, s[2].run_id), (0, 3));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut off = Tracer::off();
        assert_eq!(off.span("pass", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
