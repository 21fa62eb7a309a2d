//! In-memory spans for traced runs.
//!
//! The benchmark wraps each call into a layer in a span: a name, start and
//! end, the enclosing span, and the CEGIS iteration (or sweep point, or
//! fuzz target) it belongs to. Spans stay in memory and are written as
//! JSONL when the run ends. A span's self time is its duration minus the
//! part of it that its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, as `<module>.<call>`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Iteration the span belongs to.
    pub iter: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans for one traced call, shared by the wrappers through a
/// `RefCell` (every wrapped call runs on the benchmark's one thread).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: Option<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), iter: None }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tag spans opened from now on with iteration `iter`.
    pub fn set_iter(&mut self, iter: Option<u64>) {
        self.iter = iter;
    }

    /// The iteration new spans are tagged with.
    pub fn iter(&self) -> Option<u64> {
        self.iter
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Run `f` inside a span named `name`. The tracer is not borrowed while
/// `f` runs, so `f` may open spans of its own.
pub fn in_span<R>(tracer: &RefCell<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = tracer.borrow_mut().enter(name);
    let out = f();
    tracer.borrow_mut().exit(id);
    out
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Children's intervals per span index.
fn child_intervals(spans: &[Span]) -> Vec<Vec<(u64, u64)>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    kids
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children count once; a child reaching
/// outside its parent is clipped).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    child_intervals(spans)
        .iter_mut()
        .zip(spans)
        .map(|(kids, s)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Share of span `root`'s duration covered by its direct children.
pub fn coverage(spans: &[Span], root: usize) -> f64 {
    let r = &spans[root];
    if r.dur_ns() == 0 {
        return 0.0;
    }
    let mut kids = child_intervals(spans).swap_remove(root);
    covered_ns(r.start_ns, r.end_ns, &mut kids) as f64 / r.dur_ns() as f64
}

/// Per-name totals of spans: `(count, total ns, max ns)`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 = e.2.max(s.dur_ns());
    }
    out
}

/// Per-iteration totals of spans named `name`, in seconds, by iteration.
pub fn per_iter_s(spans: &[Span], name: &str) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        if let Some(i) = s.iter {
            *out.entry(i).or_insert(0.0) += s.dur_ns() as f64 / 1e9;
        }
    }
    out
}

/// The spans as JSONL, one object per line, with their self time.
pub fn jsonl(spans: &[Span]) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let mut out = String::new();
    for (id, (s, self_ns)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let _ = writeln!(
            out,
            r#"{{"id": {id}, "name": "{}", "start_ns": {}, "end_ns": {}, "self_ns": {self_ns}, "parent": {}, "iter": {}}}"#,
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.iter),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, iter: None }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: 10..50 covered once
            span("c", 90, 120, Some(0)), // clipped to 90..100
            span("a.inner", 12, 18, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
        assert!((coverage(&spans, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_root() {
        let spans = vec![
            span("root", 0, 10, None),
            span("child", 0, 4, Some(0)),
            span("grandchild", 0, 4, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![6, 0, 4]);
    }

    #[test]
    fn leaf_and_empty_spans() {
        let spans = vec![span("leaf", 5, 5, None)];
        assert_eq!(self_times_ns(&spans), vec![0]);
        assert_eq!(coverage(&spans, 0), 0.0);
    }

    #[test]
    fn tracer_nests_and_tags_iterations() {
        let t = RefCell::new(Tracer::default());
        in_span(&t, "call", || {
            t.borrow_mut().set_iter(Some(1));
            in_span(&t, "inner", || std::hint::black_box(3u64.pow(2)));
        });
        let t = t.into_inner();
        let spans = t.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].iter, Some(1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(jsonl(spans).lines().count(), 2);
        assert_eq!(totals_by_name(spans)["inner"].0, 1);
        assert_eq!(per_iter_s(spans, "inner").keys().copied().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::default();
        let outer = t.enter("outer");
        let _inner = t.enter("inner");
        t.exit(outer);
    }
}
