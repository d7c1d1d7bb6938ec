//! Benchmark-side span tracing. Spans are recorded from the benchmark's own
//! files around the calls into each layer (spans inside the program are a
//! later issue), kept in memory, and written out when the run ends.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = 0;

/// One recorded interval. `req` is shared by every span of one traced
/// operation; `n` is the work count at that boundary (rows scanned, rows
/// folded, expressions evaluated) so per-row numbers are measured where the
/// work happens.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub n: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder; one per client thread, merged at the end.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_req: u32,
}

impl Tracer {
    /// `epoch` is shared between the tracers of one run so that their spans
    /// sit on one time axis; `first_req` keeps request ids apart.
    pub fn new(epoch: Instant, first_req: u32, capacity: usize) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
            next_req: first_req,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of a new traced operation.
    pub fn root(&mut self, name: &'static str) -> usize {
        self.next_req += 1;
        let req = self.next_req;
        self.open(name, NO_PARENT, req)
    }

    /// Open another root span of an operation that already has an id (its
    /// probes, run after the fact).
    pub fn root_of(&mut self, name: &'static str, req: u32) -> usize {
        self.open(name, NO_PARENT, req)
    }

    /// The operation id of the span at `idx`.
    pub fn req_of(&self, idx: usize) -> u32 {
        self.spans[idx].req
    }

    /// Summed durations of the direct children of the span at `parent`.
    pub fn children_ns(&self, parent: usize) -> u64 {
        let id = self.spans[parent].id;
        self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == id)
            .map(Span::duration_ns)
            .sum()
    }

    /// Open a child of the span at `parent` (an index this tracer returned).
    pub fn child(&mut self, name: &'static str, parent: usize) -> usize {
        let (id, req) = (self.spans[parent].id, self.spans[parent].req);
        self.open(name, id, req)
    }

    fn open(&mut self, name: &'static str, parent: u32, req: u32) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            // Ids are unique within a tracer; `merge` makes them unique
            // across tracers.
            id: idx as u32 + 1,
            parent,
            req,
            name,
            start_ns,
            end_ns: start_ns,
            n: 0,
        });
        idx
    }

    /// Close a span, recording how much work it covered.
    pub fn close(&mut self, idx: usize, n: usize) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.n = n.min(u32::MAX as usize) as u32;
    }

    /// Time `f` as a child span of `parent`; `f` returns its result and the
    /// work count.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> (T, usize),
    ) -> T {
        let idx = self.child(name, parent);
        let (out, n) = f();
        self.close(idx, n);
        out
    }

    pub fn duration_ns(&self, idx: usize) -> u64 {
        self.spans[idx].duration_ns()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread span lists, renumbering ids so they stay unique.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        let shift = out.len() as u32;
        out.extend(part.into_iter().map(|mut s| {
            s.id += shift;
            if s.parent != NO_PARENT {
                s.parent += shift;
            }
            s
        }));
    }
    out
}

/// Each span's self time: its duration minus the part of its interval that
/// its child spans cover. Children are clipped to the parent and overlapping
/// children are counted once (their union, not their sum).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(parent) = by_id.get(&s.parent) {
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children.entry(s.parent).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(intervals) = children.get_mut(&s.id) {
                intervals.sort_unstable();
                let mut reach = 0u64;
                for &(lo, hi) in intervals.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Per-unit durations (ns / `n`) of every span called `name` that covered
/// any work.
pub fn durations_per_unit(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.n > 0)
        .map(|s| s.duration_ns() as f64 / f64::from(s.n))
        .collect()
}

/// Write spans as one JSON array of `{id, parent, req, name, start_ns,
/// end_ns, n}` objects, one span per line.
pub fn write_json(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    out.write_all(b"[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"n\":{}}}{sep}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, s.n
        )?;
    }
    out.write_all(b"]\n")?;
    // Dropping a BufWriter discards write errors; surface them here.
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "t",
            start_ns,
            end_ns,
            n: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = vec![
            span(1, NO_PARENT, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 70),
            // Grandchild: covers part of span 2 only.
            span(4, 2, 15, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 20 - 20);
        assert_eq!(st[&2], 20 - 5);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&4], 5);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span(1, NO_PARENT, 0, 100),
            span(2, 1, 10, 60),
            span(3, 1, 40, 80),
            // Entirely inside span 2's interval.
            span(4, 1, 20, 30),
            // Sticks out past the parent: clipped to [90, 100].
            span(5, 1, 90, 150),
        ];
        let st = self_times(&spans);
        // Union of children: [10, 80] and [90, 100] = 80 covered.
        assert_eq!(st[&1], 20);
    }

    #[test]
    fn merge_keeps_ids_unique_and_parents_attached() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0, 4);
        let ra = a.root("op");
        a.span("x", ra, || ((), 3));
        a.close(ra, 0);
        let mut b = Tracer::new(epoch, 1_000, 4);
        let rb = b.root("op");
        b.span("y", rb, || ((), 0));
        b.close(rb, 0);
        let merged = merge(vec![a.into_spans(), b.into_spans()]);
        let ids: Vec<u32> = merged.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        assert_eq!(merged[1].parent, 1);
        assert_eq!(merged[3].parent, 3);
        assert_ne!(merged[0].req, merged[2].req);
        assert_eq!(merged[1].n, 3);
        assert_eq!(durations_per_unit(&merged, "y").len(), 0);
        assert_eq!(durations(&merged, "x").len(), 1);
    }
}
