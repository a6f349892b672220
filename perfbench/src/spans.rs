//! In-memory spans recorded around the benchmark's calls into each layer,
//! and the self time derived from them.

use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` on the tracer's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the part before the first dot.
    pub name: &'static str,
    /// The job the span belongs to (shared by every span of one job).
    pub job: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans in memory; nothing is written until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(Instant::now()),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns(Instant::now());
        out
    }

    /// Runs `f` as the root span of job `job`.
    pub fn job<T>(&mut self, job: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.job = job;
        self.span("job", f)
    }

    /// Records an interval observed rather than wrapped (e.g. the time
    /// between two protocol responses), as a child of the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(start),
            end_ns: self.now_ns(end),
        };
        self.spans.push(span);
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children may overlap one another or stick
/// out of the parent; only the union inside the parent counts.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The spans as a JSON array, with each span's self time.
#[must_use]
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(selfs)
        .map(|(s, own)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.job, s.start_ns, s.end_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("job", None, 0, 100),
            span("a.x", Some(0), 10, 40),
            span("b.y", Some(0), 30, 60),
            // Sticks out of the parent: only [90, 100) is inside it.
            span("c.z", Some(0), 90, 120),
            // A grandchild covers part of its own parent, not the root.
            span("a.w", Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 30, 10]);
    }

    #[test]
    fn nested_children_inside_one_another() {
        let spans = [
            span("job", None, 0, 100),
            span("a.x", Some(0), 10, 90),
            span("b.y", Some(0), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![20, 80, 10]);
    }

    #[test]
    fn tracer_links_children_to_the_open_span() {
        let mut t = Tracer::new();
        t.job(7, |t| {
            t.span("a.x", |t| t.span("a.y", |_| ()));
            t.span("b.z", |_| ());
        });
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["job", "a.x", "a.y", "b.z"]
        );
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), Some(0)]
        );
        assert!(s.iter().all(|s| s.job == 7 && s.end_ns >= s.start_ns));
        let total: u64 = self_times(s).iter().sum();
        assert_eq!(total, s[0].duration_ns(), "self times partition the root");
    }
}
