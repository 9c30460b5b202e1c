//! A span recorder local to the benchmark.
//!
//! Spans wrap the benchmark's own calls into each crate's public
//! functions: `{name, parent, request id, start, dur}`, kept in memory
//! and written out as JSON lines when the traced run ends. A span's
//! self time is its duration minus the part of its interval that its
//! children cover, so nested layers are never counted twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub req: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str, req: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            req,
            start_ns: self.now_ns(),
            dur_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].dur_ns = end - self.spans[top].start_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, req);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span (used for spans timed on worker threads).
    pub fn record(&mut self, name: &str, req: u64, start: Instant, dur_ns: u64) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            req,
            start_ns,
            dur_ns,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median duration in microseconds of every span named `name`, with
    /// the sample count.
    pub fn median_us(&self, name: &str) -> (f64, usize) {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect();
        (crate::stats::median(&v), v.len())
    }

    /// Per request id, the summed self time (ns) of every span that is
    /// not a request root (a span without a parent).
    pub fn attributed_ns_by_request(&self) -> BTreeMap<u64, u64> {
        let own = self_times(&self.spans);
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            if s.parent.is_some() {
                *out.entry(s.req).or_insert(0) += t;
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"req\":{},\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{own}}}",
                s.name, s.req, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
/// Overlapping children (work a span ran in parallel) cover time once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = lo;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name: "s".into(),
            parent,
            req: 0,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_when_they_overlap() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30), // 10..40
            span(Some(0), 20, 40), // 20..60, overlaps the first child
            span(Some(0), 90, 30), // 90..120, clipped to 90..100
            span(Some(1), 15, 5),  // grandchild: not the root's child
        ];
        let own = self_times(&spans);
        // Root: 100 minus the union 10..60 and 90..100 = 100 - 60.
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 25);
        assert_eq!(own[2], 40);
        assert_eq!(own[4], 5);
    }

    #[test]
    fn recorder_nests_and_attributes_by_request() {
        let mut r = Recorder::new();
        let root = r.open("request", 7);
        r.time("layer", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.close(root);
        assert_eq!(r.spans()[1].parent, Some(0));
        let by_req = r.attributed_ns_by_request();
        assert!(by_req[&7] >= 2_000_000);
        assert!(by_req[&7] <= r.spans()[0].dur_ns);
        assert_eq!(r.median_us("layer").1, 1);
    }
}
