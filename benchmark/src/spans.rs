//! In-memory spans around the benchmark's own calls into each layer.
//! Spans stay in a `Vec` while timing and are written out as JSON lines
//! when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the index of the span that caused
/// it; spans of one request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Time `work` as a child span of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, work: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let span = self.open(name, Some(parent), request);
        let out = work();
        self.close(span);
        out
    }
}

/// Self time per span: its duration minus the part of that interval its
/// child spans cover (children of one span do not overlap each other
/// here, since one thread records them in sequence).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for child in spans {
        if let Some(p) = child.parent {
            let parent = &spans[p];
            let start = child.start_ns.max(parent.start_ns);
            let end = child.end_ns.min(parent.end_ns);
            own[p] = own[p].saturating_sub(end.saturating_sub(start));
        }
    }
    own
}

/// Write spans as JSON lines: id, parent, request, name, start, end.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            parent,
            request: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_interval_children_cover() {
        let spans = vec![
            span(None, 0, 100),     // root: 100 − (30 + 20 + 10) = 40
            span(Some(0), 10, 40),  // child a: 30 − 5 = 25
            span(Some(1), 20, 25),  // grandchild: 5
            span(Some(0), 50, 70),  // child b: 20
            span(Some(0), 90, 130), // child overrunning its parent counts 10
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 25, 5, 20, 40]);
    }

    #[test]
    fn recorder_nests_children_under_the_request_span() {
        let mut rec = Recorder::with_capacity(4);
        let root = rec.open("replay.request", None, 42);
        let out = rec.time("protocol.decode", root, || 7);
        rec.close(root);
        assert_eq!(out, 7);
        assert_eq!(rec.spans[1].parent, Some(root));
        assert_eq!(rec.spans[1].request, 42);
        assert!(rec.spans[0].start_ns <= rec.spans[1].start_ns);
        assert!(rec.spans[1].end_ns <= rec.spans[0].end_ns);
    }
}
