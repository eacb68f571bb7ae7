//! In-memory span log for the traced run: every span has a name, a
//! start, an end, the span that was open when it started, and the id of
//! the repetition it belongs to. Spans are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open: `end_ns == u64::MAX`) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the log.
    pub id: u32,
    /// The span that was innermost-open when this one started.
    pub parent: Option<u32>,
    /// Layer boundary name, e.g. `sim.measure`.
    pub name: &'static str,
    /// Repetition id.
    pub run: u32,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span stack plus the finished spans.
pub struct SpanLog {
    epoch: Instant,
    run: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, run: u32) -> SpanLog {
        SpanLog {
            epoch,
            run,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let parent = self.stack.last().map(|&p| self.spans[p].id);
        self.spans.push(Span {
            id: idx as u32,
            parent,
            name,
            run: self.run,
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes span `idx` (and any span opened inside it and left open).
    pub fn close(&mut self, idx: usize) {
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// The spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the log.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<(u32, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry((s.run, p))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&(s.run, s.id)).cloned().unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach).min(s.end_ns);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self seconds per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// One JSON object per line: `id`, `parent`, `name`, `run`,
/// `start_ns`, `end_ns`, `self_ns`.
pub fn to_ndjson(spans: &[Span]) -> String {
    let mut out = String::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"run\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            s.id, s.name, s.run, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            run: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 60),
            span(3, Some(1), 12, 20),
        ];
        assert_eq!(self_ns(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),
            span(3, Some(0), 90, 120),
        ];
        assert_eq!(self_ns(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn runs_do_not_share_children() {
        let mut other = span(1, Some(0), 10, 90);
        other.run = 1;
        let spans = vec![span(0, None, 0, 100), other];
        assert_eq!(self_ns(&spans)[0], 100);
    }

    #[test]
    fn log_nests_and_closes_leftovers() {
        let mut log = SpanLog::new(Instant::now(), 7);
        let a = log.open("a");
        let b = log.open("b");
        let _c = log.open("c");
        log.close(b);
        let d = log.open("d");
        log.close(d);
        log.close(a);
        let s = log.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        assert!(s.iter().all(|x| x.end_ns != u64::MAX && x.run == 7));
        assert!(to_ndjson(s).lines().count() == 4);
    }
}
