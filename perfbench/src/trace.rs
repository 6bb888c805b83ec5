//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name, start, end, parent and the id of the operation it
//! belongs to. Spans stay in memory and are written out when the run
//! ends. A layer's self time is its span time minus the part covered by
//! its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// A per-thread span recorder; [`Tracer::off`] records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder whose times count from `epoch`, shared by the tracers
    /// of one run.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            on: true,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now();
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans close in order");
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, op);
        let r = f();
        self.end(s);
        r
    }
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, &c) in spans.iter().zip(&child_ns) {
        let total = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        // Children run inside their parent on one thread, so their
        // intervals are disjoint and their sum is the covered part.
        e.2 += total.saturating_sub(c);
    }
    out
}

/// Spans as JSON lines, one per span (`thread` tells tracers apart).
pub fn to_jsonl(tracers: &[(usize, &[Span])]) -> String {
    let mut out = String::new();
    for (thread, spans) in tracers {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{id},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 1,
            },
            Span {
                name: "b",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 70,
                parent: Some(0),
                op: 1,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["a"], (1, 100, 50));
        assert_eq!(t["b"], (2, 50, 50));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let s = t.begin("x", 0);
        t.end(s);
        assert!(t.spans.is_empty());
    }
}
