//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is `<layer>.<call>`; `txn` ties the spans of one
/// transaction together; `parent` is the index of the enclosing span.
pub struct Span {
    pub name: &'static str,
    pub txn: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

/// Per-name totals: calls, summed duration and summed self time (the
/// duration minus the part covered by child spans).
#[derive(Default, Clone, Copy)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.calls.max(1) as f64
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, txn: u64, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            txn,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        u32::try_from(self.spans.len() - 1).expect("span count fits u32")
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        txn: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, txn, Some(parent));
        let r = f();
        self.close(id);
        r
    }

    /// Totals per span name, with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// The cost of recording one empty span, nanoseconds: the floor under
    /// every per-call figure the replay reports.
    pub fn empty_span_ns() -> f64 {
        let mut t = Tracer::new();
        let root = t.open("calibrate", 0, None);
        for _ in 0..10_000 {
            t.time("empty", 0, root, || ());
        }
        t.close(root);
        t.totals()["empty"].mean_ns()
    }

    /// Every span as one JSON object per line.
    pub fn jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"txn\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.txn, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_spans() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                name: "root",
                txn: 1,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "child",
                txn: 1,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "child",
                txn: 1,
                parent: Some(0),
                start_ns: 50,
                end_ns: 60,
            },
        ];
        let totals = t.totals();
        assert_eq!(totals["root"].total_ns, 100);
        assert_eq!(totals["root"].self_ns, 60);
        assert_eq!(totals["child"].calls, 2);
        assert_eq!(totals["child"].mean_ns(), 20.0);
    }
}
