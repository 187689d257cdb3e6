//! Spans and counters recorded around the replica's calls into each
//! layer, kept in memory and written out when the run ends.
//!
//! A disabled [`Tracer`] reads no clock and records nothing, so the
//! untraced replica pays one branch per boundary.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` is `None` for a request's root span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything recorded for one request.
#[derive(Debug, Default)]
pub struct RequestRecord {
    pub label: String,
    pub spans: Vec<Span>,
    /// Counts taken at layer boundaries (bytes read, episodes decoded,
    /// opens, mining calls, warm attempts and hits).
    pub counters: BTreeMap<&'static str, u64>,
}

#[derive(Default)]
struct State {
    requests: Vec<RequestRecord>,
    open: Vec<u32>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    state: RefCell<State>,
}

/// Ends its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            state: RefCell::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a request; its root span is the returned guard.
    pub fn request(&self, label: &str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        {
            let mut state = self.state.borrow_mut();
            assert!(state.open.is_empty(), "requests do not nest");
            state.requests.push(RequestRecord {
                label: label.to_owned(),
                ..RequestRecord::default()
            });
        }
        self.span("request")
    }

    /// Opens a span under the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let start_ns = self.now_ns();
        let mut guard = self.state.borrow_mut();
        let state = &mut *guard;
        let record = state.requests.last_mut().expect("span outside a request");
        let id = record.spans.len() as u32;
        record.spans.push(Span {
            id,
            parent: state.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        state.open.push(id);
        SpanGuard {
            tracer: self,
            index: Some(id as usize),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Adds `n` to a counter of the current request.
    pub fn add(&self, counter: &'static str, n: u64) {
        if !self.on {
            return;
        }
        let mut state = self.state.borrow_mut();
        let record = state.requests.last_mut().expect("count outside a request");
        *record.counters.entry(counter).or_insert(0) += n;
    }

    /// Hands over every recorded request.
    pub fn take(&self) -> Vec<RequestRecord> {
        std::mem::take(&mut self.state.borrow_mut().requests)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end_ns = self.tracer.now_ns();
        let mut state = self.tracer.state.borrow_mut();
        state.open.pop();
        if let Some(record) = state.requests.last_mut() {
            record.spans[index].end_ns = end_ns;
        }
    }
}

/// Self time of every span of one request, index-aligned with `spans`:
/// its duration minus the part of its interval that its children cover.
/// Children may overlap each other (parallel work) or stick out of the
/// parent; only the covered part inside the parent counts, once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// One JSON line per span, with the request label on root spans and the
/// request's counters on a line of its own.
pub fn to_jsonl(records: &[RequestRecord], out: &mut String) {
    for (request, record) in records.iter().enumerate() {
        for span in &record.spans {
            let _ = write!(
                out,
                "{{\"req\":{request},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                span.id,
                span.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                span.name,
                span.start_ns,
                span.end_ns,
            );
            if span.parent.is_none() {
                let _ = write!(out, ",\"label\":\"{}\"", json_escape(&record.label));
            }
            out.push_str("}\n");
        }
        let counters: Vec<String> = record
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"req\":{request},\"counters\":{{{}}}}}",
            counters.join(",")
        );
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > a [10,40) > b [15,25); root > c [50,60)
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two parallel children [10,50) and [30,70), plus one that sticks
        // out of the parent [90,130): covered = [10,70) + [90,100).
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 90, 130),
            span(4, Some(0), 20, 40),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_records_nesting_and_counters() {
        let tracer = Tracer::new(true);
        {
            let _root = tracer.request("analyze a.lgz");
            tracer.time("io.read", || tracer.add("io.read.bytes", 10));
            let _open = tracer.span("trace.open");
            tracer.time("trace.decode", || ());
        }
        let records = tracer.take();
        let names: Vec<_> = records[0]
            .spans
            .iter()
            .map(|s| (s.name, s.parent))
            .collect();
        assert_eq!(
            names,
            vec![
                ("request", None),
                ("io.read", Some(0)),
                ("trace.open", Some(0)),
                ("trace.decode", Some(2)),
            ]
        );
        assert_eq!(records[0].counters["io.read.bytes"], 10);
        let mut out = String::new();
        to_jsonl(&records, &mut out);
        assert!(out.starts_with("{\"req\":0,\"span\":0,\"parent\":null,\"name\":\"request\""));
        assert!(out.contains("\"label\":\"analyze a.lgz\""));

        let off = Tracer::new(false);
        let _root = off.request("x");
        off.time("io.read", || off.add("io.read.bytes", 1));
        drop(_root);
        assert!(off.take().is_empty());
    }
}
