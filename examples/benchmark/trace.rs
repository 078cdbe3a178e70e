//! In-memory spans recorded from the benchmark's own files, around each
//! boundary it can see from outside the program (set-up stages, the
//! `Scenario::run()` call, result checks, layer replays). Spans are kept
//! in memory and written once, at exit; scoped counters *inside* the
//! program are a later change (ROADMAP item 1's `profile` feature).

use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    rep: Option<usize>,
}

/// Handle to an open span; `None` when recording is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder. When `enabled` is false every call is a no-op, so the
/// untraced reps pay nothing but a branch.
pub struct Tracer {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: Option<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: None,
        }
    }

    /// Tag spans opened from now on with rep number `rep`.
    pub fn set_rep(&mut self, rep: Option<usize>) {
        self.rep = rep;
    }

    /// Open a span whose parent is the innermost span still open.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The recorded spans as a JSON array (ids are array positions).
    pub fn to_json(&self, workload: &str) -> Json {
        assert!(self.open.is_empty(), "span left open at exit");
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut fields = vec![
                        ("id", Json::Int(id as u64)),
                        ("name", Json::str(&s.name)),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        ("workload", Json::str(workload)),
                    ];
                    if let Some(p) = s.parent {
                        fields.push(("parent", Json::Int(p as u64)));
                    }
                    if let Some(r) = s.rep {
                        fields.push(("rep", Json::Int(r as u64)));
                    }
                    Json::obj(fields)
                })
                .collect(),
        )
    }
}
