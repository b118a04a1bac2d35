//! Layer spans recorded by the benchmark around calls into each layer's
//! public functions: name, start, end and the span that caused it. They
//! stay in memory and are written out once, as a Chrome trace, when the
//! traced run ends.

use std::time::Instant;

use crisp_obs::{SpanEvent, TraceLog, Track};

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Nesting span recorder for the benchmark's single thread.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` nest
    /// under it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of the last closed span named `name` (0 if none).
    pub fn last_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, Span::secs)
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// part its children cover, summed by layer (the name up to the first
    /// `.`). Children of one span never overlap, since one thread records
    /// them in sequence.
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e9;
            match by_layer.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, t)) => *t += own,
                None => by_layer.push((layer, own)),
            }
        }
        by_layer
    }

    /// The spans as a trace log for the `crisp-obs` Chrome exporter:
    /// microsecond timestamps, one track per nesting depth, and the parent
    /// span named in each event's args.
    pub fn to_trace_log(&self) -> TraceLog {
        let depth = |mut i: usize| {
            let mut d = 0;
            while let Some(p) = self.spans[i].parent {
                d += 1;
                i = p;
            }
            d
        };
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| SpanEvent {
                track: Track::Stream(depth(i)),
                name: s.name.to_string(),
                cat: "perfbench",
                start: s.start_ns / 1_000,
                dur: ((s.end_ns - s.start_ns) / 1_000).max(1),
                args: vec![
                    ("id".to_string(), i.to_string()),
                    (
                        "parent".to_string(),
                        s.parent.map_or("none".to_string(), |p| {
                            format!("{}#{p}", self.spans[p].name)
                        }),
                    ),
                ],
            })
            .collect();
        TraceLog::from_parts(events, Vec::new(), Vec::new(), Vec::new())
    }
}
