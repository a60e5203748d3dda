//! In-memory spans for the traced run, written out as Chrome trace-event
//! JSON (Perfetto and `chrome://tracing` open it) when the run ends.
//!
//! A span's name is `<layer>.<call>`. Its self time is its duration minus
//! the part of its interval that its child spans cover; children may run
//! on other threads (a worker's batches are children of the phase that
//! spawned the workers).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// 0 for the driving thread, 1.. for workers.
    pub tid: usize,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split_once('.').map_or(self.name, |(l, _)| l)
    }
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span; `f` receives the span's id to parent others.
    pub fn span<R>(&self, name: &'static str, parent: Option<u64>, tid: usize, f: impl FnOnce(u64) -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let r = f(id);
        let end = self.now();
        let span = Span { id, parent, name, tid, start, end };
        self.spans.lock().expect("no span recorder panicked").push(span);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("no span recorder panicked");
        spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
        spans
    }
}

/// Sum of the durations of every span called `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::dur).sum()
}

/// Self time of every span, by id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(f64, f64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                match &mut cur {
                    Some((_, ce)) if a <= *ce => *ce = ce.max(b),
                    _ => {
                        if let Some((cs, ce)) = cur {
                            covered += ce - cs;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((cs, ce)) = cur {
                covered += ce - cs;
            }
            (s.id, (s.dur() - covered).max(0.0))
        })
        .collect()
}

/// Self time summed per layer.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0.0) += selfs[&s.id];
    }
    out
}

/// The spans as a Chrome trace-event JSON array ("X" complete events,
/// microsecond timestamps); `run` tags every event with the run's id.
pub fn chrome_json(spans: &[Span], run: &str) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"run\":\"{}\"}}}}{}",
            s.name,
            s.layer(),
            s.tid,
            s.start * 1e6,
            s.dur() * 1e6,
            s.id,
            parent,
            run,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push_str("]\n");
    out
}
