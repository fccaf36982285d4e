//! In-memory span collection for the traced run.
//!
//! One [`Collector`] per engine instance gathers three kinds of span into
//! a per-statement tree: a root `stmt` span the runner opens around
//! `Mood::execute`; the engine's own `parse`/`bind`/`optimize`/`execute`/
//! `op:*` spans, received by subscribing [`EngineSink`] to `Mood::tracer()`;
//! and leaf spans the `ProbeDisk`/`ProbeLog` wrappers emit around device
//! calls. A span's self time is its duration minus the part of it its
//! children cover, so the self times of a statement sum to its root span.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mood_core::trace::{SpanRecord, Subscriber};

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Position of the statement in the traced list.
    pub stmt: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Num(self.id as f64)),
            ("parent", Json::Num(self.parent as f64)),
            ("stmt", Json::Num(self.stmt as f64)),
            ("name", Json::Str(self.name.clone())),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
        ])
    }
}

/// A span as it arrives, before the statement's tree is built.
struct Raw {
    name: String,
    start_ns: u64,
    end_ns: u64,
    /// Engine spans carry their nesting depth and arrive in post-order;
    /// probe spans (`None`) are placed by interval containment.
    depth: Option<usize>,
}

#[derive(Default)]
struct State {
    pending: Vec<Raw>,
    done: Vec<Span>,
    next_id: u64,
}

pub struct Collector {
    epoch: Instant,
    enabled: AtomicBool,
    state: Mutex<State>,
}

impl Collector {
    pub fn new() -> Arc<Collector> {
        Arc::new(Collector {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            state: Mutex::new(State::default()),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("span collector lock poisoned")
    }

    /// A probe (device-call) span; dropped unless a traced statement is open.
    pub fn leaf(&self, name: &str, start_ns: u64, end_ns: u64) {
        if self.enabled() {
            self.lock().pending.push(Raw {
                name: name.to_string(),
                start_ns,
                end_ns,
                depth: None,
            });
        }
    }

    /// Close statement `stmt`: its root span is `[start_ns, end_ns]`, and
    /// every span received since the previous close becomes a descendant.
    pub fn close_stmt(&self, stmt: u64, start_ns: u64, end_ns: u64) {
        let mut st = self.lock();
        let raws = std::mem::take(&mut st.pending);
        let base = st.next_id + 1;
        st.next_id += 1 + raws.len() as u64;
        let mut spans = vec![Span {
            id: base,
            parent: 0,
            stmt,
            name: "stmt".into(),
            start_ns,
            end_ns,
        }];
        // Engine spans finish children-first: a span of depth d adopts the
        // still-orphaned spans of depth d+1 that arrived before it.
        let mut orphans: Vec<(usize, usize)> = Vec::new(); // (depth, index in spans)
        for raw in &raws {
            let idx = spans.len();
            spans.push(Span {
                id: base + idx as u64,
                parent: base,
                stmt,
                name: raw.name.clone(),
                start_ns: raw.start_ns,
                end_ns: raw.end_ns,
            });
            if let Some(d) = raw.depth {
                while let Some(&(od, oi)) = orphans.last() {
                    if od <= d {
                        break;
                    }
                    spans[oi].parent = base + idx as u64;
                    orphans.pop();
                }
                orphans.push((d, idx));
            }
        }
        // Probe spans hang off the tightest engine span that contains them.
        for (i, raw) in raws.iter().enumerate() {
            if raw.depth.is_some() {
                continue;
            }
            let host = raws
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    r.depth.is_some() && r.start_ns <= raw.start_ns && raw.end_ns <= r.end_ns
                })
                .min_by_key(|(_, r)| r.end_ns - r.start_ns);
            if let Some((h, _)) = host {
                spans[i + 1].parent = base + 1 + h as u64;
            }
        }
        // Make the tree nest exactly, top-down. Engine spans are
        // timestamped on arrival (end = now, start = end − elapsed), so a
        // child can stick out of its parent by the dispatch delay: clip it.
        // Siblings that overlap (device calls of parallel workers) are made
        // sequential, the overlap going to the earlier one, so that time
        // is attributed once and self times add up to the root.
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for i in 1..spans.len() {
            kids[(spans[i].parent - base) as usize].push(i);
        }
        let mut todo = vec![0usize];
        while let Some(p) = todo.pop() {
            let (mut reach, end) = (spans[p].start_ns, spans[p].end_ns);
            kids[p].sort_by_key(|&i| spans[i].start_ns);
            for &i in &kids[p] {
                spans[i].start_ns = spans[i].start_ns.clamp(reach, end);
                spans[i].end_ns = spans[i].end_ns.clamp(spans[i].start_ns, end);
                reach = spans[i].end_ns;
                todo.push(i);
            }
        }
        st.done.extend(spans);
    }

    /// Every finished span, in statement order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().done)
    }
}

/// Forwards the engine's finished spans to a [`Collector`].
pub struct EngineSink(pub Arc<Collector>);

impl Subscriber for EngineSink {
    fn on_span(&self, span: &SpanRecord) {
        if !self.0.enabled() {
            return;
        }
        let end_ns = self.0.now_ns();
        self.0.lock().pending.push(Raw {
            name: span.name.clone(),
            start_ns: end_ns.saturating_sub(span.elapsed.as_nanos() as u64),
            end_ns,
            depth: Some(span.depth),
        });
    }
}

/// Self time per span id: duration minus the children's durations (the
/// collector made siblings disjoint and nested inside their parent).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        *covered.entry(s.parent).or_default() += s.dur();
    }
    spans
        .iter()
        .map(|s| (s.id, s.dur() - covered.get(&s.id).copied().unwrap_or(0)))
        .collect()
}

/// Largest relative gap, over statements, between a root span and the sum
/// of the self times beneath it. The tree is made to nest exactly, so
/// anything but zero is a bug in the collector.
pub fn telescope_error(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let mut root: HashMap<u64, u64> = HashMap::new();
    let mut sum: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent == 0 {
            root.insert(s.stmt, s.dur());
        }
        *sum.entry(s.stmt).or_default() += selfs[&s.id];
    }
    root.iter()
        .map(|(stmt, &r)| (sum[stmt] as f64 - r as f64).abs() / (r.max(1) as f64))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn engine(c: &Arc<Collector>, name: &str, depth: usize, elapsed_ns: u64) {
        EngineSink(c.clone()).on_span(&SpanRecord {
            name: name.into(),
            depth,
            attrs: Vec::new(),
            rows: None,
            delta: Default::default(),
            elapsed: Duration::from_nanos(elapsed_ns),
        });
    }

    #[test]
    fn tree_is_rebuilt_from_post_order_and_telescopes() {
        let c = Collector::new();
        c.set_enabled(true);
        let t0 = c.now_ns();
        std::thread::sleep(Duration::from_millis(2));
        engine(&c, "parse", 0, 1_000);
        let d0 = c.now_ns();
        c.leaf("disk.read", d0, d0 + 10);
        c.leaf("disk.read", d0 + 5, d0 + 20); // overlapping worker
        std::thread::sleep(Duration::from_millis(1));
        engine(&c, "op:BIND", 2, 1_500_000);
        engine(&c, "op:SELECT", 1, 1_600_000);
        engine(&c, "execute", 0, 1_700_000);
        let t1 = c.now_ns();
        c.close_stmt(7, t0, t1);
        let spans = c.take();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("stmt").parent, 0);
        assert_eq!(by_name("parse").parent, by_name("stmt").id);
        assert_eq!(by_name("execute").parent, by_name("stmt").id);
        assert_eq!(by_name("op:SELECT").parent, by_name("execute").id);
        assert_eq!(by_name("op:BIND").parent, by_name("op:SELECT").id);
        assert_eq!(by_name("disk.read").parent, by_name("op:BIND").id);
        assert!(spans.iter().all(|s| s.stmt == 7));
        assert_eq!(telescope_error(&spans), 0.0);
        // Overlapping leaves cover 20 ns of their parent, not 25.
        let selfs = self_times(&spans);
        let bind = by_name("op:BIND");
        assert_eq!(selfs[&bind.id], bind.dur() - 20);
    }

    #[test]
    fn disabled_collector_drops_spans() {
        let c = Collector::new();
        c.leaf("disk.read", 1, 2);
        engine(&c, "parse", 0, 10);
        c.close_stmt(0, 0, 5);
        assert_eq!(c.take().len(), 1, "only the root");
    }
}
