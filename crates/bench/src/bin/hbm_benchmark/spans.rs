//! In-memory spans for the traced run, and per-layer time accounting.
//!
//! Spans are recorded by the benchmark around its calls into each layer —
//! never inside the program under test — kept in memory, and written out
//! when the run ends. A span's `trace` is shared by every span of one pass,
//! request or decomposed body; `span`/`parent` give the tree.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layer name of benchmark-side container spans. Their exclusive time is
/// the benchmark's own work, reported as `unattributed_s`.
pub const NO_LAYER: &str = "";

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub span: u64,
    pub trace: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub layer: &'static str,
    pub workload: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// One JSON line: `{id, span, parent, name, layer, workload, thread,
    /// start_ns, end_ns}`, where `id` is the shared pass/request id.
    pub fn to_json_line(&self) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"id\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\
             \"workload\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            self.trace,
            self.span,
            self.name,
            self.layer,
            self.workload,
            self.thread,
            self.start_ns,
            self.end_ns
        )
    }
}

/// A span that has started and not yet ended.
pub struct Open {
    span: u64,
    trace: u64,
    parent: Option<u64>,
    name: &'static str,
    layer: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.span
    }
}

/// Collects the spans of one traced workload run.
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<Option<u64>> = const { Cell::new(None) };
}

/// A small stable id for the calling thread (0 for the first thread that
/// records a span).
fn thread_id() -> u64 {
    THREAD.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a span that opens a new trace id (a pass, request or body).
    pub fn start_trace(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<&Open>,
    ) -> Open {
        let span = self.next.fetch_add(1, Ordering::Relaxed);
        Open {
            span,
            trace: span,
            parent: parent.map(|p| p.span),
            name,
            layer,
            start: Instant::now(),
        }
    }

    /// Starts a child span in its parent's trace.
    pub fn start(&self, name: &'static str, layer: &'static str, parent: &Open) -> Open {
        Open {
            span: self.next.fetch_add(1, Ordering::Relaxed),
            trace: parent.trace,
            parent: Some(parent.span),
            name,
            layer,
            start: Instant::now(),
        }
    }

    /// Ends `open`, returning its duration in seconds.
    pub fn end(&self, open: Open) -> f64 {
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .push(Span {
                span: open.span,
                trace: open.trace,
                parent: open.parent,
                name: open.name,
                layer: open.layer,
                workload: self.workload,
                thread: thread_id(),
                start_ns: ns(open.start),
                end_ns: ns(end),
            });
        end.duration_since(open.start).as_secs_f64()
    }

    /// Runs `f` inside a child span of `parent`, returning its result and
    /// duration in seconds.
    pub fn time<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: &Open,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.start(name, layer, parent);
        let r = f();
        (r, self.end(open))
    }

    pub fn finish(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span buffer lock poisoned by a panicking recorder")
    }
}

/// Where the root span's wall time went, by layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Accounting {
    pub wall_s: f64,
    /// Exclusive seconds per layer ([`NO_LAYER`] excluded).
    pub layers: BTreeMap<&'static str, f64>,
    /// Exclusive seconds of benchmark-side container spans.
    pub unattributed_s: f64,
}

/// Attributes every instant of `root`'s interval to the innermost spans
/// active at that instant, splitting it evenly when several are (parallel
/// client threads). For non-overlapping siblings this is exactly each
/// span's self time (its duration minus the part its children cover); in
/// every case the layers plus the unattributed
/// time sum to the root's wall time.
pub fn account(spans: &[Span], root: u64) -> Accounting {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.span, i)).collect();
    let r = &spans[index[&root]];
    // Depth orders simultaneous events: parents start before their
    // children and end after them.
    let depth = |mut i: usize| {
        let mut d = 0;
        while let Some(p) = spans[i].parent.and_then(|p| index.get(&p)) {
            i = *p;
            d += 1;
        }
        d
    };
    // (time, phase, depth key, span): ends (phase 0) precede starts.
    let mut events: Vec<(u64, u8, i64, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        let (start, end) = (s.start_ns.max(r.start_ns), s.end_ns.min(r.end_ns));
        if start >= end && i != index[&root] {
            continue;
        }
        let d = depth(i) as i64;
        events.push((start, 1, d, i));
        events.push((end, 0, -d, i));
    }
    events.sort_unstable();

    let mut active_children = vec![0usize; spans.len()];
    let mut active = vec![false; spans.len()];
    let mut innermost: Vec<usize> = Vec::new();
    let mut exclusive = vec![0f64; spans.len()];
    let mut last = r.start_ns;
    for (t, phase, _, i) in events {
        if t > last && !innermost.is_empty() {
            let share = (t - last) as f64 / innermost.len() as f64;
            for &j in &innermost {
                exclusive[j] += share;
            }
        }
        last = t;
        let parent = spans[i].parent.and_then(|p| index.get(&p).copied());
        if phase == 1 {
            active[i] = true;
            innermost.push(i);
            if let Some(p) = parent.filter(|&p| active[p]) {
                active_children[p] += 1;
                innermost.retain(|&j| j != p);
            }
        } else {
            active[i] = false;
            innermost.retain(|&j| j != i);
            if let Some(p) = parent.filter(|&p| active[p]) {
                active_children[p] -= 1;
                if active_children[p] == 0 {
                    innermost.push(p);
                }
            }
        }
    }

    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut unattributed = 0.0;
    for (s, ns) in spans.iter().zip(&exclusive) {
        if s.layer == NO_LAYER {
            unattributed += ns / 1e9;
        } else {
            *layers.entry(s.layer).or_default() += ns / 1e9;
        }
    }
    Accounting {
        wall_s: r.duration_ns() as f64 / 1e9,
        layers,
        unattributed_s: unattributed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span's self time: its duration minus the part of its interval that
    /// its children cover (overlapping children are counted once).
    fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
        let mut iv: Vec<(u64, u64)> = children
            .iter()
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .filter(|(s, e)| s < e)
            .collect();
        iv.sort_unstable();
        let mut covered = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in iv {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            covered += ce - cs;
        }
        span.duration_ns() - covered
    }

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            span: id,
            trace: 1,
            parent,
            name: "t",
            layer,
            workload: "w",
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_and_overlapping_children() {
        let root = span(1, None, NO_LAYER, 0, 100);
        let a = span(2, Some(1), "a", 10, 50);
        let b = span(3, Some(1), "b", 30, 70);
        let c = span(4, Some(2), "c", 20, 25);
        // Children [10,50) and [30,70) overlap: their union is 60 ns.
        assert_eq!(self_time_ns(&root, &[&a, &b]), 40);
        assert_eq!(self_time_ns(&a, &[&c]), 35);
        assert_eq!(self_time_ns(&c, &[]), 5);
        // A child sticking out of its parent only counts inside it.
        let late = span(5, Some(4), "d", 22, 40);
        assert_eq!(self_time_ns(&c, &[&late]), 2);
    }

    #[test]
    fn accounting_splits_overlap_and_sums_to_the_wall() {
        let spans = vec![
            span(1, None, NO_LAYER, 0, 100),
            span(2, Some(1), "a", 10, 50),
            span(3, Some(1), "b", 30, 70),
            span(4, Some(2), "c", 20, 25),
        ];
        let acc = account(&spans, 1);
        let ns = |layer: &str| acc.layers[layer] * 1e9;
        // [10,20) + [25,30) alone, plus half of the [30,50) overlap.
        assert!((ns("a") - 25.0).abs() < 1e-6);
        assert!((ns("b") - 30.0).abs() < 1e-6);
        assert!((ns("c") - 5.0).abs() < 1e-6);
        assert!((acc.unattributed_s * 1e9 - 40.0).abs() < 1e-6);
        let total: f64 = acc.layers.values().sum::<f64>() + acc.unattributed_s;
        assert!((total - acc.wall_s).abs() < 1e-15);
    }

    #[test]
    fn accounting_equals_self_time_without_overlap() {
        let spans = vec![
            span(1, None, NO_LAYER, 0, 1_000),
            span(2, Some(1), "engine", 0, 400),
            span(3, Some(2), "flat", 0, 100),
            span(4, Some(1), "engine", 400, 900),
        ];
        let acc = account(&spans, 1);
        assert!((acc.layers["engine"] * 1e9 - 800.0).abs() < 1e-6);
        assert!((acc.layers["flat"] * 1e9 - 100.0).abs() < 1e-6);
        assert!((acc.unattributed_s * 1e9 - 100.0).abs() < 1e-6);
        let self_root = self_time_ns(&spans[0], &[&spans[1], &spans[3]]);
        assert_eq!(self_root, 100);
    }

    #[test]
    fn tracer_records_trees_and_shared_trace_ids() {
        let tracer = Tracer::new("w");
        let root = tracer.start_trace("root", NO_LAYER, None);
        let pass = tracer.start_trace("pass", "sweep", Some(&root));
        let ((), _) = tracer.time("engine.run", "engine", &pass, || {});
        std::thread::scope(|s| {
            s.spawn(|| tracer.time("request.warm", "serve", &pass, || {}));
        });
        let pass_id = pass.span;
        tracer.end(pass);
        tracer.end(root);
        let spans = tracer.finish();
        let run = spans.iter().find(|s| s.name == "engine.run").unwrap();
        assert_eq!(run.trace, pass_id, "children share their pass's id");
        assert_eq!(run.parent, Some(pass_id));
        let thread = |name: &str| spans.iter().find(|s| s.name == name).unwrap().thread;
        assert_eq!(thread("root"), thread("engine.run"), "one id per thread");
        assert_eq!(thread("root"), thread("pass"));
        assert_ne!(thread("root"), thread("request.warm"));
        assert!(run
            .to_json_line()
            .starts_with(&format!("{{\"id\":{pass_id},")));
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let acc = account(&spans, root.span);
        let total: f64 = acc.layers.values().sum::<f64>() + acc.unattributed_s;
        assert!((total - acc.wall_s).abs() < 1e-9);
    }
}
