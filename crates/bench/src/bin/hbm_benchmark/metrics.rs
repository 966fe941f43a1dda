//! Metric declarations — `BENCHMARK.json` mirrors these lists, and a test
//! holds the two together — and the result of one workload run.

use hbm_serve::json::fmt_f64;
use std::fmt::Write as _;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, with the share of
/// the parent's median by which it may worsen before a change regresses.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Reported by every untraced run of every workload. An *operation* is one
/// simulation cell for the sweeps and the explorer, one HTTP request for
/// the server; `p50_ms`/`p99_ms` are the latencies of one user-visible
/// operation — a whole sweep, a whole explore pass (rank + simulate), or a
/// request.
///
/// The bounds are sized to the runs recorded in `runs/` (a shared 2-vCPU
/// host): during a slow stretch of that host the interquartile spread over
/// ten runs reached 18.6% for throughput, 15.8% for median latency, 24.1%
/// for p99 and 18.4% for set-up, while peak RSS never spread by more than
/// 1.5%. See the README's acceptance runs.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "ops/s", Better::Higher, 0.20),
    e2e("p50_ms", "ms", Better::Lower, 0.20),
    e2e("p99_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05),
];

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// Reported by every traced run of every workload. Times are measured on
/// every workload; a count or share of a layer a workload never enters
/// reads 0.
pub const PER_LAYER: [(&str, &str, Better); 57] = [
    ("traces.gen_s", "s", L),
    ("traces.refs", "count", L),
    ("flat.build_s", "s", L),
    ("flat.ns_per_ref", "ns", L),
    ("flat.pages", "count", L),
    ("flat.rss_delta_mb", "MB", L),
    ("engine.setup_s", "s", L),
    ("engine.run_s", "s", L),
    ("engine.ns_per_ref", "ns", L),
    ("engine.ns_per_tick", "ns", L),
    ("engine.max_cell_s", "s", L),
    ("engine.cells", "count", H),
    ("engine.ticks", "count", L),
    ("engine.refs", "count", H),
    ("engine.hits", "count", H),
    ("engine.misses", "count", L),
    ("engine.fetches", "count", L),
    ("engine.evictions", "count", L),
    ("engine.max_queue_len", "count", L),
    ("engine.hit_rate", "ratio", H),
    ("par.threads", "count", H),
    ("par.busy_s", "s", L),
    ("par.speedup", "ratio", H),
    ("par.lb_ratio", "ratio", L),
    ("journal.records", "count", H),
    ("journal.bytes", "B", L),
    ("analysis.summary_s", "s", L),
    ("model.predict_ns", "ns", L),
    ("model.err", "ratio", L),
    ("model.within_band_frac", "ratio", H),
    ("explore.frontier", "count", H),
    ("explore.sim_cells", "count", H),
    ("serve.unattributed_frac", "ratio", L),
    ("serve.cold_over_warm", "ratio", L),
    ("serve.late_frac", "ratio", L),
    ("serve.cold_runs", "count", L),
    ("serve.warm_runs", "count", H),
    ("serve.rejected", "count", L),
    ("serve.shed", "count", L),
    ("oracle.cells", "count", H),
    ("oracle.mismatches", "count", L),
    ("trace.wall_s", "s", L),
    ("trace.overhead_frac", "ratio", L),
    ("unattributed_s", "s", L),
    ("traces.self_frac", "ratio", L),
    ("flat.self_frac", "ratio", L),
    ("engine.self_frac", "ratio", L),
    ("sweep.self_frac", "ratio", L),
    ("journal.self_frac", "ratio", L),
    ("explore.self_frac", "ratio", L),
    ("analysis.self_frac", "ratio", L),
    ("model.self_frac", "ratio", L),
    ("json.self_frac", "ratio", L),
    ("proto.self_frac", "ratio", L),
    ("serve.self_frac", "ratio", L),
    ("oracle.self_frac", "ratio", L),
    ("unattributed_frac", "ratio", L),
];

/// The layers spans are attributed to, named after the modules they time.
/// `<layer>.self_frac` is each one's share of the traced wall time.
pub const LAYERS: [&str; 12] = [
    "traces", "flat", "engine", "sweep", "journal", "explore", "analysis", "model", "json",
    "proto", "serve", "oracle",
];

/// The declared unit of `name`, if it is a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

/// The declared name equal to `name`, with a `'static` lifetime.
fn declared(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.0))
        .find(|&n| n == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not declared"))
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
}

/// Everything one workload run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    /// Operations whose result was produced or checked.
    pub attempted: u64,
    /// Operations that failed or whose result was wrong.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Sets a declared metric (replacing an earlier value of the same
    /// name). Panics on an undeclared name: that is a bug here, not input.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let name = declared(name);
        let unit = unit_of(name).expect("declared names have units");
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            n,
        });
    }

    /// Reports 0 for every per-layer metric not set: a count or share of
    /// a layer the workload never entered.
    pub fn zero_unset_layers(&mut self) {
        for (name, _, _) in PER_LAYER {
            if self.get(name).is_none() {
                self.set(name, 0.0, 0);
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Counts one checked operation; a failed check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[hbm_benchmark] {} FAILED: {}", self.workload, what());
        }
        ok
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable lines: `workload metric value unit n=<samples>`.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{} {} {} {} n={}",
                self.workload,
                m.name,
                fmt_f64(m.value),
                m.unit,
                m.n
            );
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// `metrics` as `{name: {value, unit}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    fmt_f64(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_serve::json::Json;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn declarations_match_benchmark_json() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let e2e = doc.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        assert!(END_TO_END.len() <= 16);
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let layer = doc.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(layer.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (j, (name, unit, better)) in layer.iter().zip(&PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(better.as_str())
            );
        }

        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "every metric name is used once");
        for n in &names {
            assert!(valid_name(n), "bad metric name {n}");
        }
        for (_, unit, _) in PER_LAYER {
            assert!(unit.len() <= 16);
        }
        for layer in LAYERS {
            assert!(unit_of(&format!("{layer}.self_frac")).is_some(), "{layer}");
        }

        let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
        let declared: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(declared, crate::WORKLOADS);
        for w in workloads {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn outcome_json_shape() {
        let mut o = Outcome::new("sweep_sort");
        o.set("setup_s", 0.5, 3);
        o.set("ops_per_s", f64::NAN, 3);
        assert!(o.check(true, String::new));
        let j = Json::parse(&o.to_json()).unwrap();
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(1));
        let setup = j.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(
            o.get("ops_per_s"),
            Some(0.0),
            "non-finite values never reach the JSON"
        );
        assert_eq!(
            o.lines().lines().next(),
            Some("sweep_sort setup_s 0.5 s n=3")
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        Outcome::new("w").set("made_up", 1.0, 1);
    }
}
