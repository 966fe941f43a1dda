//! Pieces every workload shares: run settings, the traced engine cell, the
//! oracle comparison, the model check, and the per-layer report.

use crate::metrics::{Outcome, LAYERS};
use crate::spans::{account, Open, Span, Tracer};
use crate::stats::median;
use hbm_core::{EngineScratch, FlatWorkload, NoopObserver, OracleEngine, Report, SimBuilder};
use hbm_model::predict::{predict, ModelConfig, Prediction};
use hbm_traces::analysis::WorkloadSummary;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Worker threads for the journaled sweep, the explorer and the server
/// (the benchmark host has two cores). `ratio_sweep` takes
/// `available_parallelism` instead; runs report `par.threads`.
pub const WORKERS: usize = 2;

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Seeds every trace generator and simulation RNG.
    pub seed: u64,
    /// Measurement budget: passes repeat while another fits.
    pub seconds: f64,
    /// Toy sizes, for the test suite.
    pub smoke: bool,
    /// Directory for journals; created by the caller.
    pub scratch: PathBuf,
}

impl RunCfg {
    /// True while fewer than `min` passes ran, or another pass as long as
    /// the last one (`last_s`) still ends within the budget.
    pub fn another_pass(&self, started: Instant, passes: usize, min: usize, last_s: f64) -> bool {
        passes < min || started.elapsed().as_secs_f64() + last_s <= self.seconds
    }

    /// A fresh path in the scratch directory (any old file removed).
    pub fn scratch_file(&self, stem: &str) -> PathBuf {
        let path = self.scratch.join(format!("{stem}.jsonl"));
        let _ = std::fs::remove_file(&path);
        path
    }
}

/// Times `f` in a child span of `trace.1` when tracing, else just runs it.
pub fn timed<R>(
    trace: Option<(&Tracer, &Open)>,
    name: &'static str,
    layer: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match trace {
        Some((tracer, parent)) => tracer.time(name, layer, parent, f).0,
        None => f(),
    }
}

/// Runs one cell through the fast engine as an `engine.setup` and an
/// `engine.run` span, returning the report and both durations.
pub fn traced_cell(
    tracer: &Tracer,
    parent: &Open,
    builder: &SimBuilder,
    flat: &Arc<FlatWorkload>,
    scratch: &mut EngineScratch,
) -> Result<(Report, f64, f64), String> {
    let (engine, setup_s) = tracer.time("engine.setup", "engine", parent, || {
        builder.try_build_flat_reusing(flat, scratch)
    });
    let engine = engine.map_err(|e| e.to_string())?;
    let (report, run_s) = tracer.time("engine.run", "engine", parent, || {
        engine.run_reusing(&mut NoopObserver, scratch)
    });
    Ok((report, setup_s, run_s))
}

/// Runs one cell through the fast engine, untimed.
pub fn run_cell(
    builder: &SimBuilder,
    flat: &Arc<FlatWorkload>,
    scratch: &mut EngineScratch,
) -> Result<Report, String> {
    let engine = builder
        .try_build_flat_reusing(flat, scratch)
        .map_err(|e| e.to_string())?;
    Ok(engine.run_reusing(&mut NoopObserver, scratch))
}

/// The cells the oracle re-runs: every 8th of `n` (at least 1 in 8), plus
/// `largest`, the cell with the most cores.
pub fn oracle_sample(n: usize, largest: usize) -> Vec<usize> {
    let mut sample: Vec<usize> = (0..n).step_by(8).collect();
    if largest < n && !sample.contains(&largest) {
        sample.push(largest);
    }
    sample
}

/// Re-runs `builder`'s cell through the reference [`OracleEngine`] and
/// compares makespan, hits, misses, fetches and evictions with `engine`.
pub fn oracle_matches(builder: &SimBuilder, flat: &FlatWorkload, engine: &Report) -> bool {
    let oracle = OracleEngine::from_flat(*builder.config(), builder.faults().clone(), flat)
        .run(&mut NoopObserver);
    same_counts(engine, &oracle)
}

/// The five counters a speed-only change must leave identical.
pub fn same_counts(a: &Report, b: &Report) -> bool {
    (a.makespan, a.hits, a.misses, a.fetches, a.evictions)
        == (b.makespan, b.hits, b.misses, b.fetches, b.evictions)
}

/// Engine counters summed over the cells of a decomposition.
#[derive(Debug, Default)]
pub struct EngineTotals {
    cells: u64,
    setup_s: f64,
    run_s: f64,
    max_cell_s: f64,
    ticks: u64,
    refs: u64,
    hits: u64,
    misses: u64,
    fetches: u64,
    evictions: u64,
    max_queue_len: u64,
}

impl EngineTotals {
    pub fn add(&mut self, r: &Report, setup_s: f64, run_s: f64) {
        self.cells += 1;
        self.setup_s += setup_s;
        self.run_s += run_s;
        self.max_cell_s = self.max_cell_s.max(setup_s + run_s);
        self.ticks += r.makespan;
        self.refs += r.served;
        self.hits += r.hits;
        self.misses += r.misses;
        self.fetches += r.fetches;
        self.evictions += r.evictions;
        self.max_queue_len = self.max_queue_len.max(r.max_queue_len);
    }

    /// Busy time of the cells (set-up plus run).
    pub fn busy_s(&self) -> f64 {
        self.setup_s + self.run_s
    }

    pub fn max_cell_s(&self) -> f64 {
        self.max_cell_s
    }

    pub fn report(&self, out: &mut Outcome) {
        let n = self.cells as usize;
        out.set("engine.cells", self.cells as f64, n);
        out.set("engine.setup_s", self.setup_s, n);
        out.set("engine.run_s", self.run_s, n);
        out.set("engine.max_cell_s", self.max_cell_s, n);
        out.set(
            "engine.ns_per_ref",
            self.run_s * 1e9 / self.refs.max(1) as f64,
            n,
        );
        out.set(
            "engine.ns_per_tick",
            self.run_s * 1e9 / self.ticks.max(1) as f64,
            n,
        );
        out.set("engine.ticks", self.ticks as f64, n);
        out.set("engine.refs", self.refs as f64, n);
        out.set("engine.hits", self.hits as f64, n);
        out.set("engine.misses", self.misses as f64, n);
        out.set("engine.fetches", self.fetches as f64, n);
        out.set("engine.evictions", self.evictions as f64, n);
        out.set("engine.max_queue_len", self.max_queue_len as f64, n);
        out.set(
            "engine.hit_rate",
            self.hits as f64 / self.refs.max(1) as f64,
            n,
        );
    }
}

/// Reports the hbm-par fan-out: busy time of the cells against the
/// untraced wall time of the pass that ran them on `threads` workers.
pub fn report_par(out: &mut Outcome, threads: usize, busy_s: f64, wall_s: f64, max_cell_s: f64) {
    out.set("par.threads", threads as f64, 1);
    out.set("par.busy_s", busy_s, 1);
    out.set("par.speedup", busy_s / wall_s, 1);
    let ideal = (busy_s / threads as f64).max(max_cell_s);
    out.set("par.lb_ratio", wall_s / ideal, 1);
}

/// Predicts every `(summary, config)` pair, then keeps calling `predict`
/// until at least `min_calls` calls ran, returning the predictions and the
/// mean nanoseconds per call.
pub fn time_predicts(
    cells: &[(&WorkloadSummary, ModelConfig)],
    min_calls: usize,
) -> (Vec<Prediction>, f64) {
    let preds: Vec<Prediction> = cells.iter().map(|(s, c)| predict(s, c)).collect();
    let rounds = min_calls.div_ceil(cells.len().max(1));
    let t = Instant::now();
    for _ in 0..rounds {
        for (s, c) in cells {
            black_box(predict(black_box(s), black_box(c)));
        }
    }
    let ns = t.elapsed().as_nanos() as f64 / (rounds * cells.len()).max(1) as f64;
    (preds, ns)
}

/// Reports how far the analytical model is from the simulator over
/// `(prediction, simulated makespan)` pairs: the median relative error of
/// the point estimate and the share inside the calibrated band.
pub fn report_model(out: &mut Outcome, pairs: &[(Prediction, u64)]) {
    let errs: Vec<f64> = pairs
        .iter()
        .filter(|(_, sim)| *sim > 0)
        .map(|(p, sim)| (p.makespan.est - *sim as f64).abs() / *sim as f64)
        .collect();
    let inside = pairs
        .iter()
        .filter(|(p, sim)| p.makespan.covers(*sim as f64, 0.0))
        .count();
    out.set("model.err", median(&errs), errs.len());
    out.set(
        "model.within_band_frac",
        inside as f64 / pairs.len().max(1) as f64,
        pairs.len(),
    );
}

/// Reports `peak_rss_mb`: the peak RSS read when the first pass ended —
/// what one `repro` invocation needs; later passes in the same process
/// only add allocator-reuse noise. A missing or unreadable value is a
/// failure.
pub fn report_peak_rss(out: &mut Outcome, peak: Option<Result<f64, String>>) {
    match peak {
        Some(Ok(mb)) => out.set("peak_rss_mb", mb, 1),
        Some(Err(e)) => {
            out.check(false, || e);
        }
        None => {
            out.check(false, || "no pass completed".into());
        }
    }
}

/// Finishes a traced run: accounts the root span's wall time to layers,
/// reports `trace.wall_s`, `unattributed_s` and every `<layer>.self_frac`,
/// and prints the per-layer table on stderr.
pub fn report_layers(out: &mut Outcome, spans: &[Span], root: u64) {
    let acc = account(spans, root);
    out.set("trace.wall_s", acc.wall_s, 1);
    out.set("unattributed_s", acc.unattributed_s, 1);
    out.set("unattributed_frac", acc.unattributed_s / acc.wall_s, 1);
    eprintln!(
        "[hbm_benchmark] {} traced wall {:.3} s by layer (self time):",
        out.workload, acc.wall_s
    );
    for layer in LAYERS {
        let s = acc.layers.get(layer).copied().unwrap_or(0.0);
        out.set(&format!("{layer}.self_frac"), s / acc.wall_s, 1);
        if s > 0.0 {
            eprintln!("  {layer:<12} {s:>10.4} s {:>6.1}%", 100.0 * s / acc.wall_s);
        }
    }
    eprintln!(
        "  {:<12} {:>10.4} s {:>6.1}%",
        "unattributed",
        acc.unattributed_s,
        100.0 * acc.unattributed_s / acc.wall_s
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_sample_is_at_least_one_in_eight_and_has_the_largest_cell() {
        for n in [1usize, 7, 8, 40, 128] {
            let s = oracle_sample(n, n - 1);
            assert!(s.len() * 8 >= n, "n={n}: {s:?}");
            assert!(s.contains(&(n - 1)));
            assert!(s.iter().all(|&i| i < n));
        }
        assert_eq!(oracle_sample(40, 39), vec![0, 8, 16, 24, 32, 39]);
    }
}
