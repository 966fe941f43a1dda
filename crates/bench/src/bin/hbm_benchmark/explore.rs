//! `explore_grid`: `repro explore` over a fixed 1 489 920-cell grid.
//!
//! A pass parses the grid and summarizes its workloads (the set-up), ranks
//! every cell analytically, and simulates 32 targets with a fresh journal:
//! the 16 `sim_targets` the explorer itself picks, plus two probes per
//! (workload, p) group under the random_pick/clock and fr_fcfs/random
//! policies that nothing else in the benchmark simulates. The probes also
//! spread simulation over every group, so the worker threads have work to
//! share.

use crate::common::{
    oracle_matches, oracle_sample, report_model, report_par, report_peak_rss, run_cell, timed,
    traced_cell, EngineTotals, RunCfg, WORKERS,
};
use crate::metrics::Outcome;
use crate::spans::{Open, Tracer, NO_LAYER};
use crate::stats::{median, percentile};
use hbm_core::{ArbitrationKind, EngineScratch, ReplacementKind, Report, SimBuilder};
use hbm_experiments::common::{CellBudget, TracePool};
use hbm_experiments::explore::{
    artifact_json, explore_cell_key, rank, sim_targets, simulate, ExploreRecord, ExploreRunOptions,
    ExploreSpec, RankCaps, RankOutcome, RankedCell,
};
use hbm_experiments::journal::JournalFile;
use hbm_model::predict::{predict, ModelConfig};
use hbm_traces::analysis::WorkloadSummary;
use hbm_traces::TraceOptions;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The grid; `SEED` becomes the run's seed (trace seeds and `sim_seed`).
/// 8 (workload, p) groups × 194 k × 16 q × 3 far × 5 arbitrations × 4
/// replacements = 1 489 920 cells.
const GRID: &str = r#"{
  "workloads": [
    {"workload": {"kind": "spgemm", "n": 120, "density": 0.1}, "p": [8, 16, 32], "seed": SEED},
    {"workload": {"kind": "sort", "algo": "mergesort", "n": 6000}, "p": [8, 16, 32], "seed": SEED},
    {"workload": {"kind": "cyclic", "pages": 256, "reps": 30}, "p": [16, 64], "seed": SEED}
  ],
  "k": {"min": 16, "max": 8192, "steps": 200, "scale": "log"},
  "q": {"min": 1, "max": 16, "steps": 16, "scale": "linear"},
  "far_latency": [1, 4, 16],
  "arbitration": ["fifo", "priority", {"kind": "dynamic_priority", "period": 1024},
                  "random_pick", {"kind": "fr_fcfs", "row_shift": 4}],
  "replacement": ["lru", "fifo", "clock", "random"],
  "sim_seed": SEED,
  "max_ticks": 20000000
}"#;

const SMOKE_GRID: &str = r#"{
  "workloads": [
    {"workload": {"kind": "cyclic", "pages": 16, "reps": 4}, "p": [2, 4], "seed": SEED},
    {"workload": {"kind": "sort", "algo": "mergesort", "n": 200}, "p": [2], "seed": SEED}
  ],
  "k": {"min": 4, "max": 64, "steps": 5, "scale": "log"},
  "q": [1, 2],
  "far_latency": [1, 4],
  "arbitration": ["fifo", "priority", {"kind": "dynamic_priority", "period": 64},
                  "random_pick", {"kind": "fr_fcfs", "row_shift": 4}],
  "replacement": ["lru", "fifo", "clock", "random"],
  "sim_seed": SEED,
  "max_ticks": 200000
}"#;

/// Targets the explorer picks itself (`sim_targets`).
const PRODUCTION_TARGETS: usize = 16;

const CAPS: RankCaps = RankCaps {
    top: 16,
    uncertain: 32,
    frontier: 256,
};

pub struct Explore {
    smoke: bool,
    min_passes: usize,
}

/// A parsed grid with one workload summary per (workload axis, p).
struct Setup {
    spec: ExploreSpec,
    summaries: BTreeMap<(usize, usize), WorkloadSummary>,
    /// Seconds spent summarizing.
    summary_s: f64,
}

/// One rank + simulate pass.
struct Pass {
    outcome: RankOutcome,
    targets: Vec<RankedCell>,
    results: HashMap<u64, ExploreRecord>,
    artifact: String,
    rank_s: f64,
    simulate_s: f64,
}

impl Explore {
    pub fn new(smoke: bool) -> Explore {
        Explore {
            smoke,
            min_passes: if smoke { 2 } else { 3 },
        }
    }

    fn grid(&self, seed: u64) -> String {
        let grid = if self.smoke { SMOKE_GRID } else { GRID };
        grid.replace("SEED", &seed.to_string())
    }

    fn setup(&self, seed: u64, trace: Option<(&Tracer, &Open)>) -> Result<Setup, String> {
        let spec = timed(trace, "explore.parse", "explore", || {
            ExploreSpec::parse(&self.grid(seed))
        })?;
        let mut summaries = BTreeMap::new();
        let t = Instant::now();
        for (wi, axis) in spec.workloads.iter().enumerate() {
            for &p in &axis.p {
                let s = timed(trace, "analysis.summary", "analysis", || {
                    WorkloadSummary::from_spec(axis.spec, axis.seed, p)
                });
                summaries.insert((wi, p), s);
            }
        }
        Ok(Setup {
            spec,
            summaries,
            summary_s: t.elapsed().as_secs_f64(),
        })
    }

    /// The production targets plus two policy probes per group, priced by
    /// the model from the set-up's summaries.
    fn targets(setup: &Setup, outcome: &RankOutcome) -> Vec<RankedCell> {
        let spec = &setup.spec;
        let mut targets = sim_targets(outcome, PRODUCTION_TARGETS);
        let find = |f: fn(&ArbitrationKind) -> bool| {
            *spec
                .arbitration
                .iter()
                .find(|a| f(a))
                .expect("grid lists the policy")
        };
        let random_pick = find(|a| matches!(a, ArbitrationKind::RandomPick));
        let fr_fcfs = find(|a| matches!(a, ArbitrationKind::FrFcfs { .. }));
        let nearest_k = |want: u64| {
            *spec
                .k
                .iter()
                .min_by_key(|&&k| (k as u64).abs_diff(want))
                .expect("k axis is non-empty")
        };
        let q4 = spec.q[spec.q.len().min(4) - 1];
        for (&(wi, p), summary) in &setup.summaries {
            let probes = [
                (
                    nearest_k(summary.footprint / 2),
                    spec.q[0],
                    random_pick,
                    ReplacementKind::Clock,
                ),
                (
                    nearest_k(summary.footprint),
                    q4,
                    fr_fcfs,
                    ReplacementKind::Random,
                ),
            ];
            for (k, q, arbitration, replacement) in probes {
                let far = spec.far_latency[0];
                let cfg = ModelConfig::new(k, q, arbitration, replacement).far_latency(far);
                targets.push(RankedCell {
                    wi,
                    p,
                    far,
                    k,
                    q,
                    arbitration,
                    replacement,
                    pred: predict(summary, &cfg),
                    // Past every grid index: probes are not grid winners.
                    index: outcome.total_cells as u64 + targets.len() as u64,
                });
            }
        }
        targets
    }

    fn key(spec: &ExploreSpec, c: &RankedCell) -> u64 {
        explore_cell_key(
            &spec.workload_label(c.wi),
            c.p,
            c.k,
            c.q,
            c.far,
            c.arbitration,
            c.replacement,
            spec.sim_seed,
        )
    }

    fn builder(spec: &ExploreSpec, c: &RankedCell) -> SimBuilder {
        let mut b = SimBuilder::new()
            .hbm_slots(c.k)
            .channels(c.q)
            .arbitration(c.arbitration)
            .replacement(c.replacement)
            .far_latency(c.far)
            .seed(spec.sim_seed);
        if let Some(max) = spec.max_ticks {
            b = b.max_ticks(max);
        }
        b
    }

    fn run_opts(spec: &ExploreSpec) -> ExploreRunOptions {
        ExploreRunOptions {
            budget: CellBudget {
                max_ticks: spec.max_ticks,
                max_wall: None,
            },
            threads: WORKERS,
            ..ExploreRunOptions::default()
        }
    }

    /// Ranks, picks targets, and simulates them into a fresh `journal`;
    /// with `trace`, rank and simulate are `explore` spans under it.
    fn pass(
        &self,
        setup: &Setup,
        journal: &Path,
        trace: Option<(&Tracer, &Open)>,
    ) -> Result<Pass, String> {
        let spec = &setup.spec;
        let j = JournalFile::<ExploreRecord>::open(journal)
            .map_err(|e| format!("open journal {}: {e}", journal.display()))?;
        let t = Instant::now();
        let outcome = timed(trace, "explore.rank", "explore", || rank(spec, &CAPS));
        let rank_s = t.elapsed().as_secs_f64();
        let targets = Self::targets(setup, &outcome);
        let t = Instant::now();
        let sim = timed(trace, "explore.simulate", "explore", || {
            simulate(spec, &targets, &j, &Self::run_opts(spec))
        });
        let simulate_s = t.elapsed().as_secs_f64();
        if let Some(f) = sim.failures.first() {
            return Err(f.clone());
        }
        if sim.results.len() != targets.len() || sim.cancelled > 0 || sim.resumed > 0 {
            return Err(format!(
                "simulated {} of {} targets ({} resumed, {} cancelled)",
                sim.results.len(),
                targets.len(),
                sim.resumed,
                sim.cancelled
            ));
        }
        let artifact = artifact_json(spec, &outcome, &sim.results);
        Ok(Pass {
            outcome,
            targets,
            results: sim.results,
            artifact,
            rank_s,
            simulate_s,
        })
    }

    /// Checks a pass against the first: same simulated records, same
    /// artifact bytes.
    fn check_pass(out: &mut Outcome, pass: &Result<Pass, String>, first: &Option<Pass>) {
        match pass {
            Err(e) => {
                out.check(false, || format!("explore pass failed: {e}"));
            }
            Ok(p) => {
                out.count(p.targets.len() as u64, 0);
                if let Some(f) = first {
                    out.check(f.results == p.results && f.artifact == p.artifact, || {
                        "simulated records or artifact differ from the first pass".into()
                    });
                }
            }
        }
    }

    /// One trace pool per workload axis, at the largest p of its targets.
    fn pools(
        spec: &ExploreSpec,
        targets: &[RankedCell],
        trace: Option<(&Tracer, &Open)>,
    ) -> BTreeMap<usize, TracePool> {
        let mut max_p: BTreeMap<usize, usize> = BTreeMap::new();
        for c in targets {
            let e = max_p.entry(c.wi).or_insert(c.p);
            *e = (*e).max(c.p);
        }
        max_p
            .into_iter()
            .map(|(wi, p)| {
                let w = &spec.workloads[wi];
                let pool = timed(trace, "traces.generate", "traces", || {
                    TracePool::generate(w.spec, p, w.seed, TraceOptions::default())
                });
                (wi, pool)
            })
            .collect()
    }

    /// Re-runs a sample of targets through the engine (or takes its report
    /// from `reports`) and the oracle, and checks the simulated record. The
    /// sample runs on the worker threads, largest `p` first.
    #[allow(clippy::too_many_arguments)]
    fn oracle_gate(
        out: &mut Outcome,
        spec: &ExploreSpec,
        pass: &Pass,
        pools: &BTreeMap<usize, TracePool>,
        reports: Option<&[Report]>,
        trace: Option<(&Tracer, &Open)>,
    ) -> (usize, usize) {
        let targets = &pass.targets;
        let largest = (0..targets.len())
            .max_by_key(|&i| (targets[i].p, std::cmp::Reverse(i)))
            .unwrap_or(0);
        let mut sample = oracle_sample(targets.len(), largest);
        sample.sort_by_key(|&i| std::cmp::Reverse(targets[i].p));
        let verdicts = hbm_par::parallel_map_with(&sample, WORKERS, |&i| {
            let c = &targets[i];
            let flat = pools[&c.wi].flat(c.p);
            let b = Self::builder(spec, c);
            timed(trace, "oracle.check", "oracle", || {
                let engine = match reports {
                    Some(r) => Ok(r[i].clone()),
                    None => run_cell(&b, &flat, &mut EngineScratch::default()),
                };
                let Ok(engine) = engine else { return false };
                let record = pass.results.get(&Self::key(spec, c));
                record.is_some_and(|r| matches_record(r, &engine))
                    && oracle_matches(&b, &flat, &engine)
            })
        });
        let mut mismatches = 0;
        for (&i, ok) in sample.iter().zip(verdicts) {
            let c = &targets[i];
            if !out.check(ok, || format!("oracle mismatch at target {i}: {c:?}")) {
                mismatches += 1;
            }
        }
        (sample.len(), mismatches)
    }

    /// The untraced run: timed passes, with the oracle gate on the first
    /// pass's targets before the second, inside the measurement budget.
    pub fn run(&self, cfg: &RunCfg) -> Outcome {
        let mut out = Outcome::new("explore_grid");
        let (mut setups, mut walls, mut sims) = (Vec::new(), Vec::new(), Vec::new());
        let mut first: Option<Pass> = None;
        let mut first_pass_rss = None;
        let started = Instant::now();
        let mut last_pass_s = 0.0;
        while cfg.another_pass(started, walls.len(), self.min_passes, last_pass_s) {
            let pass_start = Instant::now();
            let setup = match self.setup(cfg.seed, None) {
                Ok(s) => s,
                Err(e) => {
                    out.check(false, || e);
                    break;
                }
            };
            setups.push(pass_start.elapsed().as_secs_f64());
            let journal = cfg.scratch_file(&format!("explore_grid-pass{}", walls.len()));
            let pass = self.pass(&setup, &journal, None);
            let _ = std::fs::remove_file(&journal);
            Self::check_pass(&mut out, &pass, &first);
            let Ok(pass) = pass else { break };
            walls.push(pass.rank_s + pass.simulate_s);
            sims.push(pass.simulate_s);
            last_pass_s = pass_start.elapsed().as_secs_f64();
            if first.is_none() {
                first_pass_rss = Some(crate::sys::peak_rss_mb());
                let pools = Self::pools(&setup.spec, &pass.targets, None);
                Self::oracle_gate(&mut out, &setup.spec, &pass, &pools, None, None);
                first = Some(pass);
            }
        }
        if let Some(pass) = &first {
            let targets = pass.targets.len() as f64;
            out.set("setup_s", median(&setups), setups.len());
            out.set("ops_per_s", targets / median(&sims), sims.len());
            out.set("p50_ms", median(&walls) * 1e3, walls.len());
            out.set("p99_ms", percentile(&walls, 0.99) * 1e3, walls.len());
        }
        report_peak_rss(&mut out, first_pass_rss);
        out
    }

    pub fn traced(&self, cfg: &RunCfg, tracer: &Tracer) -> (Outcome, u64) {
        let mut out = Outcome::new("explore_grid");
        let (first, base_wall, base_sim) = {
            let journal = cfg.scratch_file("explore_grid-reference");
            let pass = self
                .setup(cfg.seed, None)
                .and_then(|setup| self.pass(&setup, &journal, None));
            let _ = std::fs::remove_file(&journal);
            Self::check_pass(&mut out, &pass, &None);
            match pass {
                Ok(p) => {
                    let (wall, sim) = (p.rank_s + p.simulate_s, p.simulate_s);
                    (p, wall, sim)
                }
                Err(_) => return (out, 0),
            }
        };

        let root = tracer.start_trace("workload", NO_LAYER, None);
        let setup_span = tracer.start_trace("setup", NO_LAYER, Some(&root));
        let setup = self.setup(cfg.seed, Some((tracer, &setup_span)));
        tracer.end(setup_span);
        let setup = match setup {
            Ok(s) => s,
            Err(e) => {
                out.check(false, || e);
                let id = root.id();
                tracer.end(root);
                return (out, id);
            }
        };
        let spec = &setup.spec;

        let grid = tracer.start_trace("model_grid", NO_LAYER, Some(&root));
        let ((calls, predict_s), _) =
            tracer.time("model.predict", "model", &grid, || predict_grid(&setup));
        tracer.end(grid);

        let journal = cfg.scratch_file("explore_grid-traced");
        let pass_span = tracer.start_trace("pass", "explore", Some(&root));
        let pass = self.pass(&setup, &journal, Some((tracer, &pass_span)));
        let pass_s = tracer.end(pass_span);
        Self::check_pass(&mut out, &pass, &Some(first));
        let Ok(pass) = pass else {
            let id = root.id();
            tracer.end(root);
            return (out, id);
        };

        let resume = tracer.start_trace("resume", NO_LAYER, Some(&root));
        let (resumed, _) = tracer.time("journal.resume", "journal", &resume, || {
            let j = JournalFile::<ExploreRecord>::open(&journal).map_err(|e| e.to_string())?;
            let records = j.len();
            let sim = simulate(spec, &pass.targets, &j, &Self::run_opts(spec));
            Ok::<_, String>((records, sim))
        });
        tracer.end(resume);
        match resumed {
            Ok((records, sim)) => {
                out.check(
                    sim.resumed == pass.targets.len() && sim.results == pass.results,
                    || {
                        format!(
                            "journal resume: {} of {} targets",
                            sim.resumed,
                            pass.targets.len()
                        )
                    },
                );
                let bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
                out.set("journal.records", records as f64, 1);
                out.set("journal.bytes", bytes as f64, 1);
            }
            Err(e) => {
                out.check(false, || e);
            }
        }
        let _ = std::fs::remove_file(&journal);

        let decompose = tracer.start_trace("decompose", NO_LAYER, Some(&root));
        let rss_before = crate::sys::rss_mb().unwrap_or(0.0);
        let gen_start = Instant::now();
        let pools = Self::pools(spec, &pass.targets, Some((tracer, &decompose)));
        let gen_s = gen_start.elapsed().as_secs_f64();
        let (mut flat_s, mut flat_refs, mut pages) = (0.0, 0usize, 0usize);
        let groups: std::collections::BTreeSet<(usize, usize)> =
            pass.targets.iter().map(|c| (c.wi, c.p)).collect();
        for (wi, p) in groups {
            let (flat, s) = tracer.time("flat.build", "flat", &decompose, || pools[&wi].flat(p));
            flat_s += s;
            flat_refs += flat.total_refs();
            pages += flat.total_pages();
        }
        let rss_delta = crate::sys::rss_mb().unwrap_or(0.0) - rss_before;
        let mut totals = EngineTotals::default();
        let mut reports = Vec::new();
        let mut scratch = EngineScratch::default();
        for c in &pass.targets {
            let cell = tracer.start_trace("cell", NO_LAYER, Some(&decompose));
            let flat = pools[&c.wi].flat(c.p);
            match traced_cell(tracer, &cell, &Self::builder(spec, c), &flat, &mut scratch) {
                Ok((r, setup_s, run_s)) => {
                    totals.add(&r, setup_s, run_s);
                    let record = pass.results.get(&Self::key(spec, c));
                    out.check(record.is_some_and(|rec| matches_record(rec, &r)), || {
                        format!("decomposed target {c:?} differs from simulate")
                    });
                    reports.push(r);
                }
                Err(e) => {
                    out.check(false, || e);
                }
            }
            tracer.end(cell);
        }
        tracer.end(decompose);

        let gate = tracer.start_trace("oracle_gate", NO_LAYER, Some(&root));
        let complete = reports.len() == pass.targets.len();
        let (checked, mismatches) = Self::oracle_gate(
            &mut out,
            spec,
            &pass,
            &pools,
            complete.then_some(&reports[..]),
            Some((tracer, &gate)),
        );
        tracer.end(gate);
        let root_id = root.id();
        tracer.end(root);

        let traces_refs: usize = pools.values().map(|p| p.flat(p.max_p()).total_refs()).sum();
        out.set("traces.gen_s", gen_s, pools.len());
        out.set("traces.refs", traces_refs as f64, pools.len());
        out.set("flat.build_s", flat_s, pass.targets.len());
        out.set("flat.ns_per_ref", flat_s * 1e9 / flat_refs.max(1) as f64, 1);
        out.set("flat.pages", pages as f64, 1);
        out.set("flat.rss_delta_mb", rss_delta, 1);
        totals.report(&mut out);
        report_par(
            &mut out,
            WORKERS,
            totals.busy_s(),
            base_sim,
            totals.max_cell_s(),
        );
        out.set("analysis.summary_s", setup.summary_s, setup.summaries.len());
        out.set(
            "model.predict_ns",
            predict_s * 1e9 / calls.max(1) as f64,
            calls as usize,
        );
        let pairs: Vec<_> = pass
            .targets
            .iter()
            .zip(&reports)
            .filter(|(_, r)| !r.truncated)
            .map(|(c, r)| (c.pred, r.makespan))
            .collect();
        report_model(&mut out, &pairs);
        out.set("explore.frontier", pass.outcome.frontier_total as f64, 1);
        out.set("explore.sim_cells", pass.targets.len() as f64, 1);
        out.set("oracle.cells", checked as f64, checked);
        out.set("oracle.mismatches", mismatches as f64, checked);
        out.set("trace.overhead_frac", pass_s / base_wall - 1.0, 1);
        (out, root_id)
    }
}

/// Whether a simulated record matches an engine report of the same cell.
fn matches_record(r: &ExploreRecord, engine: &Report) -> bool {
    r.makespan == engine.makespan
        && r.hit_rate.to_bits() == engine.hit_rate.to_bits()
        && r.truncated == engine.truncated
}

/// Predicts every cell of the grid once; returns (calls, seconds).
fn predict_grid(setup: &Setup) -> (u64, f64) {
    let spec = &setup.spec;
    let t = Instant::now();
    let mut calls = 0u64;
    for summary in setup.summaries.values() {
        for &far in &spec.far_latency {
            for &k in &spec.k {
                for &q in &spec.q {
                    for &arb in &spec.arbitration {
                        for &rep in &spec.replacement {
                            let cfg = ModelConfig::new(k, q, arb, rep).far_latency(far);
                            black_box(predict(black_box(summary), &cfg));
                            calls += 1;
                        }
                    }
                }
            }
        }
    }
    (calls, t.elapsed().as_secs_f64())
}
