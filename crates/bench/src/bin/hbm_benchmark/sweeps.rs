//! `sweep_sort` and `sweep_cyclic`: FIFO-vs-Priority ratio sweeps through
//! the production entry points `ratio_sweep` and `run_journaled_sweep`.
//!
//! Every pass builds a fresh [`TracePool`], sizes HBM with
//! `hbm_sizes_for`, and flattens every `p` (the set-up), then times the
//! sweep. Passes must agree cell for cell and artifact byte for byte. The
//! oracle gate runs once, after the first pass and inside the measurement
//! budget, so a run lasts about `--seconds`.

use crate::common::{
    oracle_matches, oracle_sample, report_model, report_par, report_peak_rss, run_cell,
    time_predicts, timed, traced_cell, EngineTotals, RunCfg, WORKERS,
};
use crate::metrics::Outcome;
use crate::spans::{Open, Tracer, NO_LAYER};
use crate::stats::{median, percentile};
use hbm_core::{ArbitrationKind, EngineScratch, ReplacementKind, Report, SimBuilder};
use hbm_experiments::common::{hbm_sizes_for, Scale, TracePool};
use hbm_experiments::journal::{cells_to_json, run_journaled_sweep, SweepJournal, SweepRunOptions};
use hbm_experiments::sweep::{ratio_sweep, RatioCell};
use hbm_model::predict::ModelConfig;
use hbm_traces::analysis::WorkloadSummary;
use hbm_traces::{SortAlgo, TraceOptions, WorkloadSpec};
use std::path::Path;
use std::time::Instant;

/// The challenger of both sweeps (Figure 2's FIFO vs Priority).
const CHALLENGER: ArbitrationKind = ArbitrationKind::Priority;
/// Far channels per cell.
const Q: usize = 1;

/// One ratio-sweep workload.
pub struct Sweep {
    pub name: &'static str,
    spec: WorkloadSpec,
    /// Thread counts, ascending.
    threads: Vec<usize>,
    /// HBM sizes are `scale.hbm_multipliers()` × one core's working set.
    scale: Scale,
    /// Journal key tag of the sweep's cells.
    tag: &'static str,
    /// Runs through `run_journaled_sweep` (else `ratio_sweep`).
    journaled: bool,
    min_passes: usize,
}

impl Sweep {
    /// Figure 2b's shape over mergesort traces: large traces (9.5M
    /// references at p = 64), so trace generation, flattening and RSS
    /// matter, and the p = 64 group straggles. The sort is `Scale::Small`'s
    /// (n = 4000), so that five or more passes and the oracle gate fit in
    /// a 25 s run; HBM sizes keep `Scale::Default`'s 1/2/3/5 working sets.
    pub fn sort(smoke: bool) -> Sweep {
        let (spec, threads, scale, min_passes) = if smoke {
            let spec = WorkloadSpec::Sort {
                algo: SortAlgo::Mergesort,
                n: 300,
            };
            (spec, vec![2, 4], Scale::Small, 2)
        } else {
            (
                Scale::Small.sort_spec(),
                vec![4, 8, 16, 32, 64],
                Scale::Default,
                3,
            )
        };
        Sweep {
            name: "sweep_sort",
            spec,
            threads,
            scale,
            tag: "dataset1-fifo-vs-priority",
            journaled: false,
            min_passes,
        }
    }

    /// Exactly the `repro sweep --scale full` grid: Dataset 3 over 16
    /// thread counts up to 200, journaled. Set-up is cheap and FIFO misses
    /// on every reference, so the tick loop and per-cell scheduling
    /// dominate.
    pub fn cyclic(smoke: bool) -> Sweep {
        let (spec, threads, scale, min_passes) = if smoke {
            let spec = WorkloadSpec::Cyclic { pages: 16, reps: 4 };
            (spec, vec![1, 2, 4], Scale::Small, 2)
        } else {
            let (pages, reps) = Scale::Full.cyclic_params();
            let spec = WorkloadSpec::Cyclic { pages, reps };
            (spec, Scale::Full.thread_counts(), Scale::Full, 3)
        };
        Sweep {
            name: "sweep_cyclic",
            spec,
            threads,
            scale,
            tag: "dataset3-fifo-vs-priority",
            journaled: true,
            min_passes,
        }
    }

    fn max_p(&self) -> usize {
        *self.threads.last().expect("a sweep has thread counts")
    }

    /// Worker threads of the production pass.
    fn workers(&self) -> usize {
        if self.journaled {
            WORKERS
        } else {
            hbm_par::default_threads()
        }
    }

    /// The set-up: traces, HBM sizes, and one flat workload per `p`.
    fn prepare(&self, seed: u64) -> (TracePool, Vec<usize>) {
        let pool = TracePool::generate(self.spec, self.max_p(), seed, TraceOptions::default());
        let ks = hbm_sizes_for(&pool, self.scale);
        for &p in &self.threads {
            pool.flat(p);
        }
        (pool, ks)
    }

    /// Every simulation cell in the production order: p-major, then k,
    /// then FIFO before the challenger.
    fn sim_cells(&self, ks: &[usize]) -> Vec<(usize, usize, ArbitrationKind)> {
        let mut cells = Vec::with_capacity(2 * self.threads.len() * ks.len());
        for &p in &self.threads {
            for &k in ks {
                cells.push((p, k, ArbitrationKind::Fifo));
                cells.push((p, k, CHALLENGER));
            }
        }
        cells
    }

    fn builder(k: usize, arb: ArbitrationKind, seed: u64) -> SimBuilder {
        SimBuilder::new()
            .hbm_slots(k)
            .channels(Q)
            .arbitration(arb)
            .seed(seed)
    }

    fn open_journal(&self, path: &Path) -> Result<SweepJournal, String> {
        SweepJournal::open(path).map_err(|e| format!("open journal {}: {e}", path.display()))
    }

    /// The production pass. `journal` must be fresh when the sweep is
    /// journaled.
    fn production(
        &self,
        pool: &TracePool,
        ks: &[usize],
        seed: u64,
        journal: &Path,
    ) -> Result<Vec<RatioCell>, String> {
        if !self.journaled {
            return Ok(ratio_sweep(
                pool,
                &self.threads,
                ks,
                |_| CHALLENGER,
                Q,
                seed,
            ));
        }
        let journal = self.open_journal(journal)?;
        let opts = SweepRunOptions {
            threads: WORKERS,
            ..SweepRunOptions::default()
        };
        let o = run_journaled_sweep(
            pool,
            self.tag,
            &self.threads,
            ks,
            |_| CHALLENGER,
            Q,
            seed,
            &journal,
            &opts,
        );
        match o.failures.first() {
            Some(f) => Err(format!("cell p={} k={}: {}", f.p, f.k, f.reason)),
            None => Ok(o.cells),
        }
    }

    /// Checks one pass's cells: complete, none truncated, and identical
    /// (cells and JSON artifact) to the first pass.
    fn check_pass(
        &self,
        out: &mut Outcome,
        ks: &[usize],
        cells: Result<Vec<RatioCell>, String>,
        first: &mut Option<Vec<RatioCell>>,
    ) {
        let want = self.threads.len() * ks.len();
        let cells = match cells {
            Ok(c) => c,
            Err(e) => {
                out.check(false, || format!("sweep failed: {e}"));
                return;
            }
        };
        out.count(2 * cells.len() as u64, 0);
        out.check(
            cells.len() == want && cells.iter().all(|c| !c.truncated),
            || format!("{} of {want} cells, or truncated cells", cells.len()),
        );
        match first {
            None => *first = Some(cells),
            Some(f) => {
                out.check(
                    *f == cells && cells_to_json(f) == cells_to_json(&cells),
                    || "cells or artifact differ from the first pass".into(),
                );
            }
        }
    }

    /// Re-runs a sample of cells through the oracle (with the engine
    /// report from `reports` when given, else a fresh engine run) and
    /// checks the production cell's makespan and hit rate against it. The
    /// sample runs on the worker threads, largest `p` first.
    #[allow(clippy::too_many_arguments)]
    fn oracle_gate(
        &self,
        out: &mut Outcome,
        pool: &TracePool,
        ks: &[usize],
        cells: &[RatioCell],
        seed: u64,
        reports: Option<&[Report]>,
        trace: Option<(&Tracer, &Open)>,
    ) -> (usize, usize) {
        let sim = self.sim_cells(ks);
        let mut sample = oracle_sample(sim.len(), sim.len() - 1);
        sample.sort_by_key(|&i| std::cmp::Reverse(sim[i].0));
        let verdicts = hbm_par::parallel_map_with(&sample, WORKERS, |&i| {
            let (p, k, arb) = sim[i];
            let flat = pool.flat(p);
            let b = Self::builder(k, arb, seed);
            timed(trace, "oracle.check", "oracle", || {
                let engine = match reports {
                    Some(r) => Ok(r[i].clone()),
                    None => run_cell(&b, &flat, &mut EngineScratch::default()),
                };
                let Ok(engine) = engine else { return false };
                sweep_result(cells, i) == Some((engine.makespan, engine.hit_rate))
                    && oracle_matches(&b, &flat, &engine)
            })
        });
        let mut mismatches = 0;
        for (&i, ok) in sample.iter().zip(verdicts) {
            let (p, k, arb) = sim[i];
            if !out.check(ok, || format!("oracle mismatch at p={p} k={k} {arb:?}")) {
                mismatches += 1;
            }
        }
        (sample.len(), mismatches)
    }

    /// The untraced run: timed passes, with the oracle gate on the first
    /// pass's traces before the second.
    pub fn run(&self, cfg: &RunCfg) -> Outcome {
        let mut out = Outcome::new(self.name);
        let (mut setups, mut walls) = (Vec::new(), Vec::new());
        let mut first = None;
        let mut first_pass_rss = None;
        let mut cells_per_pass = 0;
        let started = Instant::now();
        let mut last_pass_s = 0.0;
        while cfg.another_pass(started, walls.len(), self.min_passes, last_pass_s) {
            let pass_start = Instant::now();
            let (pool, ks) = self.prepare(cfg.seed);
            setups.push(pass_start.elapsed().as_secs_f64());
            let journal = cfg.scratch_file(&format!("{}-pass{}", self.name, walls.len()));
            let t = Instant::now();
            let cells = self.production(&pool, &ks, cfg.seed, &journal);
            walls.push(t.elapsed().as_secs_f64());
            let _ = std::fs::remove_file(&journal);
            self.check_pass(&mut out, &ks, cells, &mut first);
            last_pass_s = pass_start.elapsed().as_secs_f64();
            cells_per_pass = 2 * self.threads.len() * ks.len();
            if first_pass_rss.is_none() {
                first_pass_rss = Some(crate::sys::peak_rss_mb());
                let cells = first.as_deref().unwrap_or_default();
                self.oracle_gate(&mut out, &pool, &ks, cells, cfg.seed, None, None);
            }
            // The pool drops here, before the next pass builds its own.
        }

        out.set("setup_s", median(&setups), setups.len());
        out.set(
            "ops_per_s",
            cells_per_pass as f64 / median(&walls),
            walls.len(),
        );
        out.set("p50_ms", median(&walls) * 1e3, walls.len());
        out.set("p99_ms", percentile(&walls, 0.99) * 1e3, walls.len());
        report_peak_rss(&mut out, first_pass_rss);
        out
    }

    /// The traced run: an untraced reference pass, then — under the root
    /// span — set-up, one production pass, a journal resume (journaled
    /// sweep only), the one-cell-at-a-time decomposition, the model check
    /// and the oracle gate. Returns the outcome and the root span id.
    pub fn traced(&self, cfg: &RunCfg, tracer: &Tracer) -> (Outcome, u64) {
        let mut out = Outcome::new(self.name);
        let mut first = None;
        let base_s = {
            let (pool, ks) = self.prepare(cfg.seed);
            let journal = cfg.scratch_file(&format!("{}-reference", self.name));
            let t = Instant::now();
            let cells = self.production(&pool, &ks, cfg.seed, &journal);
            let base_s = t.elapsed().as_secs_f64();
            let _ = std::fs::remove_file(&journal);
            self.check_pass(&mut out, &ks, cells, &mut first);
            base_s
        };

        let root = tracer.start_trace("workload", NO_LAYER, None);
        let setup = tracer.start_trace("setup", NO_LAYER, Some(&root));
        let rss_before = crate::sys::rss_mb().unwrap_or(0.0);
        let (pool, gen_s) = tracer.time("traces.generate", "traces", &setup, || {
            TracePool::generate(self.spec, self.max_p(), cfg.seed, TraceOptions::default())
        });
        let (ks, probe_s) = tracer.time("traces.probe", "traces", &setup, || {
            hbm_sizes_for(&pool, self.scale)
        });
        let (mut flat_s, mut flat_refs, mut pages) = (0.0, 0usize, 0usize);
        for &p in &self.threads {
            let (flat, s) = tracer.time("flat.build", "flat", &setup, || pool.flat(p));
            flat_s += s;
            flat_refs += flat.total_refs();
            pages += flat.total_pages();
        }
        let rss_delta = crate::sys::rss_mb().unwrap_or(0.0) - rss_before;
        tracer.end(setup);

        let journal = cfg.scratch_file(&format!("{}-traced", self.name));
        let pass = tracer.start_trace("pass", self.layer(), Some(&root));
        let cells = self.production(&pool, &ks, cfg.seed, &journal);
        let pass_s = tracer.end(pass);
        self.check_pass(&mut out, &ks, cells, &mut first);
        let cells = first.clone().unwrap_or_default();

        if self.journaled {
            let resume = tracer.start_trace("resume", NO_LAYER, Some(&root));
            self.journal_resume(&mut out, cfg, tracer, &resume, &pool, &ks, &cells, &journal);
            tracer.end(resume);
        }
        let _ = std::fs::remove_file(&journal);

        let decompose = tracer.start_trace("decompose", NO_LAYER, Some(&root));
        let mut totals = EngineTotals::default();
        let mut reports = Vec::new();
        let mut scratch = EngineScratch::default();
        for (i, &(p, k, arb)) in self.sim_cells(&ks).iter().enumerate() {
            let cell = tracer.start_trace("cell", NO_LAYER, Some(&decompose));
            let flat = pool.flat(p);
            let b = Self::builder(k, arb, cfg.seed);
            match traced_cell(tracer, &cell, &b, &flat, &mut scratch) {
                Ok((r, setup_s, run_s)) => {
                    totals.add(&r, setup_s, run_s);
                    out.check(
                        sweep_result(&cells, i) == Some((r.makespan, r.hit_rate)),
                        || format!("decomposed cell p={p} k={k} {arb:?} differs from the sweep"),
                    );
                    reports.push(r);
                }
                Err(e) => {
                    out.check(false, || format!("cell p={p} k={k}: {e}"));
                }
            }
            tracer.end(cell);
        }
        tracer.end(decompose);

        let check = tracer.start_trace("model_check", NO_LAYER, Some(&root));
        let mut summary_s = 0.0;
        let mut summaries = Vec::new();
        for &p in &self.threads {
            let (s, dt) = tracer.time("analysis.summary", "analysis", &check, || {
                WorkloadSummary::from_spec_opts(self.spec, cfg.seed, p, TraceOptions::default())
            });
            summary_s += dt;
            summaries.push(s);
        }
        let sim = self.sim_cells(&ks);
        let model_cells: Vec<(&WorkloadSummary, ModelConfig)> = sim
            .iter()
            .map(|&(p, k, arb)| {
                let si = self
                    .threads
                    .iter()
                    .position(|&t| t == p)
                    .expect("p is swept");
                (
                    &summaries[si],
                    ModelConfig::new(k, Q, arb, ReplacementKind::Lru),
                )
            })
            .collect();
        let ((preds, predict_ns), _) = tracer.time("model.predict", "model", &check, || {
            time_predicts(&model_cells, 100_000)
        });
        tracer.end(check);

        let gate = tracer.start_trace("oracle_gate", NO_LAYER, Some(&root));
        let complete = reports.len() == sim.len();
        let (checked, mismatches) = self.oracle_gate(
            &mut out,
            &pool,
            &ks,
            &cells,
            cfg.seed,
            complete.then_some(&reports[..]),
            Some((tracer, &gate)),
        );
        tracer.end(gate);
        let root_id = root.id();
        tracer.end(root);

        out.set("traces.gen_s", gen_s + probe_s, 1);
        out.set(
            "traces.refs",
            pool.flat(self.max_p()).total_refs() as f64,
            1,
        );
        out.set("flat.build_s", flat_s, self.threads.len());
        out.set(
            "flat.ns_per_ref",
            flat_s * 1e9 / flat_refs.max(1) as f64,
            self.threads.len(),
        );
        out.set("flat.pages", pages as f64, self.threads.len());
        out.set("flat.rss_delta_mb", rss_delta, 1);
        totals.report(&mut out);
        report_par(
            &mut out,
            self.workers(),
            totals.busy_s(),
            base_s,
            totals.max_cell_s(),
        );
        out.set("analysis.summary_s", summary_s, self.threads.len());
        out.set("model.predict_ns", predict_ns, model_cells.len());
        let pairs: Vec<_> = preds
            .into_iter()
            .zip(reports.iter().map(|r| r.makespan))
            .collect();
        report_model(&mut out, &pairs);
        out.set("oracle.cells", checked as f64, checked);
        out.set("oracle.mismatches", mismatches as f64, checked);
        out.set("trace.overhead_frac", pass_s / base_s - 1.0, 1);
        (out, root_id)
    }

    /// Layer of the production pass span: the module of its entry point.
    fn layer(&self) -> &'static str {
        if self.journaled {
            "journal"
        } else {
            "sweep"
        }
    }

    /// Times `run_journaled_sweep` over the pass's complete journal and
    /// checks every cell resumes unchanged.
    #[allow(clippy::too_many_arguments)]
    fn journal_resume(
        &self,
        out: &mut Outcome,
        cfg: &RunCfg,
        tracer: &Tracer,
        parent: &Open,
        pool: &TracePool,
        ks: &[usize],
        cells: &[RatioCell],
        journal: &Path,
    ) {
        let (resumed, _) = tracer.time("journal.resume", "journal", parent, || {
            let j = self.open_journal(journal)?;
            let records = j.len();
            let opts = SweepRunOptions {
                threads: WORKERS,
                ..SweepRunOptions::default()
            };
            let o = run_journaled_sweep(
                pool,
                self.tag,
                &self.threads,
                ks,
                |_| CHALLENGER,
                Q,
                cfg.seed,
                &j,
                &opts,
            );
            Ok::<_, String>((records, o))
        });
        match resumed {
            Ok((records, o)) => {
                out.check(
                    o.resumed == cells.len() && o.cells == cells && o.failures.is_empty(),
                    || {
                        format!(
                            "journal resume: {} of {} cells resumed",
                            o.resumed,
                            cells.len()
                        )
                    },
                );
                let bytes = std::fs::metadata(journal).map_or(0, |m| m.len());
                out.set("journal.records", records as f64, 1);
                out.set("journal.bytes", bytes as f64, 1);
            }
            Err(e) => {
                out.check(false, || e);
            }
        }
    }
}

/// The sweep's `(makespan, hit rate)` for simulation cell `i` of
/// [`Sweep::sim_cells`]: FIFO for even `i`, the challenger for odd.
fn sweep_result(cells: &[RatioCell], i: usize) -> Option<(u64, f64)> {
    cells.get(i / 2).map(|c| {
        if i.is_multiple_of(2) {
            (c.fifo_makespan, c.fifo_hit_rate)
        } else {
            (c.challenger_makespan, c.challenger_hit_rate)
        }
    })
}
