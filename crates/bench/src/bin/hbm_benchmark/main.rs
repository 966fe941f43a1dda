//! `hbm_benchmark` — the repository's benchmark: four workloads, their
//! end-to-end metrics, and a traced run that splits each workload's wall
//! time into layers. See `README.md` in this directory.
//!
//! ```text
//! # every workload, each in a fresh child process
//! cargo run --release -p hbm-bench --bin hbm_benchmark -- [--seed 42] [--out FILE]
//! # the traced run (per-layer metrics; spans written to FILE)
//! cargo run --release -p hbm-bench --bin hbm_benchmark -- --trace FILE
//! # one workload, as `BENCHMARK.json`'s command runs it
//! hbm_benchmark --workload NAME --seed N --seconds S --trace 0|1
//! # two result files against the end-to-end bounds
//! hbm_benchmark --compare A.json B.json
//! ```
//!
//! Prints every metric as `workload metric value unit n=<samples>`; a
//! single-workload run ends with one JSON line `{correct, attempted,
//! failed, metrics}`. Exits non-zero when any output is wrong.

mod common;
mod compare;
mod explore;
mod metrics;
mod serve;
mod spans;
mod stats;
mod sweeps;
mod sys;

use common::{report_layers, RunCfg};
use hbm_serve::json::Json;
use metrics::Outcome;
use spans::{Span, Tracer};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = ["sweep_sort", "sweep_cyclic", "serve_mix", "explore_grid"];

const USAGE: &str = "usage: hbm_benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1|FILE] [--out FILE] [--repeat N] [--smoke]\n       \
hbm_benchmark --compare A.json B.json\n\
workloads: sweep_sort, sweep_cyclic, serve_mix, explore_grid";

#[derive(Debug, Clone, PartialEq)]
enum Trace {
    Off,
    /// Traced; spans go to the file when one is named.
    On(Option<PathBuf>),
}

#[derive(Debug)]
struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    out: Option<PathBuf>,
    repeat: usize,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 25.0,
        trace: Trace::Off,
        out: None,
        repeat: 1,
        smoke: false,
        compare: None,
    };
    let mut seconds = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                args.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|&n| n == w)
                        .ok_or_else(|| format!("unknown workload '{w}'"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On(None),
                    path => Trace::On(Some(PathBuf::from(path))),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => args.smoke = true,
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(it.next().ok_or("--compare needs two files")?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.seconds = seconds.unwrap_or(if args.smoke { 1.0 } else { 25.0 });
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if let Some(w) = args.workload {
        run_single(&args, w)
    } else {
        run_suite(&args)
    };
    std::process::exit(code);
}

/// Runs one workload in this process. Untraced runs report the end-to-end
/// metrics, traced runs the per-layer ones (and their spans).
pub fn run_workload(name: &str, cfg: &RunCfg, traced: bool) -> (Outcome, Vec<Span>) {
    let name = *WORKLOADS
        .iter()
        .find(|&&n| n == name)
        .expect("workload names are checked when parsed");
    if !traced {
        let out = match name {
            "sweep_sort" => sweeps::Sweep::sort(cfg.smoke).run(cfg),
            "sweep_cyclic" => sweeps::Sweep::cyclic(cfg.smoke).run(cfg),
            "serve_mix" => serve::Serve::new(cfg.smoke).run(cfg),
            _ => explore::Explore::new(cfg.smoke).run(cfg),
        };
        return (out, Vec::new());
    }
    let tracer = Tracer::new(name);
    let (mut out, root) = match name {
        "sweep_sort" => sweeps::Sweep::sort(cfg.smoke).traced(cfg, &tracer),
        "sweep_cyclic" => sweeps::Sweep::cyclic(cfg.smoke).traced(cfg, &tracer),
        "serve_mix" => serve::Serve::new(cfg.smoke).traced(cfg, &tracer),
        _ => explore::Explore::new(cfg.smoke).traced(cfg, &tracer),
    };
    let spans = tracer.finish();
    if spans.iter().any(|s| s.span == root) {
        report_layers(&mut out, &spans, root);
    } else {
        out.check(false, || "the traced run ended before its root span".into());
    }
    out.zero_unset_layers();
    (out, spans)
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut text = String::new();
    for s in spans {
        text.push_str(&s.to_json_line());
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The `--out` document: every run's per-workload results.
fn results_doc(args: &Args, runs: &[String]) -> String {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"schema\":\"hbm-benchmark-v1\",\"host_threads\":{threads},\"seconds\":{},\
         \"smoke\":{},\"runs\":[\n{}\n]}}\n",
        hbm_serve::json::fmt_f64(args.seconds),
        args.smoke,
        runs.join(",\n")
    )
}

fn run_json(seed: u64, traced: bool, results: &[(&str, String)]) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|(w, json)| format!("\"{w}\":{json}"))
        .collect();
    format!(
        "{{\"seed\":{seed},\"trace\":{traced},\"workloads\":{{{}}}}}",
        workloads.join(",")
    )
}

fn run_single(args: &Args, name: &'static str) -> i32 {
    // Journals live under the build directory of the checkout.
    let scratch =
        PathBuf::from(".bench_build").join(format!("hbm_benchmark-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        return 2;
    }
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        scratch: scratch.clone(),
    };
    let traced = args.trace != Trace::Off;
    let (outcome, spans) = run_workload(name, &cfg, traced);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut code = i32::from(!outcome.correct());
    if let Trace::On(Some(path)) = &args.trace {
        if let Err(e) = write_spans(path, &spans) {
            eprintln!("error: {e}");
            code = 1;
        }
    }
    eprintln!(
        "[hbm_benchmark] {name}: host_threads={} attempted={} failed={}",
        hbm_par::default_threads(),
        outcome.attempted,
        outcome.failed
    );
    print!("{}", outcome.lines());
    let json = outcome.to_json();
    if let Some(out) = &args.out {
        let doc = results_doc(
            args,
            &[run_json(args.seed, traced, &[(name, json.clone())])],
        );
        if let Err(e) = std::fs::write(out, doc) {
            eprintln!("error: cannot write {}: {e}", out.display());
            code = 1;
        }
    }
    println!("{json}");
    code
}

/// Runs every workload `--repeat` times (seeds `seed`, `seed + 1`, ...),
/// each in a fresh child process so peak RSS and cold set-up belong to a
/// single workload.
fn run_suite(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return 2;
        }
    };
    let traced = args.trace != Trace::Off;
    let spans_path = match &args.trace {
        Trace::On(path) => path.clone(),
        Trace::Off => None,
    };
    let mut all_spans = String::new();
    let mut runs = Vec::new();
    let mut code = 0;
    for r in 0..args.repeat {
        let seed = args.seed + r as u64;
        let mut results = Vec::new();
        for w in WORKLOADS {
            let part = spans_path
                .as_ref()
                .map(|p| PathBuf::from(format!("{}.{w}.part", p.display())));
            let trace_arg = match (&part, traced) {
                (Some(p), _) => p.display().to_string(),
                (None, true) => "1".into(),
                (None, false) => "0".into(),
            };
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    &trace_arg,
                ])
                .stdout(Stdio::piped());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: cannot run {w}: {e}");
                    return 2;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for l in lines {
                println!("{l}");
            }
            match Json::parse(last) {
                Ok(_) => results.push((w, last.to_string())),
                Err(_) => eprintln!("error: {w} printed no result"),
            }
            if !output.status.success() {
                eprintln!("error: {w} (seed {seed}) exited with {}", output.status);
                code = 1;
            }
            if let Some(part) = part {
                all_spans.push_str(&std::fs::read_to_string(&part).unwrap_or_default());
                let _ = std::fs::remove_file(&part);
            }
        }
        runs.push(run_json(seed, traced, &results));
    }
    if let Some(path) = &spans_path {
        if let Err(e) = std::fs::write(path, all_spans) {
            eprintln!("error: cannot write {}: {e}", path.display());
            code = 1;
        }
    }
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, results_doc(args, &runs)) {
            eprintln!("error: cannot write {}: {e}", out.display());
            code = 1;
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some("serve_mix"));
        assert_eq!((a.seed, a.seconds), (7, 10.0));
        assert_eq!(a.trace, Trace::On(None));
        assert_eq!(args(&["--trace", "0"]).unwrap().trace, Trace::Off);
        assert_eq!(
            args(&["--trace", "spans.jsonl"]).unwrap().trace,
            Trace::On(Some(PathBuf::from("spans.jsonl")))
        );
        assert_eq!(args(&[]).unwrap().seconds, 25.0);
        assert_eq!(args(&["--smoke"]).unwrap().seconds, 1.0);
        for bad in [
            &["--workload", "nope"][..],
            &["--seconds", "0"],
            &["--seed"],
            &["--repeat", "0"],
            &["--compare", "a.json"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// The `[profile.*]` tables of a manifest: header -> sorted key lines.
    fn profile_tables(toml: &str) -> BTreeMap<&str, Vec<&str>> {
        let mut tables: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut current = None;
        for line in toml.lines().map(str::trim) {
            if line.starts_with('[') {
                current = line.starts_with("[profile.").then_some(line);
                if let Some(h) = current {
                    tables.entry(h).or_default();
                }
            } else if let Some(h) = current {
                if !line.is_empty() && !line.starts_with('#') {
                    tables.get_mut(h).expect("table opened above").push(line);
                }
            }
        }
        tables.values_mut().for_each(|v| v.sort_unstable());
        tables
    }

    /// The benchmark package builds with the workspace's profiles, so it
    /// measures what users build.
    #[test]
    fn profiles_match_the_workspace() {
        let own = profile_tables(include_str!("Cargo.toml"));
        let workspace = profile_tables(include_str!("../../../../../Cargo.toml"));
        assert!(workspace.contains_key("[profile.release]"));
        assert_eq!(own, workspace);
    }

    static SEQ: AtomicU32 = AtomicU32::new(0);

    fn smoke_cfg() -> RunCfg {
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let scratch =
            std::env::temp_dir().join(format!("hbm-benchmark-test-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        RunCfg {
            seed: 3,
            seconds: 0.5,
            smoke: true,
            scratch,
        }
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Every workload at toy sizes, untraced and traced: outputs check
    /// out, and exactly the declared metrics are emitted, valid, finite,
    /// and parseable as the single-workload output format promises.
    fn smoke(workload: &str) {
        let cfg = smoke_cfg();
        let (plain, spans) = run_workload(workload, &cfg, false);
        assert!(spans.is_empty());
        assert!(
            plain.correct(),
            "{workload}: {} of {} failed",
            plain.failed,
            plain.attempted
        );
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names.len(), want.len(), "{workload}: {names:?}");
        for m in &plain.metrics {
            assert!(want.contains(&m.name));
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{workload} {}: {}",
                m.name,
                m.value
            );
        }

        let (traced, spans) = run_workload(workload, &cfg, true);
        assert!(
            traced.correct(),
            "{workload} traced: {} of {} failed",
            traced.failed,
            traced.attempted
        );
        assert_eq!(traced.metrics.len(), PER_LAYER.len(), "{workload}");
        for m in &traced.metrics {
            assert!(PER_LAYER
                .iter()
                .any(|(n, u, _)| *n == m.name && *u == m.unit));
            assert!(m.value.is_finite());
        }
        for time in [
            "traces.gen_s",
            "flat.build_s",
            "engine.run_s",
            "analysis.summary_s",
            "model.predict_ns",
            "trace.wall_s",
            "unattributed_s",
        ] {
            assert!(
                traced.get(time).unwrap() > 0.0,
                "{workload}: {time} is not measured"
            );
        }
        assert!(
            traced.get("oracle.cells").unwrap() > 0.0,
            "{workload}: no oracle checks"
        );
        let layer_sum: f64 = metrics::LAYERS
            .iter()
            .map(|l| traced.get(&format!("{l}.self_frac")).unwrap())
            .sum::<f64>()
            + traced.get("unattributed_frac").unwrap();
        assert!(
            (layer_sum - 1.0).abs() < 1e-9,
            "{workload}: layer shares sum to {layer_sum}"
        );
        assert!(!spans.is_empty());

        for out in [&plain, &traced] {
            let text = format!("{}{}\n", out.lines(), out.to_json());
            let last = text.lines().last().unwrap();
            let j = Json::parse(last).unwrap();
            assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
            for line in text.lines().filter(|l| !l.starts_with('{')) {
                let fields: Vec<&str> = line.split(' ').collect();
                assert_eq!(fields.len(), 5, "{line}");
                assert_eq!(fields[0], workload);
                assert!(
                    valid_name(fields[1]) && metrics::unit_of(fields[1]).is_some(),
                    "{line}"
                );
                assert!(fields[2].parse::<f64>().is_ok(), "{line}");
                assert!(fields[4].starts_with("n="), "{line}");
            }
        }
        let _ = std::fs::remove_dir_all(&cfg.scratch);
    }

    #[test]
    fn smoke_sweep_sort() {
        smoke("sweep_sort");
    }

    #[test]
    fn smoke_sweep_cyclic() {
        smoke("sweep_cyclic");
    }

    #[test]
    fn smoke_serve_mix() {
        smoke("serve_mix");
    }

    #[test]
    fn smoke_explore_grid() {
        smoke("explore_grid");
    }
}
