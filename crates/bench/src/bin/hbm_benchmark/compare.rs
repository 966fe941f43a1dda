//! `--compare A.json B.json`: for each workload and end-to-end metric,
//! the median, quartiles and sample count of each side, B's change
//! against A as a share of A's median, and a verdict against the metric's
//! bound; and per workload, the failed operations and incorrect runs of
//! each side. A is the parent (baseline), B the change.

use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles, rel_spread};
use hbm_serve::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classifies B against A:
/// - `unresolved` when either side's interquartile spread exceeds the
///   bound — unless every run of B beats every run of A (`improved`);
/// - `regressed` when B's median is worse than A's by more than the bound;
/// - `improved` when B wins at least nine tenths of the runs paired in
///   order, and the medians differ, in B's favour, by more than A's
///   interquartile range;
/// - `ok` otherwise.
pub fn classify(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let (ma, mb) = (median(a), median(b));
    let every_run_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    if rel_spread(a).max(rel_spread(b)) > bound {
        return if every_run_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(ma, mb, better) > bound {
        return Verdict::Regressed;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| beats(y, x)).count();
    let (q1, q3) = quartiles(a);
    if pairs > 0 && wins * 10 >= pairs * 9 && beats(mb, ma) && (mb - ma).abs() > q3 - q1 {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The outcome counts of one side's runs of a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Failures {
    pub runs: u64,
    /// Runs whose result was not `correct`.
    pub incorrect: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Failures {
    fn frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A gain does not count when B fails where A did not: B regresses when any
/// of its runs was incorrect or a larger share of its operations failed.
pub fn classify_failures(a: &Failures, b: &Failures) -> Verdict {
    if b.incorrect > 0 || b.frac() > a.frac() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `(workload, metric) -> values`, one per run in a `--out` file.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &Path) -> Result<(Samples, BTreeMap<String, Failures>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no 'runs' array", path.display()))?;
    let mut samples = Samples::new();
    let mut failures = BTreeMap::<String, Failures>::new();
    for run in runs {
        let workloads = run
            .get("workloads")
            .and_then(Json::as_object)
            .unwrap_or(&[]);
        for (workload, result) in workloads {
            let f = failures.entry(workload.clone()).or_default();
            let count = |key| result.get(key).and_then(Json::as_u64).unwrap_or(0);
            f.runs += 1;
            f.incorrect += u64::from(result.get("correct").and_then(Json::as_bool) != Some(true));
            f.attempted += count("attempted");
            f.failed += count("failed");
            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .unwrap_or(&[]);
            for (metric, v) in metrics {
                if let Some(value) = v.get("value").and_then(Json::as_f64) {
                    samples
                        .entry((workload.clone(), metric.clone()))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok((samples, failures))
}

/// Prints the comparison table; returns the exit status (1 when any
/// metric regressed or is unresolved, or B failed more than A).
pub fn run(a_path: &Path, b_path: &Path) -> i32 {
    let ((a, a_fail), (b, b_fail)) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    println!(
        "{:<14} {:<12} {:>34} {:>34} {:>8} {:>13}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "delta", "bound"
    );
    let mut failing = 0;
    let mut compared = 0;
    for (w, fa) in &a_fail {
        let Some(fb) = b_fail.get(w) else { continue };
        let fail_verdict = classify_failures(fa, fb);
        let side = |f: &Failures| {
            format!(
                "{}/{} ops, {}/{} runs bad",
                f.failed, f.attempted, f.incorrect, f.runs
            )
        };
        println!(
            "{w:<14} {:<12} {:>34} {:>34} {:>8} {:>13}  {}",
            "failed",
            side(fa),
            side(fb),
            "",
            "none",
            fail_verdict.as_str()
        );
        if fail_verdict == Verdict::Regressed {
            failing += 1;
        }
        for m in &END_TO_END {
            let key = (w.clone(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            compared += 1;
            let mut verdict = classify(va, vb, m.better, m.bound);
            if verdict == Verdict::Improved && fail_verdict == Verdict::Regressed {
                verdict = Verdict::Ok;
            }
            if matches!(verdict, Verdict::Regressed | Verdict::Unresolved) {
                failing += 1;
            }
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{q1:.4}, {q3:.4}] {}", median(v), v.len())
            };
            let delta = -worse_by(median(va), median(vb), m.better);
            println!(
                "{w:<14} {:<12} {:>34} {:>34} {:>+7.2}% {:>3.0}% ({:<6})  {}",
                m.name,
                side(va),
                side(vb),
                100.0 * delta,
                100.0 * m.bound,
                m.better.as_str(),
                verdict.as_str()
            );
        }
    }
    if compared == 0 {
        eprintln!("error: the files share no (workload, end-to-end metric) pair");
        return 2;
    }
    i32::from(failing > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(m: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| m * (1.0 + jitter * (i as f64 - 4.5) / 4.5))
            .collect()
    }

    #[test]
    fn same_distribution_is_ok() {
        let a = around(100.0, 0.02);
        assert_eq!(classify(&a, &a, Better::Lower, 0.1), Verdict::Ok);
        assert_eq!(classify(&a, &a, Better::Higher, 0.1), Verdict::Ok);
    }

    #[test]
    fn worse_beyond_the_bound_regresses() {
        let a = around(100.0, 0.01);
        let slower = around(120.0, 0.01);
        assert_eq!(
            classify(&a, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        // Higher-is-better: a drop regresses, a rise improves.
        assert_eq!(
            classify(&slower, &a, Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            classify(&a, &slower, Better::Higher, 0.1),
            Verdict::Improved
        );
        // Worse, but within the bound: ok.
        let bit_slower = around(105.0, 0.01);
        assert_eq!(classify(&a, &bit_slower, Better::Lower, 0.1), Verdict::Ok);
    }

    #[test]
    fn consistent_gain_beyond_the_parent_spread_improves() {
        let a = around(100.0, 0.01);
        let faster = around(95.0, 0.01);
        assert_eq!(classify(&a, &faster, Better::Lower, 0.1), Verdict::Improved);
        // A gain smaller than the parent's own spread is not a gain.
        let noisy = around(100.0, 0.08);
        let slightly = around(99.0, 0.08);
        assert_eq!(classify(&noisy, &slightly, Better::Lower, 0.1), Verdict::Ok);
    }

    #[test]
    fn failures_in_b_regress() {
        let clean = Failures {
            runs: 10,
            incorrect: 0,
            attempted: 1000,
            failed: 0,
        };
        assert_eq!(classify_failures(&clean, &clean), Verdict::Ok);
        let one_bad = Failures {
            incorrect: 1,
            failed: 1,
            ..clean
        };
        assert_eq!(classify_failures(&clean, &one_bad), Verdict::Regressed);
        // Failing as often as a failing parent still regresses.
        assert_eq!(classify_failures(&one_bad, &one_bad), Verdict::Regressed);
        assert_eq!(classify_failures(&one_bad, &clean), Verdict::Ok);
    }

    /// A `--out` document of ten runs of one workload, every end-to-end
    /// metric at 1.0 (+ a little per run), with run `bad` (if any) failed.
    fn out_doc(bad: Option<usize>) -> String {
        let runs: Vec<String> = (0..10)
            .map(|r| {
                let metrics: Vec<String> = END_TO_END
                    .iter()
                    .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, 1.0 + r as f64 * 1e-3, m.unit))
                    .collect();
                let failed = u64::from(bad == Some(r));
                format!(
                    "{{\"seed\":{r},\"trace\":false,\"workloads\":{{\"sweep_sort\":{{\"correct\":{},\
                     \"attempted\":100,\"failed\":{failed},\"metrics\":{{{}}}}}}}}}",
                    failed == 0,
                    metrics.join(",")
                )
            })
            .collect();
        format!("{{\"runs\":[{}]}}", runs.join(","))
    }

    #[test]
    fn an_incorrect_run_fails_the_comparison() {
        let dir =
            std::env::temp_dir().join(format!("hbm-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&a, out_doc(None)).unwrap();
        std::fs::write(&b, out_doc(None)).unwrap();
        assert_eq!(run(&a, &b), 0);
        // Same timings, but one run of B failed a check.
        std::fs::write(&b, out_doc(Some(3))).unwrap();
        assert_eq!(run(&a, &b), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let a = around(100.0, 0.3);
        let b = around(101.0, 0.3);
        assert_eq!(classify(&a, &b, Better::Lower, 0.1), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let much_faster = around(40.0, 0.3);
        assert_eq!(
            classify(&a, &much_faster, Better::Lower, 0.1),
            Verdict::Improved
        );
    }
}
