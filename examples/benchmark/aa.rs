//! A/A harness: two sets of runs of the same code must agree within the
//! benchmark's own bounds, or the bounds (or the host) are not fit to
//! judge a change.
//!
//! Each workload runs four times in child processes of this binary (a
//! fresh process per run, so `peak_rss_mb` is per run), interleaved
//! A B A B with one seed. A side's value is the mean of its two runs.
//! Host-time metrics must differ by no more than their bound; `sim_*`
//! metrics and the exact counts must be bit-identical in all four runs.

use std::process::{Command, ExitCode};

use crate::json::{metric_value, uint_field};
use crate::manifest::END_TO_END;
use crate::workloads::WORKLOADS;

struct Run {
    metrics: Vec<f64>,
    /// The `"counts":{..}` object of the provenance line, verbatim.
    counts: String,
}

fn run_child(workload: &str, seed: u64, seconds: f64) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let (result, detail) = (lines.next().unwrap_or(""), lines.next().unwrap_or(""));
    if !out.status.success() || uint_field(result, "failed") != Some(0) {
        return Err(format!("{workload} run failed:\n{stdout}"));
    }
    let metrics = END_TO_END
        .iter()
        .map(|m| metric_value(result, m.name).ok_or(format!("{workload}: no {}", m.name)))
        .collect::<Result<_, _>>()?;
    let counts = detail
        .find("\"counts\":{")
        .and_then(|at| detail[at..].split_inclusive('}').next())
        .ok_or(format!("{workload}: no counts in the provenance line"))?;
    Ok(Run {
        metrics,
        counts: counts.to_owned(),
    })
}

pub fn run(seed: u64, seconds: f64) -> ExitCode {
    let mut breaches = 0;
    println!(
        "{:<15} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..4 {
            match run_child(w.name, seed, seconds) {
                Ok(run) => runs.push(run),
                Err(e) => {
                    println!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if runs.iter().any(|r| r.counts != runs[0].counts) {
            println!("{:<15} exact counts differ between runs: MISMATCH", w.name);
            breaches += 1;
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let value = |run: usize| runs[run].metrics[i];
            let (a, b) = ((value(0) + value(2)) / 2.0, (value(1) + value(3)) / 2.0);
            let diff = (b - a).abs() / a;
            let (ok, verdict) = if m.name.starts_with("sim_") {
                // Deterministic for one seed: any difference is a bug.
                match (1..4).all(|run| value(run) == value(0)) {
                    true => (true, "identical"),
                    false => (false, "MISMATCH"),
                }
            } else if diff <= m.bound {
                (true, "ok")
            } else {
                (false, "BREACH")
            };
            breaches += usize::from(!ok);
            println!(
                "{:<15} {:<16} {a:>14.6} {b:>14.6} {:>8.2}% {:>6.0}% {verdict}",
                w.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0
            );
        }
    }
    if breaches == 0 {
        println!("A/A passed: both sets agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("A/A FAILED: {breaches} breaches or mismatches");
        ExitCode::FAILURE
    }
}
