//! The repo benchmark: four fleet workloads, end-to-end metrics in host
//! time and in simulated time, and an outside-in per-layer profile.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --check            fast correctness pass at tiny sizes, two seeds
//! benchmark --aa               A/A: every workload twice, interleaved, vs the bounds
//! benchmark --print-manifest   BENCHMARK.json, rendered from the metric tables
//! ```
//!
//! A workload run prints every metric by name with its unit, then a JSON
//! line of provenance and statistics, then — last — the result line
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`, and exits
//! non-zero if any output of the program was wrong. README.md has the
//! workload, metric and interaction tables.

mod aa;
mod harness;
mod json;
mod layers;
mod manifest;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::{Outcome, RunOpts, Verdict};
use json::Json;
use trace::Tracer;
use workloads::{Workload, WORKLOADS};

enum Mode {
    Run { workload: String, trace: bool },
    Check,
    Aa,
    PrintManifest,
}

struct Cli {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let (mut seed, mut seconds) = (42, manifest::RUN_SECONDS as f64);
    let (mut workload, mut trace, mut mode) = (None, false, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value ({what})"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--check" => mode = Some(Mode::Check),
            "--aa" => mode = Some(Mode::Aa),
            "--print-manifest" => mode = Some(Mode::PrintManifest),
            other if !other.starts_with('-') && workload.is_none() => {
                workload = Some(other.to_owned())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mode = match (mode, workload) {
        (Some(mode), None) => mode,
        (None, Some(workload)) => Mode::Run { workload, trace },
        (Some(_), Some(_)) => return Err("a mode flag takes no workload".into()),
        (None, None) => {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "name a workload ({}) or one of --check, --aa, --print-manifest",
                names.join(", ")
            ));
        }
    };
    Ok(Cli {
        mode,
        seed,
        seconds,
    })
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Print a finished run's provenance line and, last, its result line.
fn report(outcome: &Outcome) -> ExitCode {
    for problem in &outcome.verdict.problems {
        println!("WRONG: {problem}");
    }
    println!("{}", outcome.detail);
    let result = Json::obj([
        ("correct", Json::Bool(outcome.verdict.correct())),
        ("attempted", Json::Int(outcome.verdict.attempted)),
        ("failed", Json::Int(outcome.verdict.failed)),
        ("metrics", harness::metrics_json(&outcome.metrics)),
    ]);
    println!("{result}");
    if outcome.verdict.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--check`: every guard on every workload at tiny sizes and two seeds,
/// one short pass through the replays, and the manifest against
/// `BENCHMARK.json`. Seconds, not minutes; timings are not looked at.
fn check(seed: u64) -> ExitCode {
    let mut problems = Vec::new();
    for w in &WORKLOADS {
        for seed in [seed, seed.wrapping_add(1)] {
            let mut verdict = check_workload(w, seed);
            if verdict.failed > 0 {
                verdict.problem(format!("{} programs failed", verdict.failed));
            }
            println!(
                "check {:<15} seed {seed}: {} programs, {}",
                w.name,
                verdict.attempted,
                if verdict.correct() { "ok" } else { "WRONG" }
            );
            problems.extend(
                verdict
                    .problems
                    .into_iter()
                    .map(|p| format!("{} seed {seed}: {p}", w.name)),
            );
        }
    }
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(committed) if committed != manifest::manifest() => {
            problems.push("BENCHMARK.json differs from --print-manifest".into())
        }
        Ok(_) => println!("check BENCHMARK.json matches the metric tables"),
        Err(_) => println!("check BENCHMARK.json not found here, skipped"),
    }
    for problem in &problems {
        println!("WRONG: {problem}");
    }
    if problems.is_empty() {
        println!("check passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn check_workload(w: &Workload, seed: u64) -> Verdict {
    let opts = RunOpts {
        seed,
        seconds: 0.0,
        programs: w.check_programs,
        host_cores: host_cores(),
    };
    let mut verdict = Verdict::default();
    let scheduler = w.scheduler(opts.host_cores);
    let mut tracer = Tracer::new();
    tracer.enabled = true;
    let first = harness::rep(w, &opts, scheduler, &mut tracer, &mut verdict);
    let second = harness::rep(w, &opts, scheduler, &mut tracer, &mut verdict);
    harness::check_same(&first, &second, &mut verdict);
    harness::check_report(w, &opts, &first, &mut verdict);
    // One quick pass through every replay, so a layer API that changed
    // shape fails here and not minutes into a traced run. Findings that
    // depend on timing mean nothing at this size and are dropped.
    let profile = layers::profile(
        &layers::ProfileInput {
            w,
            class: &first.class,
            report: &first.report,
            programs: opts.programs,
            seed,
            host_cores: opts.host_cores,
            wall_s: first.wall_s,
            traced_wall_s: second.wall_s,
            parallel_walls: None,
        },
        &mut layers::Replayer {
            tracer: &mut tracer,
            batch_s: 0.0005,
            batches: 2,
        },
    );
    for mismatch in profile.mismatches {
        verdict.problem(mismatch);
    }
    verdict
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match cli.mode {
        Mode::PrintManifest => {
            print!("{}", manifest::manifest());
            ExitCode::SUCCESS
        }
        Mode::Check => check(cli.seed),
        Mode::Aa => aa::run(cli.seed, cli.seconds),
        Mode::Run { workload, trace } => {
            let Some(w) = workloads::by_name(&workload) else {
                eprintln!("benchmark: unknown workload {workload:?}");
                return ExitCode::from(2);
            };
            let opts = RunOpts {
                seed: cli.seed,
                seconds: cli.seconds,
                programs: w.programs,
                host_cores: host_cores(),
            };
            let outcome = if trace {
                harness::run_traced(w, &opts)
            } else {
                harness::run_untraced(w, &opts)
            };
            report(&outcome)
        }
    }
}
