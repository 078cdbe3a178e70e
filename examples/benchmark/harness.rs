//! The measured loop: closed-loop reps of one workload in one process,
//! correctness guards on every rep, and the end-to-end metrics.
//!
//! A rep sets the workload up from scratch (author the guest, preprocess
//! it, build the `Scenario`), then calls `Scenario::run()`. Reps run back
//! to back, one at a time; inside a rep, programs arrive open-loop in
//! *virtual* time on the workload's schedule.

use std::path::PathBuf;
use std::time::Instant;

use sod::preprocess::preprocess_sod;
use sod::scenario::ScenarioReport;
use sod::vm::class::ClassDef;
use sod::Scheduler;

use crate::json::Json;
use crate::layers::{self, Counts, ProfileInput, Replayer};
use crate::manifest::{END_TO_END, PER_LAYER};
use crate::stats::{median_u64, Summary, ESTIMATOR};
use crate::trace::Tracer;
use crate::workloads::{self, Kind, Workload};

/// Untimed reps before measurement starts (allocator, page cache, lazy
/// set-up inside the program).
pub const WARMUP_REPS: usize = 2;
/// Fewest timed reps a run reports on, however short `--seconds` is.
pub const MIN_TIMED_REPS: usize = 5;
/// Fewest rounds (one untraced + one traced rep each) of a traced run.
pub const MIN_TRACED_ROUNDS: usize = 5;
/// Seconds one replay batch takes, and batches per replayed layer, in a
/// traced run.
const REPLAY_BATCH_S: f64 = 0.02;
const REPLAY_BATCHES: usize = 7;
/// Where the traced run writes `<workload>.trace.json`, relative to the
/// repo root the benchmark is run from.
pub const OUT_DIR: &str = "examples/benchmark/out";

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub programs: usize,
    pub host_cores: usize,
}

pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub class: ClassDef,
    pub report: ScenarioReport,
}

/// What went wrong, and how many operations (guest programs) ran.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn problem(&mut self, what: String) {
        if !self.problems.contains(&what) {
            self.problems.push(what);
        }
    }
}

/// One rep under `scheduler`, with a span around each stage when the
/// tracer is recording.
pub fn rep(
    w: &Workload,
    opts: &RunOpts,
    scheduler: Scheduler,
    tracer: &mut Tracer,
    verdict: &mut Verdict,
) -> Rep {
    let root = tracer.begin("rep");
    let started = Instant::now();
    let span = tracer.begin("setup.author");
    let raw = w.author();
    tracer.end(span);
    let span = tracer.begin("setup.preprocess");
    let class = preprocess_sod(&raw).expect("guest preprocesses");
    tracer.end(span);
    let span = tracer.begin("setup.scenario_build");
    let scenario = w.build(&class, opts.programs, opts.seed, scheduler);
    tracer.end(span);
    let setup_s = started.elapsed().as_secs_f64();

    let span = tracer.begin("rep.scenario_run");
    let started = Instant::now();
    let report = scenario.run().expect("scenario runs");
    let wall_s = started.elapsed().as_secs_f64();
    tracer.end(span);

    let span = tracer.begin("check.results");
    verdict.attempted += report.programs().len() as u64;
    verdict.failed += w.failed_programs(&report) as u64;
    tracer.end(span);
    tracer.end(root);
    Rep {
        setup_s,
        wall_s,
        class,
        report,
    }
}

/// Guards that need only one report: the mechanism guards, plus
/// `fleet-parallel`'s report against `fleet-compute`'s and
/// `object-storm`'s byte ledger against the replayed frame sizes.
pub fn check_report(w: &Workload, opts: &RunOpts, first: &Rep, verdict: &mut Verdict) {
    for v in w.mechanism_violations(&first.report, opts.programs) {
        verdict.problem(format!("mechanism guard: {v}"));
    }
    match w.kind {
        Kind::FleetParallel => {
            let compute = workloads::by_name("fleet-compute").expect("fleet-compute exists");
            let sequential = rep(
                compute,
                opts,
                compute.scheduler(opts.host_cores),
                &mut Tracer::new(),
                &mut Verdict::default(),
            );
            if sequential.report != first.report {
                verdict.problem("fleet-parallel report differs from fleet-compute's".into());
            }
        }
        Kind::ObjectStorm => {
            let per_program = layers::harvest(w, &first.class).object_bytes_per_program();
            let got: u64 = first
                .report
                .programs()
                .iter()
                .map(|p| p.report.object_bytes)
                .sum();
            let want = per_program * opts.programs as u64;
            if got != want {
                verdict.problem(format!(
                    "object_bytes {got} != programs x replayed reply+flush bytes = {want}"
                ));
            }
        }
        Kind::FleetCompute | Kind::StackChurn => {}
    }
}

/// Every rep of a run must produce the same report: the simulation is
/// deterministic, so anything else is a bug in the program.
pub fn check_same(first: &Rep, other: &Rep, verdict: &mut Verdict) {
    if first.report != other.report {
        verdict.problem("reps of one run produced different ScenarioReports".into());
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The virtual-time end-to-end metrics of one report.
fn sim_metrics(report: &ScenarioReport) -> Vec<(&'static str, f64)> {
    let c = &report.cluster;
    // Per program, not per migration: a whole-stack plan ships two
    // segments of very different latency per capture, and the median of
    // that half-and-half mix flips between the two on a few retries.
    let mut latencies: Vec<u64> = report
        .programs()
        .iter()
        .map(|p| p.report.total_migration_latency_ns())
        .collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    vec![
        ("sim_p50_ms", ms(c.p50_latency_ns)),
        ("sim_p99_ms", ms(c.p99_latency_ns)),
        ("sim_makespan_ms", ms(c.makespan_ns)),
        ("sim_mig_p50_ms", ms(median_u64(&mut latencies))),
        ("sim_wire_kb", c.total_sent().total() as f64 / 1024.0),
        ("sim_node_s", c.node_seconds()),
    ]
}

fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("n", Json::Int(s.n as u64)),
        ("min", Json::Num(s.min)),
        ("p10", Json::Num(s.p10)),
        ("median", Json::Num(s.median)),
        ("p75", Json::Num(s.p75)),
        ("iqr_share", Json::Num(s.iqr_share())),
        ("noisy", Json::Bool(s.noisy())),
    ])
}

fn print_summary(name: &str, unit: &str, s: &Summary) {
    println!(
        "{name:<18} {:>12.6} {unit:<12} ({ESTIMATOR}; min {:.6}, median {:.6}, p75 {:.6}, n {}{})",
        s.p10,
        s.min,
        s.median,
        s.p75,
        s.n,
        if s.noisy() { ", NOISY" } else { "" }
    );
}

pub struct Timed {
    pub first: Rep,
    pub setup: Vec<f64>,
    pub wall: Vec<f64>,
}

/// Warm up, then run timed reps until `opts.seconds` of them have been
/// measured, checking every rep against the first.
pub fn timed_reps(w: &Workload, opts: &RunOpts, verdict: &mut Verdict) -> Timed {
    let scheduler = w.scheduler(opts.host_cores);
    let mut tracer = Tracer::new();
    for _ in 0..WARMUP_REPS {
        rep(w, opts, scheduler, &mut tracer, &mut Verdict::default());
    }
    let first = rep(w, opts, scheduler, &mut tracer, verdict);
    let (mut setup, mut wall) = (vec![first.setup_s], vec![first.wall_s]);
    let mut measured = first.setup_s + first.wall_s;
    while wall.len() < MIN_TIMED_REPS || measured < opts.seconds {
        let next = rep(w, opts, scheduler, &mut tracer, verdict);
        check_same(&first, &next, verdict);
        measured += next.setup_s + next.wall_s;
        setup.push(next.setup_s);
        wall.push(next.wall_s);
    }
    Timed { first, setup, wall }
}

pub struct Outcome {
    pub verdict: Verdict,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Provenance and the full host-time statistics, as one JSON object.
    pub detail: Json,
}

/// The untraced run: every end-to-end metric of `w`.
pub fn run_untraced(w: &Workload, opts: &RunOpts) -> Outcome {
    let mut verdict = Verdict::default();
    let timed = timed_reps(w, opts, &mut verdict);
    check_report(w, opts, &timed.first, &mut verdict);

    let setup = Summary::of(&timed.setup);
    let wall = Summary::of(&timed.wall);
    let mut values = vec![
        ("setup_s", setup.p10),
        ("wall_s", wall.p10),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    values.extend(sim_metrics(&timed.first.report));

    println!(
        "workload {} (seed {}, {} programs per rep, {} warm-up + {} timed reps)",
        w.name, opts.seed, opts.programs, WARMUP_REPS, wall.n
    );
    let mut metrics = Vec::with_capacity(END_TO_END.len());
    for (spec, (name, value)) in END_TO_END.iter().zip(&values) {
        assert_eq!(spec.name, *name, "metric order must follow the manifest");
        match *name {
            "setup_s" => print_summary(name, spec.unit, &setup),
            "wall_s" => print_summary(name, spec.unit, &wall),
            _ => println!("{name:<18} {value:>12.6} {}", spec.unit),
        }
        metrics.push((spec.name, spec.unit, *value));
    }
    assert_eq!(metrics.len(), END_TO_END.len());
    println!(
        "operations         {} attempted, {} failed",
        verdict.attempted, verdict.failed
    );

    let detail = Json::obj([
        ("workload", Json::str(w.name)),
        ("trace", Json::Bool(false)),
        ("provenance", provenance(w, opts, wall.n)),
        ("counts", exact_counts(&timed.first.report)),
        (
            "host_time",
            Json::obj([
                ("setup_s", summary_json(&setup)),
                ("wall_s", summary_json(&wall)),
            ]),
        ),
    ]);
    Outcome {
        verdict,
        metrics,
        detail,
    }
}

fn exact_counts(report: &ScenarioReport) -> Json {
    let c = Counts::of(report);
    Json::obj([
        ("instructions", Json::Int(c.instructions)),
        ("slices", Json::Int(c.slices)),
        ("events", Json::Int(c.events)),
        ("migrations", Json::Int(c.migrations)),
        ("object_faults", Json::Int(c.object_faults)),
        ("dropped_msgs", Json::Int(c.dropped_msgs)),
        ("finished_at_ns", Json::Int(report.finished_at_ns)),
    ])
}

/// The traced run: every per-layer metric of `w`, and the span file.
///
/// Rounds alternate an untraced and a traced rep, so `trace_overhead_share`
/// compares like with like; `fleet-parallel` adds a `Parallel{1}` and a
/// `Sharded` rep per round to price the threaded drain's excess.
pub fn run_traced(w: &Workload, opts: &RunOpts) -> Outcome {
    let mut verdict = Verdict::default();
    let scheduler = w.scheduler(opts.host_cores);
    let mut tracer = Tracer::new();
    for _ in 0..WARMUP_REPS {
        rep(w, opts, scheduler, &mut tracer, &mut Verdict::default());
    }
    // The arms of one round: (scheduler, traced?, wall samples).
    let mut arms = vec![
        (scheduler, false, Vec::new()),
        (scheduler, true, Vec::new()),
    ];
    if w.kind == Kind::FleetParallel {
        arms.push((Scheduler::Parallel { threads: 1 }, false, Vec::new()));
        arms.push((Scheduler::Sharded, false, Vec::new()));
    }
    let mut first: Option<Rep> = None;
    let mut rounds = 0;
    let started = Instant::now();
    while rounds < MIN_TRACED_ROUNDS || started.elapsed().as_secs_f64() < opts.seconds {
        for (scheduler, traced, walls) in &mut arms {
            tracer.enabled = *traced;
            tracer.set_rep(Some(rounds));
            let next = rep(w, opts, *scheduler, &mut tracer, &mut verdict);
            walls.push(next.wall_s);
            match &first {
                Some(first) => check_same(first, &next, &mut verdict),
                None => first = Some(next),
            }
        }
        rounds += 1;
    }
    let first = first.expect("at least one round ran");
    check_report(w, opts, &first, &mut verdict);

    let p10 = |arm: usize| Summary::of(&arms[arm].2).p10;
    let input = ProfileInput {
        w,
        class: &first.class,
        report: &first.report,
        programs: opts.programs,
        seed: opts.seed,
        host_cores: opts.host_cores,
        wall_s: p10(0),
        traced_wall_s: p10(1),
        parallel_walls: (w.kind == Kind::FleetParallel).then(|| (p10(2), p10(3))),
    };
    tracer.enabled = true;
    tracer.set_rep(None);
    let root = tracer.begin("replay");
    let profile = layers::profile(
        &input,
        &mut Replayer {
            tracer: &mut tracer,
            batch_s: REPLAY_BATCH_S,
            batches: REPLAY_BATCHES,
        },
    );
    tracer.end(root);
    for mismatch in &profile.mismatches {
        verdict.problem(mismatch.clone());
    }

    println!(
        "workload {} traced (seed {}, {} programs per rep, {} rounds, {} spans)",
        w.name,
        opts.seed,
        opts.programs,
        rounds,
        tracer.len()
    );
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .zip(profile.values)
        .map(|(spec, value)| (spec.name, spec.unit, value))
        .collect();
    for (name, unit, value) in &metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    for finding in &profile.sanity {
        println!("SANITY: {finding}");
    }
    println!(
        "operations                       {} attempted, {} failed",
        verdict.attempted, verdict.failed
    );

    let detail = Json::obj([
        ("workload", Json::str(w.name)),
        ("trace", Json::Bool(true)),
        ("provenance", provenance(w, opts, rounds)),
        ("counts", exact_counts(&first.report)),
        (
            "sanity",
            Json::Arr(profile.sanity.iter().map(Json::str).collect()),
        ),
    ]);
    let file = Json::obj([
        ("detail", detail.clone()),
        ("per_layer", metrics_json(&metrics)),
        ("spans", tracer.to_json(w.name)),
    ]);
    let path = PathBuf::from(OUT_DIR).join(format!("{}.trace.json", w.name));
    std::fs::create_dir_all(OUT_DIR).expect("create the trace directory");
    std::fs::write(&path, file.pretty(1)).expect("write the trace file");
    println!("trace written to {}", path.display());
    Outcome {
        verdict,
        metrics,
        detail,
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` — the contract's metrics map.
pub fn metrics_json(metrics: &[(&'static str, &'static str, f64)]) -> Json {
    Json::obj(metrics.iter().map(|(name, unit, value)| {
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The checked-out revision, when the benchmark runs from a git work tree
/// (the driver's checkout is not one; git is then not asked, so it does
/// not go looking in parent directories).
fn git_rev() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short", "HEAD"])
    } else {
        "unknown".to_owned()
    }
}

/// Where the numbers came from: host, toolchain, source revision, seed,
/// rep counts, estimator and the regression bounds in force.
pub fn provenance(w: &Workload, opts: &RunOpts, timed_reps: usize) -> Json {
    let threads = match w.scheduler(opts.host_cores) {
        Scheduler::Parallel { threads } => threads,
        _ => 1,
    };
    Json::obj([
        ("host_cores", Json::Int(opts.host_cores as u64)),
        ("threads", Json::Int(threads as u64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("git_rev", Json::str(git_rev())),
        ("seed", Json::Int(opts.seed)),
        ("programs_per_rep", Json::Int(opts.programs as u64)),
        ("warmup_reps", Json::Int(WARMUP_REPS as u64)),
        ("timed_reps", Json::Int(timed_reps as u64)),
        ("seconds", Json::Num(opts.seconds)),
        ("estimator", Json::str(ESTIMATOR)),
        (
            "bounds",
            Json::obj(END_TO_END.iter().map(|m| (m.name, Json::Num(m.bound)))),
        ),
    ])
}
