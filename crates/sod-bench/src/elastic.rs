//! The `elastic` sweep: autoscaling policies priced on the
//! cost-vs-latency frontier.
//!
//! Not a paper table — the paper's testbed is a fixed cluster — but the
//! measurement behind this repo's elastic node pools: the reference
//! burst fleet (Fib requests on two edges, offloading onto a worker
//! pool under CPU contention) runs across pool configurations — fixed
//! fleets of 1 and [`ELASTIC_MAX`] members as the baselines, plus every
//! [`ScalePolicy`] — crossed with cold-start latencies and arrival
//! shapes. Every row reports tail latency (p50/p99), makespan, and the
//! node-time cost ([`sod::ClusterReport::node_ns`]), so the frontier is
//! directly readable: a policy *dominates* a baseline when it is at
//! least as good on both axes and strictly better on one. Because
//! arrivals and scaling are deterministic, the sweep is a pure function of
//! its constants, and the table prints every count and every duration
//! in full (ns), so the committed evaluation pins each of them exactly.

use std::fmt::Write as _;

use sod::net::MS;
use sod::preprocess::preprocess_sod;
use sod::runtime::NodeConfig;
use sod::scenario::{Fleet, Plan, Pool, Scenario, When};
use sod::vm::value::Value;
use sod::workloads::programs::fib_class;
use sod::{ArrivalSchedule, ClusterReport, PoolReport, ScalePolicy};

/// Fleet size of the shipped sweep (bursty enough that a 1-member pool
/// saturates under contention).
pub const ELASTIC_FLEET: usize = 40;
/// Arrival seed (rows are deterministic per seed).
pub const ELASTIC_SEED: u64 = 42;
/// Resting size of every autoscaled pool.
pub const ELASTIC_BASE: usize = 1;
/// Ceiling of every autoscaled pool, and the size of the large fixed
/// baseline.
pub const ELASTIC_MAX: usize = 8;
/// Fib argument of each request. Deep enough (~22 k calls, ≈ 1.7 ms of
/// virtual CPU) that worker capacity — not the fixed migration-protocol
/// cost — sets the tail under a burst.
pub const ELASTIC_FIB: i64 = 20;
/// `fib(ELASTIC_FIB)` — what a correctly served request returns.
pub const ELASTIC_RESULT: i64 = 6765;

/// One pool configuration under test: a fixed fleet (`base == max`, the
/// policy never fires) or an autoscaled pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolConfig {
    Fixed(usize),
    Auto(ScalePolicy),
}

/// The swept configurations: both fixed baselines, then every policy.
pub const CONFIGS: [PoolConfig; 5] = [
    PoolConfig::Fixed(1),
    PoolConfig::Fixed(ELASTIC_MAX),
    PoolConfig::Auto(ScalePolicy::QueueDepth { high: 2, low: 1 }),
    PoolConfig::Auto(ScalePolicy::P99Breach { budget_ns: 15 * MS }),
    PoolConfig::Auto(ScalePolicy::StepLoad { per_node: 2 }),
];

/// The swept cold-start latencies (ns).
pub const COLD_STARTS_NS: [u64; 2] = [0, 2 * MS];

/// The swept arrival shapes (label, see [`arrival_schedule`]).
pub const ARRIVALS: [&str; 2] = ["bursty", "steady"];

/// Resolve an arrival label to its schedule.
pub fn arrival_schedule(label: &str) -> ArrivalSchedule {
    match label {
        "bursty" => ArrivalSchedule::bursty(20, 15 * MS).with_jitter(MS),
        _ => ArrivalSchedule::uniform(MS / 2).with_jitter(MS / 4),
    }
}

/// One finished sweep row: a (config, cold start, arrival) cell and what
/// its run reported.
#[derive(Clone, Debug)]
pub struct ElasticRow {
    pub config: PoolConfig,
    pub cold_start_ns: u64,
    pub arrival: &'static str,
    pub cluster: ClusterReport,
    /// Programs that finished with the correct Fib result.
    pub correct: usize,
}

impl ElasticRow {
    /// The worker pool's scaling counters.
    pub fn pool(&self) -> &PoolReport {
        &self.cluster.pools[0]
    }
}

/// Run the reference burst fleet ([`ELASTIC_FLEET`] programs) under one
/// (config, cold start, arrival) cell. CPU contention is on — co-located
/// sessions queue, so added capacity buys latency and a starved pool costs
/// tail.
fn run_elastic_fleet(config: PoolConfig, cold_start_ns: u64, arrival: &'static str) -> ElasticRow {
    let class = preprocess_sod(&fib_class()).expect("preprocess fib");
    let pool = match config {
        PoolConfig::Fixed(n) => Pool::new("workers").base(n).max(n),
        PoolConfig::Auto(policy) => Pool::new("workers")
            .base(ELASTIC_BASE)
            .max(ELASTIC_MAX)
            .scale_policy(policy),
    };
    let report = Scenario::new()
        // 10 µs slices: each Fib request spans many slices, so the
        // 3-slice CPU budget below trips on every request.
        .slice_ns(10_000)
        .cpu_contention(true)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&class)
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(&class)
        .pool(pool.cold_start(cold_start_ns))
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(ELASTIC_FIB)])
                .programs(ELASTIC_FLEET)
                .across(&["edge0", "edge1"])
                .arrivals(arrival_schedule(arrival), ELASTIC_SEED)
                // Whole-stack offload: the bulk of each request's compute
                // lands on the pool, so pool capacity — not the edges —
                // sets the tail.
                .migrate(When::OnCpuSliceBudget(3), Plan::whole_stack_to("workers")),
        )
        .run()
        .expect("elastic fleet runs");
    let correct = report
        .programs()
        .iter()
        .filter(|p| p.report.result == Some(ELASTIC_RESULT))
        .count();
    ElasticRow {
        config,
        cold_start_ns,
        arrival,
        cluster: report.cluster.clone(),
        correct,
    }
}

/// The shipped sweep (config × cold start × arrival shape), one row per
/// cell in the order TABLE ELASTIC prints them (simulates every cell).
fn elastic_rows() -> Vec<ElasticRow> {
    let mut rows = Vec::new();
    for &arrival in &ARRIVALS {
        for &cold in &COLD_STARTS_NS {
            for &config in &CONFIGS {
                rows.push(run_elastic_fleet(config, cold, arrival));
            }
        }
    }
    rows
}

/// A configuration's name as TABLE ELASTIC prints it.
fn config_name(c: PoolConfig) -> String {
    match c {
        PoolConfig::Fixed(n) => format!("fixed-{n}"),
        PoolConfig::Auto(ScalePolicy::QueueDepth { high, low }) => {
            format!("queue-depth({high},{low})")
        }
        PoolConfig::Auto(ScalePolicy::P99Breach { budget_ns }) => {
            format!("p99-breach({}ms)", budget_ns / MS)
        }
        PoolConfig::Auto(ScalePolicy::StepLoad { per_node }) => format!("step-load({per_node})"),
    }
}

/// TABLE ELASTIC: `rows` ([`elastic_rows`]) rendered.
fn render_elastic(rows: &[ElasticRow]) -> String {
    let mut out = format!(
        "TABLE ELASTIC. AUTOSCALING SWEEP (pool config x cold start x arrivals; \
         {ELASTIC_FLEET} programs, arrival seed {ELASTIC_SEED}; times in ns)\n\
         config            arrivals cold     done fail correct peak spawns drains final \
         p50       p99       makespan  node\n",
    );
    for r in rows {
        let pool = r.pool();
        let _ = writeln!(
            out,
            "{:<17} {:<8} {:<8} {:<4} {:<4} {:<7} {:<4} {:<6} {:<6} {:<5} {:<9} {:<9} {:<9} {}",
            config_name(r.config),
            r.arrival,
            r.cold_start_ns,
            r.cluster.completed,
            r.cluster.failed,
            r.correct,
            pool.peak,
            pool.spawns,
            pool.drains,
            pool.final_size,
            r.cluster.p50_latency_ns,
            r.cluster.p99_latency_ns,
            r.cluster.makespan_ns,
            r.cluster.node_ns,
        );
    }
    out
}

/// The shipped sweep as a table (simulates it).
pub fn elastic_table() -> String {
    render_elastic(&elastic_rows())
}
