//! The `scale` table: fleet-size sweep with latency percentiles.
//!
//! Not a paper table — the paper evaluates one program at a time — but the
//! ROADMAP's cloud-elasticity direction: sweep the number of concurrent
//! programs, serve them open-loop across two edge nodes with an
//! `OnCpuSliceBudget` offload policy to a shared cloud node, and report
//! nearest-rank latency percentiles, throughput, and per-node utilization
//! from the [`sod::ClusterReport`], with the host wall-clock each row took
//! to simulate. [`render_json`] renders the same sweep as a
//! `BENCH_scale.json`-compatible summary for machine consumption;
//! `bin/scale` runs the big-fleet sweep ([`SCALE_FLEET_SWEEP`]:
//! 1k/5k/10k programs).

use std::fmt::Write as _;
use std::time::Instant;

use sod::net::{ns_to_ms_string, MS};
use sod::preprocess::preprocess_sod;
use sod::runtime::NodeConfig;
use sod::scenario::{Fleet, Plan, Scenario, When};
use sod::vm::value::Value;
use sod::workloads::programs::fib_class;
use sod::{ArrivalSchedule, ClusterReport};

/// Fleet sizes the shipped table sweeps (kept cheap: `bin/tables` runs it).
pub const SCALE_SWEEP: [usize; 3] = [10, 100, 500];
/// Fleet sizes for the big `bin/scale` sweep.
pub const SCALE_FLEET_SWEEP: [usize; 3] = [1000, 5000, 10_000];
/// Seed for the sweep's arrival jitter (any fixed value works; runs are
/// deterministic per seed).
pub const SCALE_SEED: u64 = 42;

/// One sweep entry: one simulated fleet size.
pub struct ScaleRow {
    pub programs: usize,
    pub report: ClusterReport,
    /// Host wall-clock the simulation took, in milliseconds (the only
    /// column that is *not* deterministic — it measures the simulator,
    /// not the simulation).
    pub wall_ms: u64,
}

impl ScaleRow {
    /// Host nanoseconds the simulator spent per *simulated* instruction —
    /// the interpreter-throughput figure of merit the fast-path work
    /// targets (`bin/vm` measures it in isolation; this is the same ratio
    /// under full event-queue + network load). Wall-clock derived, so not
    /// deterministic; compare runs on the same host only.
    pub fn ns_per_instr(&self) -> f64 {
        let total_instr: u64 = self.report.per_node.iter().map(|u| u.instructions).sum();
        self.wall_ms as f64 * 1e6 / total_instr.max(1) as f64
    }
}

/// Run one fleet of `programs` Fib(16) requests and aggregate it.
pub fn run_scale_fleet(programs: usize, seed: u64) -> ClusterReport {
    let class = preprocess_sod(&fib_class()).expect("preprocess fib");
    let report = Scenario::new()
        // 10 µs slices so the 3-slice CPU budget trips mid-computation.
        .slice_ns(10_000)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&class)
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(&class)
        .node("cloud", NodeConfig::cloud("cloud"))
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(16)])
                .programs(programs)
                .across(&["edge0", "edge1"])
                .arrivals(ArrivalSchedule::uniform(2 * MS).with_jitter(MS), seed)
                .migrate(When::OnCpuSliceBudget(3), Plan::top_to("cloud", 1)),
        )
        .run()
        .expect("scale fleet runs");
    report.cluster
}

/// Run the sweep once: one [`ScaleRow`] per fleet size, wall-clock
/// measured per row. The table and JSON renderers below both consume
/// this, so a caller wanting both pays for the simulation once.
pub fn sweep(sizes: &[usize]) -> Vec<ScaleRow> {
    sizes
        .iter()
        .map(|&programs| {
            let started = Instant::now();
            let report = run_scale_fleet(programs, SCALE_SEED);
            ScaleRow {
                programs,
                report,
                wall_ms: started.elapsed().as_millis() as u64,
            }
        })
        .collect()
}

/// Render a finished sweep as the human-readable table.
pub fn render_table(rows: &[ScaleRow]) -> String {
    let mut out = String::from(
        "TABLE SCALE. FLEET SWEEP (open-loop, OnCpuSliceBudget offload; \
         nearest-rank percentiles; wall = host ms)\n\
         programs ok    fail p50(ms)  p95(ms)  p99(ms)  mean(ms) makespan(ms) req/s    cloud-instr% wall(ms) ns/instr\n",
    );
    for row in rows {
        let r = &row.report;
        let total_instr: u64 = r.per_node.iter().map(|u| u.instructions).sum();
        let cloud_instr = r
            .per_node
            .iter()
            .find(|u| u.name == "cloud")
            .map(|u| u.instructions)
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "{:<8} {:<5} {:<4} {:<8} {:<8} {:<8} {:<8} {:<12} {:<8.1} {:<12.1} {:<8} {:.2}",
            row.programs,
            r.completed,
            r.failed,
            ns_to_ms_string(r.p50_latency_ns),
            ns_to_ms_string(r.p95_latency_ns),
            ns_to_ms_string(r.p99_latency_ns),
            ns_to_ms_string(r.mean_latency_ns),
            ns_to_ms_string(r.makespan_ns),
            r.throughput_millirps as f64 / 1000.0,
            cloud_instr as f64 * 100.0 / total_instr.max(1) as f64,
            row.wall_ms,
            row.ns_per_instr(),
        );
    }
    out
}

/// The human-readable sweep over arbitrary fleet sizes.
pub fn scale_table_for(sizes: &[usize]) -> String {
    render_table(&sweep(sizes))
}

/// The shipped sweep (10/100/500 programs).
pub fn scale_table() -> String {
    scale_table_for(&SCALE_SWEEP)
}

/// Minimal JSON string escaping for node names (quotes, backslashes,
/// control characters).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a finished sweep as a `BENCH_scale.json`-compatible summary:
/// one row object per fleet size, all virtual durations in ns, plus the
/// host `wall_ms` the row took to simulate.
pub fn render_json(sweep_rows: &[ScaleRow]) -> String {
    let mut rows = Vec::with_capacity(sweep_rows.len());
    for row in sweep_rows {
        let r = &row.report;
        let per_node: Vec<String> = r
            .per_node
            .iter()
            .map(|u| {
                format!(
                    "{{\"name\":\"{}\",\"instructions\":{},\"slices\":{},\"busy_ns\":{},\
                     \"events\":{}}}",
                    json_escape(&u.name),
                    u.instructions,
                    u.slices,
                    u.busy_ns,
                    u.events
                )
            })
            .collect();
        rows.push(format!(
            "{{\"programs\":{},\"wall_ms\":{},\
             \"ns_per_instr\":{:.3},\"completed\":{},\
             \"failed\":{},\"p50_ns\":{},\"p95_ns\":{},\
             \"p99_ns\":{},\"mean_ns\":{},\"max_ns\":{},\"makespan_ns\":{},\
             \"throughput_millirps\":{},\"per_node\":[{}]}}",
            row.programs,
            row.wall_ms,
            row.ns_per_instr(),
            r.completed,
            r.failed,
            r.p50_latency_ns,
            r.p95_latency_ns,
            r.p99_latency_ns,
            r.mean_latency_ns,
            r.max_latency_ns,
            r.makespan_ns,
            r.throughput_millirps,
            per_node.join(",")
        ));
    }
    format!(
        "{{\"bench\":\"scale\",\"seed\":{},\"rows\":[{}]}}\n",
        SCALE_SEED,
        rows.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_has_shape_and_valid_json() {
        let rows = sweep(&[5, 10]);
        let t = render_table(&rows);
        assert!(t.contains("TABLE SCALE"));
        assert_eq!(
            t.lines().count(),
            2 + 2,
            "header(2) + one line per size: {t}"
        );

        let j = render_json(&rows);
        assert!(j.starts_with("{\"bench\":\"scale\""));
        assert!(j.contains("{\"programs\":5,\"wall_ms\":"));
        assert!(j.contains("{\"programs\":10,\"wall_ms\":"));
        assert!(j.contains("\"p99_ns\":"));
        assert!(!j.contains("\"scheduler\""));
        assert!(j.contains("\"ns_per_instr\":"));
        assert!(t.contains("ns/instr"));
        assert!(j.contains("\"per_node\":[{\"name\":\"edge0\""));
        assert!(j.contains("\"events\":"));
        // Balanced braces/brackets — cheap JSON well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn scale_fleet_completes_and_offloads() {
        let r = run_scale_fleet(10, SCALE_SEED);
        assert_eq!(r.completed, 10);
        assert_eq!(r.failed, 0);
        assert!(r.p50_latency_ns > 0 && r.p50_latency_ns <= r.p99_latency_ns);
        let cloud = r.per_node.iter().find(|u| u.name == "cloud").unwrap();
        assert!(cloud.instructions > 0, "offload must reach the cloud");
    }
}
