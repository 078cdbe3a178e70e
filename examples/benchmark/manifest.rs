//! The benchmark's contract in one place: metric names, units, regression
//! bounds and the run length. `BENCHMARK.json` at the repo root is this
//! table rendered by `--print-manifest`; `--check` fails if the two drift.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Seconds of timed reps per run (`--seconds` default).
pub const RUN_SECONDS: u64 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// End-to-end metrics, all lower-is-better, reported per workload.
///
/// Host-time metrics (`setup_s`, `wall_s`) carry the noise of the shared
/// host, and on the reference box that noise is large and invisible to the
/// guest (CPU time tracks wall time; no steal is accounted): single reps
/// vary 1.0-1.6x, and the per-run p10 moved 2-14 % between runs depending
/// on the quarter hour it was measured in. Their bound is therefore the
/// widest the contract allows; a gain is claimed from paired runs (see
/// README.md), not from this gate. The `sim_*` metrics are virtual-time
/// results: for one seed they repeat exactly, so between two commits run
/// on the same seeds any difference is a model change; their bounds only
/// have to clear the spread *between seeds* (under 1 %), which is what the
/// driver's steadiness check sees.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.10,
    },
    EndToEnd {
        name: "sim_p50_ms",
        unit: "ms_virt",
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_p99_ms",
        unit: "ms_virt",
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_makespan_ms",
        unit: "ms_virt",
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_mig_p50_ms",
        unit: "ms_virt",
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_wire_kb",
        unit: "KiB",
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_node_s",
        unit: "node-s_virt",
        bound: 0.05,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
}

/// Per-layer metrics (layer = crate.module), measured from outside the
/// program; see `layers.rs` for how each is obtained and README.md for
/// which end-to-end metric each should move, on which workload. All are
/// costs or work counts, so lower is better; none has a bound.
pub const PER_LAYER: [PerLayer; 54] = [
    PerLayer::new("vm.interp.instructions", "count"),
    PerLayer::new("vm.interp.slices", "count"),
    PerLayer::new("vm.interp.ns_per_instr", "ns"),
    PerLayer::new("vm.interp.est_s", "s"),
    PerLayer::new("vm.interp.share", "share"),
    PerLayer::new("vm.class.load_ns", "ns"),
    PerLayer::new("preprocess.class_ns", "ns"),
    PerLayer::new("asm.author_ns", "ns"),
    PerLayer::new("workloads.arrivals_ns", "ns"),
    PerLayer::new("scenario.build_ns", "ns"),
    PerLayer::new("vm.capture.capture_ns", "ns"),
    PerLayer::new("vm.capture.restore_ns", "ns"),
    PerLayer::new("vm.capture.frames", "count"),
    PerLayer::new("vm.capture.est_s", "s"),
    PerLayer::new("vm.wire.state_encode_ns", "ns"),
    PerLayer::new("vm.wire.state_decode_ns", "ns"),
    PerLayer::new("vm.wire.state_bytes", "B"),
    PerLayer::new("vm.wire.class_encode_ns", "ns"),
    PerLayer::new("vm.wire.class_decode_ns", "ns"),
    PerLayer::new("vm.wire.state_est_s", "s"),
    PerLayer::new("vm.wire.object_encode_ns", "ns"),
    PerLayer::new("vm.wire.object_decode_ns", "ns"),
    PerLayer::new("vm.wire.batch_ns", "ns"),
    PerLayer::new("vm.wire.object_est_s", "s"),
    PerLayer::new("vm.heap.find_cached_ns", "ns"),
    PerLayer::new("vm.heap.install_ns", "ns"),
    PerLayer::new("vm.heap.extract_ns", "ns"),
    PerLayer::new("vm.heap.est_s", "s"),
    PerLayer::new("net.sim.events", "count"),
    PerLayer::new("net.sim.max_node_share", "share"),
    PerLayer::new("net.chaos.dropped", "count"),
    PerLayer::new("net.sim.ns_per_event", "ns"),
    PerLayer::new("net.sim.est_s", "s"),
    PerLayer::new("net.parallel.excess_s", "s"),
    PerLayer::new("net.parallel.p1_excess_s", "s"),
    PerLayer::new("engine.migrate.count", "count"),
    PerLayer::new("engine.migrate.state_bytes", "B"),
    PerLayer::new("engine.migrate.class_bytes", "B"),
    PerLayer::new("engine.migrate.classes_shipped", "count"),
    PerLayer::new("engine.migrate.capture_virt_us", "us_virt"),
    PerLayer::new("engine.migrate.transfer_virt_us", "us_virt"),
    PerLayer::new("engine.restore.restore_virt_us", "us_virt"),
    PerLayer::new("engine.objects.faults", "count"),
    PerLayer::new("engine.objects.bytes", "B"),
    PerLayer::new("engine.fault.timeouts", "count"),
    PerLayer::new("engine.fault.retries", "count"),
    PerLayer::new("engine.fault.fallbacks", "count"),
    PerLayer::new("engine.elastic.spawns", "count"),
    PerLayer::new("engine.elastic.drains", "count"),
    PerLayer::new("engine.elastic.peak", "count"),
    PerLayer::new("engine.residual_s", "s"),
    PerLayer::new("engine.residual_share", "share"),
    PerLayer::new("engine.residual_us_per_event", "us"),
    PerLayer::new("trace_overhead_share", "share"),
];

impl PerLayer {
    const fn new(name: &'static str, unit: &'static str) -> PerLayer {
        PerLayer { name, unit }
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "examples/benchmark/Cargo.toml",
        "--",
    ];
    let json = Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("examples/benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str("lower")),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str("lower")),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    json.pretty(2)
}
