//! Differential equivalence of the interpreter fast path: every scenario
//! run with the pre-resolved operand form — inline caches warm, fused
//! window rows (runs of 2–4 cost-1 window instructions retired in one
//! dispatch) taken, interned string literals — must
//! produce a **bit-identical** `ScenarioReport` to the same scenario run
//! with `slow_resolve(true)`, which re-resolves every name from the
//! constant pool on each execution and never consults a cache. Virtual
//! time, instruction counts, heap statistics (each node's modelled
//! allocations and the entries its host holds), migration timings, OOM
//! timing, chaos draws, and pool scaling decisions are all part of the
//! `==`; the fast path is a host-time optimisation only and any charged
//! or heap-shape difference fails loudly here.
//!
//! The suite covers the shapes where divergence would hide:
//! * migrations (single hop, chains, whole stack) — caches rebuilt cold
//!   on the destination must not change any report field;
//! * `When::OnOom` offload — OOM *timing* depends on exact heap shape,
//!   so a fast path that allocated or interned differently trips it;
//! * chaos profiles — the fault RNG draws in delivery order, which any
//!   virtual-time skew would permute;
//! * elastic pools — scaling decisions sample latency percentiles, so a
//!   single shifted nanosecond shows up in scaling counters;
//! * random fleets (proptest) — up to 300 programs over up to 16 nodes.
//!
//! The final test pins the migration contract at the VM layer: a warmed
//! inline cache is deliberately *not* part of the wire image, so a
//! captured segment restores cold and rewarms by executing.

use proptest::prelude::*;
use sod::asm::builder::ClassBuilder;
use sod::net::{LinkSpec, MS, US};
use sod::preprocess::preprocess_sod;
use sod::runtime::NodeConfig;
use sod::scenario::{Chaos, Fleet, Plan, Pool, Scenario, ScenarioReport, When};
use sod::vm::class::ClassDef;
use sod::vm::value::Value;
use sod::workloads::programs::fib_class;
use sod::{ArrivalSchedule, CodeShipping, ScalePolicy};

fn fib() -> ClassDef {
    preprocess_sod(&fib_class()).expect("preprocess fib")
}

/// Build the scenario twice — once on the default fast path, once with
/// every node forced onto the per-execution resolve path — and require
/// the full reports to compare `==`.
fn assert_fast_slow_equivalent(label: &str, build: impl Fn() -> Scenario) -> ScenarioReport {
    let fast = build()
        .run()
        .unwrap_or_else(|e| panic!("{label}: fast-path run failed: {e}"));
    let slow = build()
        .slow_resolve(true)
        .run()
        .unwrap_or_else(|e| panic!("{label}: slow-resolve run failed: {e}"));
    assert_eq!(
        fast, slow,
        "{label}: ScenarioReports diverge between fast path and slow resolve"
    );
    fast
}

#[test]
fn single_migration_is_resolve_equivalent() {
    let report = assert_fast_slow_equivalent("single migration", || {
        Scenario::new()
            .slice_ns(10_000)
            .node("home", NodeConfig::cluster("home"))
            .deploys(&fib())
            .node("worker", NodeConfig::cluster("worker"))
            .program("Fib", "main", vec![Value::Int(16)])
            .on("home")
            .migrate(When::At(50 * US), Plan::top_to("worker", 2))
    });
    assert_eq!(report.first().result, Some(987));
    assert_eq!(report.first().migrations.len(), 1);
}

#[test]
fn chained_segments_are_resolve_equivalent() {
    let report = assert_fast_slow_equivalent("chain", || {
        Scenario::new()
            .slice_ns(10_000)
            .node("home", NodeConfig::cluster("home"))
            .deploys(&fib())
            .node("w0", NodeConfig::cluster("w0"))
            .node("w1", NodeConfig::cluster("w1"))
            .program("Fib", "main", vec![Value::Int(16)])
            .on("home")
            .migrate(When::At(50 * US), Plan::chain(&[("w0", 1), ("w1", 2)]))
    });
    assert_eq!(report.first().result, Some(987));
    assert!(!report.first().migrations.is_empty());
}

#[test]
fn whole_stack_migration_is_resolve_equivalent() {
    let report = assert_fast_slow_equivalent("whole stack", || {
        Scenario::new()
            .slice_ns(10_000)
            .node("home", NodeConfig::cluster("home"))
            .deploys(&fib())
            .node("worker", NodeConfig::cluster("worker"))
            .program("Fib", "main", vec![Value::Int(14)])
            .on("home")
            .migrate(When::At(50 * US), Plan::whole_stack_to("worker"))
    });
    assert_eq!(report.first().result, Some(377));
}

/// OOM timing is the sharpest heap-shape probe: the rescue migration
/// fires at the exact allocation that overflows the device budget, so a
/// fast path that allocated even one extra object (say, an eagerly
/// interned string or a cached class mirror) would move the OOM point
/// and change every downstream timestamp.
#[test]
fn on_oom_offload_is_resolve_equivalent() {
    let report = assert_fast_slow_equivalent("OnOom offload", || {
        let class = ClassBuilder::new("Big")
            .method("alloc", &["n"], |m| {
                m.line();
                m.load("n").newarr().store("a");
                m.line();
                m.load("a").arrlen().retv();
            })
            .method("main", &["n"], |m| {
                m.line();
                m.load("n").invoke("Big", "alloc", 1).store("r");
                m.line();
                m.load("r").retv();
            })
            .build()
            .expect("valid class");
        let class = preprocess_sod(&class).expect("preprocess");
        let mut phone = NodeConfig::device("phone");
        phone.mem_limit = Some(4 << 20);
        Scenario::new()
            .node("phone", phone)
            .deploys(&class)
            .node("cloud", NodeConfig::cloud("cloud"))
            .link("phone", "cloud", LinkSpec::wifi_kbps(764))
            .program("Big", "main", vec![Value::Int(2_000_000)])
            .on("phone")
            .migrate(When::OnOom, Plan::whole_stack_to("cloud"))
    });
    assert_eq!(report.first().result, Some(2_000_000));
    assert_eq!(report.first().migrations.len(), 1, "the rescue hop");
}

/// Object-heavy inner loop: `New`, `GetField`, `PutField`,
/// `InvokeVirtual`, and `PushStr` all sit on cacheable sites here, so
/// this exercises every inline-cache kind plus the `Load`-led fused
/// pairs, across a migration that forces a cold rebuild.
#[test]
fn field_and_virtual_call_loop_is_resolve_equivalent() {
    let report = assert_fast_slow_equivalent("counter loop", || {
        let class = counter_class();
        Scenario::new()
            .slice_ns(10_000)
            .node("home", NodeConfig::cluster("home"))
            .deploys(&class)
            .node("worker", NodeConfig::cluster("worker"))
            .deploys(&class)
            .program("Counter", "main", vec![Value::Int(200)])
            .on("worker")
            .program("Counter", "main", vec![Value::Int(300)])
            .on("home")
    });
    let results: Vec<Option<i64>> = report.programs().iter().map(|p| p.report.result).collect();
    assert_eq!(results, vec![Some(200), Some(300)]);
}

/// A fleet under chaos: the fault RNG draws in delivery order, so the
/// loss pattern itself is part of the equivalence claim.
#[test]
fn chaos_profile_fleet_is_resolve_equivalent() {
    let chaos = Chaos::new()
        .seed(11)
        .loss(30)
        .partition_at(2 * MS, "edge0", "cloud")
        .heal_at(6 * MS, "edge0", "cloud");
    assert_fast_slow_equivalent("chaos fleet", || {
        fleet_scenario(ArrivalSchedule::bursty(10, 5 * MS).with_jitter(MS), 42).chaos(chaos.clone())
    });
}

/// Elastic pools sample latency percentiles on controller ticks; any
/// virtual-time skew between the paths would change scaling decisions,
/// node-seconds, and the drain schedule.
#[test]
fn elastic_pool_is_resolve_equivalent() {
    let report = assert_fast_slow_equivalent("elastic pool", || {
        Scenario::new()
            .slice_ns(10_000)
            .cpu_contention(true)
            .node("edge0", NodeConfig::cluster("edge0"))
            .deploys(&fib())
            .node("edge1", NodeConfig::cluster("edge1"))
            .deploys(&fib())
            .pool(
                Pool::new("workers")
                    .base(1)
                    .max(6)
                    .scale_policy(ScalePolicy::QueueDepth { high: 2, low: 1 })
                    .cold_start(2 * MS),
            )
            .fleet(
                Fleet::new("Fib", "main", vec![Value::Int(14)])
                    .programs(40)
                    .across(&["edge0", "edge1"])
                    .arrivals(ArrivalSchedule::bursty(10, 5 * MS).with_jitter(MS), 42)
                    .migrate(When::OnCpuSliceBudget(3), Plan::top_to("workers", 1)),
            )
    });
    assert_eq!(report.cluster.completed, 40, "fleet must finish");
}

/// The fleet shape shared by the chaos test and the property tests.
fn fleet_scenario(schedule: ArrivalSchedule, seed: u64) -> Scenario {
    Scenario::new()
        .slice_ns(10_000)
        .code_shipping(CodeShipping::default())
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&fib())
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(&fib())
        .node("cloud", NodeConfig::cloud("cloud"))
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(14)])
                .programs(40)
                .across(&["edge0", "edge1"])
                .arrivals(schedule, seed)
                .migrate(When::OnCpuSliceBudget(3), Plan::top_to("cloud", 1)),
        )
}

/// A counter with an instance field bumped through a virtual call and a
/// string literal pushed per iteration — one site of every cache kind.
fn counter_class() -> ClassDef {
    let class = ClassBuilder::new("Counter")
        .field("n", sod::vm::class::TypeTag::Int)
        .vmethod("bump", &[], |m| {
            m.line();
            m.load("this").getfield("n").pushi(1).add().store("t");
            m.line();
            m.load("this").load("t").putfield("n");
            m.line();
            m.pushi(0).retv();
        })
        .method("main", &["iters"], |m| {
            m.line();
            m.new_obj("Counter").store("c");
            m.line();
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i")
                .load("iters")
                .if_cmp(sod::vm::instr::Cmp::Ge, "done");
            m.line();
            m.load("c").invokev("bump", 1).pop();
            m.line();
            m.pushstr("tick").pop();
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("c").getfield("n").retv();
        })
        .build()
        .expect("valid counter class");
    preprocess_sod(&class).expect("preprocess counter")
}

// ---------------------------------------------------------------------------
// Property tests: random fleets, fast path vs slow resolve.
// ---------------------------------------------------------------------------

/// A randomized fleet over `nodes` cluster nodes, mirroring the
/// scheduler-equivalence generator: random arrival schedule, random link
/// override, random migration trigger (or none).
fn random_fleet(
    slow: bool,
    nodes: usize,
    programs: usize,
    trigger: u8,
    schedule: u8,
    latency_us: u64,
    seed: u64,
) -> ScenarioReport {
    let class = fib();
    let names: Vec<String> = (0..nodes).map(|i| format!("n{i}")).collect();
    let mut scenario = Scenario::new().slice_ns(10_000).slow_resolve(slow);
    for name in &names {
        scenario = scenario
            .node(name.clone(), NodeConfig::cluster(name.clone()))
            .deploys(&class);
    }
    scenario = scenario.link(
        names[0].clone(),
        names[nodes - 1].clone(),
        LinkSpec::new(latency_us * US, 100_000_000),
    );
    let schedule = match schedule % 3 {
        0 => ArrivalSchedule::uniform(MS).with_jitter(MS / 2),
        1 => ArrivalSchedule::bursty(8, 4 * MS),
        _ => ArrivalSchedule::ramp(2 * MS, 200 * US),
    };
    let across: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut fleet = Fleet::new("Fib", "main", vec![Value::Int(12)])
        .programs(programs)
        .across(&across)
        .arrivals(schedule, seed);
    let target = names[nodes - 1].clone();
    match trigger % 4 {
        0 => {} // no migration
        1 => fleet = fleet.migrate(When::At(MS + seed % MS), Plan::top_to(target, 1)),
        2 => {
            fleet = fleet.migrate(
                When::OnCpuSliceBudget(1 + seed % 3),
                Plan::top_to(target, 1),
            )
        }
        _ => fleet = fleet.migrate(When::OnObjectFaults(1), Plan::top_to(target, 1)),
    }
    scenario.fleet(fleet).run().expect("random fleet runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_fleets_are_resolve_equivalent(
        nodes in 2usize..17,
        programs in 1usize..301,
        trigger in 0u8..4,
        schedule in 0u8..3,
        latency_us in 10u64..2_000,
        seed in 0u64..1_000_000,
    ) {
        let fast = random_fleet(false, nodes, programs, trigger, schedule, latency_us, seed);
        let slow = random_fleet(true, nodes, programs, trigger, schedule, latency_us, seed);
        prop_assert_eq!(&fast, &slow, "fast path diverged from slow resolve");
        prop_assert_eq!(fast.cluster.completed as usize, programs, "fleet must finish");
    }
}

// ---------------------------------------------------------------------------
// VM-level pin: warmed caches are never serialized; segments restore cold.
// ---------------------------------------------------------------------------

/// Warm the inline caches by running fib on a source VM, capture the
/// whole stack at a migration-safe point, push it through the *wire*
/// encoding (the bytes a real migration ships), and restore it into a
/// fresh VM. The destination's caches must be stone cold right after
/// restore — cache state is deliberately not part of the wire image —
/// and the thread must still run to the correct result, rewarming as it
/// goes.
#[test]
fn warmed_ic_survives_migration_cold() {
    use sod::vm::capture::{capture_segment, restore_segment_direct};
    use sod::vm::interp::{RunMode, StepOutcome, Vm};
    use sod::vm::tooling::ToolingPath;
    use sod::vm::wire::{decode_state, encode_state};

    fn warm_sites(vm: &Vm) -> usize {
        vm.classes.iter().map(|c| c.ic_warm_count()).sum()
    }

    let class = fib();
    let mut src = Vm::new();
    src.load_class(&class).expect("load on source");
    let tid = src.spawn("Fib", "main", &[Value::Int(16)]).expect("spawn");

    // Run deep enough to recurse (warming the invoke cache), then walk to
    // the next migration-safe point.
    let (out, _) = src.run(tid, 5_000, RunMode::Normal).expect("warm-up run");
    assert_eq!(out, StepOutcome::Continue, "must still be mid-flight");
    assert!(warm_sites(&src) > 0, "source caches must be warm");
    let (out, _) = src
        .run(tid, u64::MAX, RunMode::StopAtMsp)
        .expect("walk to MSP");
    assert!(matches!(out, StepOutcome::AtMsp { .. }), "got {out:?}");

    let height = src.thread(tid).expect("thread").frames.len();
    let (state, _) =
        capture_segment(&mut src, tid, height, ToolingPath::Internal).expect("capture");
    let shipped = decode_state(encode_state(&state).expect("wire encode")).expect("wire roundtrip");

    let mut dst = Vm::new();
    dst.load_class(&class).expect("load on destination");
    let new_tid = restore_segment_direct(&mut dst, &shipped).expect("restore");
    assert_eq!(
        warm_sites(&dst),
        0,
        "restored segment must start with cold caches: the wire image \
         carries no pre-resolved state"
    );

    let result;
    loop {
        let (out, _) = dst.run(new_tid, u64::MAX, RunMode::Normal).expect("resume");
        match out {
            StepOutcome::Returned(v) => {
                result = v;
                break;
            }
            StepOutcome::Continue => {}
            other => panic!("unexpected outcome resuming migrated fib: {other:?}"),
        }
    }
    assert_eq!(result, Some(Value::Int(987)), "migrated fib(16)");
    assert!(warm_sites(&dst) > 0, "destination must rewarm by executing");
}
