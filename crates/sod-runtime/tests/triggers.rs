//! Unit tests for migration policies: each `When` variant firing — and
//! deliberately *not* firing — deterministically, exercised at the engine
//! level (`Cluster` + `SodSim::migrate`).

use sod_asm::builder::ClassBuilder;
use sod_net::Topology;
use sod_preprocess::preprocess_sod;
use sod_runtime::engine::{Cluster, SodSim};
use sod_runtime::node::{Node, NodeConfig};
use sod_runtime::trigger::When;
use sod_runtime::{MigrationPlan, ProgramId, RunReport};
use sod_vm::class::ClassDef;
use sod_vm::instr::Cmp;
use sod_vm::value::{TypeOf, Value};

/// work(n) sums 0..n while touching a heap box (so a migrated segment
/// faults on objects); main adds 5.
fn app_class() -> ClassDef {
    let c = ClassBuilder::new("App")
        .field("count", TypeOf::Int)
        .method("work", &["n", "box"], |m| {
            m.line();
            m.pushi(0).store("acc");
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("n").if_cmp(Cmp::Ge, "done");
            m.line();
            m.load("box").load("i").putfield("count");
            m.line();
            m.load("acc").load("i").add().store("acc");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("acc").retv();
        })
        .method("main", &["n"], |m| {
            m.line();
            m.new_obj("App").store("box");
            m.line();
            m.load("n").load("box").invoke("App", "work", 2).store("r");
            m.line();
            m.load("r").pushi(5).add().retv();
        })
        .build()
        .unwrap();
    preprocess_sod(&c).unwrap()
}

fn expected(n: i64) -> i64 {
    (0..n).sum::<i64>() + 5
}

const N: i64 = 400_000;

/// Two cluster nodes, the program started at t = 0 and then asked to
/// ship its top frame to node 1 `when`; not yet run.
fn armed_sim(when: When) -> (SodSim, ProgramId) {
    let class = app_class();
    let mut home = Node::new(NodeConfig::cluster("home"));
    home.deploy(&class).unwrap();
    let worker = Node::new(NodeConfig::cluster("worker"));
    let mut cluster = Cluster::new(vec![home, worker]);
    let pid = cluster.add_program(0, "App", "main", vec![Value::Int(N)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    sim.start_program(0, pid);
    sim.migrate(pid, when, MigrationPlan::top_to(1, 1));
    (sim, pid)
}

/// Run [`armed_sim`] to idle; returns the program's report.
fn run_armed(when: When) -> RunReport {
    let (mut sim, pid) = armed_sim(when);
    sim.run();
    assert_eq!(sim.program(pid).error(), None);
    sim.report(pid).clone()
}

#[test]
fn at_trigger_fires_with_armed_plan() {
    let r = run_armed(When::At(2 * sod_net::MS));
    assert_eq!(r.result, Some(expected(N)));
    assert_eq!(r.migrations.len(), 1, "At trigger must fire once");
}

#[test]
fn at_trigger_past_completion_does_not_fire() {
    let r = run_armed(When::At(u64::MAX / 2));
    assert_eq!(r.result, Some(expected(N)));
    assert!(r.migrations.is_empty(), "deadline far beyond completion");
}

#[test]
fn cpu_slice_budget_fires_exactly_once() {
    let r = run_armed(When::OnCpuSliceBudget(10));
    assert_eq!(r.result, Some(expected(N)));
    assert_eq!(r.migrations.len(), 1, "budget exhausted → one migration");
}

/// The contract: `OnCpuSliceBudget { slices: n }` fires at the *start* of
/// slice `n` — `n - 1` full slices run normally, and slice `n` already
/// runs in stop-at-MSP mode and captures at its first safe point.
#[test]
fn cpu_slice_budget_fires_at_the_start_of_slice_n() {
    for n in [1, 3] {
        let (mut sim, pid) = armed_sim(When::OnCpuSliceBudget(n));
        let slice_ns = sim.sim.world.slice_ns;
        // Step until the captured segment reaches the worker; the home
        // thread has been frozen since the slice that captured it.
        while sim.sim.world.nodes[1].events == 0 {
            assert!(sim.sim.step(), "n={n}: ran dry before migrating");
        }
        assert_eq!(sim.program(pid).slices_run, n, "n={n}");
        let home = &sim.sim.world.nodes[0];
        assert_eq!(home.slices, n, "n={n}");
        // n - 1 whole slices of guest work, plus the sliver slice n ran
        // before its first safe point.
        assert_eq!(home.busy_ns / slice_ns, n - 1, "n={n}");
        if n == 1 {
            assert_eq!(sim.report(pid).instructions, 0);
        }
        sim.run();
        assert_eq!(sim.program(pid).error(), None);
        assert_eq!(sim.report(pid).result, Some(expected(N)));
        assert_eq!(sim.report(pid).migrations.len(), 1);
    }
}

#[test]
fn cpu_slice_budget_untouched_does_not_fire() {
    let r = run_armed(When::OnCpuSliceBudget(u64::MAX));
    assert_eq!(r.result, Some(expected(N)));
    assert!(r.migrations.is_empty());
}

#[test]
fn cpu_slice_budget_runs_are_deterministic() {
    let a = run_armed(When::OnCpuSliceBudget(25));
    let b = run_armed(When::OnCpuSliceBudget(25));
    assert_eq!(a, b, "same policy, same topology → identical report");
    assert_eq!(a.migrations.len(), 1);
}

#[test]
fn object_fault_threshold_fires_after_remote_faults() {
    // First, a CPU-budget migration ships `work` to the worker, which
    // faults on `box` every iteration's PutField — crossing the fault
    // threshold. The threshold trigger then fires once control is back
    // home, producing a second migration.
    let faulty = run_armed(When::OnCpuSliceBudget(10));
    assert!(
        faulty.object_faults >= 1,
        "remote segment must fault on the box"
    );

    let class = app_class();
    let mut home = Node::new(NodeConfig::cluster("home"));
    home.deploy(&class).unwrap();
    let worker = Node::new(NodeConfig::cluster("worker"));
    let mut cluster = Cluster::new(vec![home, worker]);
    let pid = cluster.add_program(0, "App", "main", vec![Value::Int(N)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    sim.start_program(0, pid);
    sim.migrate(pid, When::OnCpuSliceBudget(10), MigrationPlan::top_to(1, 1));
    sim.migrate(pid, When::OnObjectFaults(1), MigrationPlan::top_to(1, 1));
    sim.run();
    assert_eq!(sim.program(pid).error(), None);
    let r = sim.report(pid);
    assert_eq!(r.result, Some(expected(N)));
    assert_eq!(
        r.migrations.len(),
        2,
        "budget migration then fault-threshold migration"
    );
}

#[test]
fn object_fault_threshold_alone_never_fires_at_home() {
    // Without a prior migration there are no remote faults, so the
    // threshold is never crossed.
    let r = run_armed(When::OnObjectFaults(1));
    assert_eq!(r.result, Some(expected(N)));
    assert_eq!(r.object_faults, 0);
    assert!(r.migrations.is_empty());
}

/// `Big.main(2_000_000)` on a phone whose heap holds 4 MiB, beside a
/// cloud node (1) and a spare cluster node (2), with `OnOom` armed on
/// `plan`: run to idle.
fn oom_rescue(plan: MigrationPlan) -> (SodSim, ProgramId) {
    let c = ClassBuilder::new("Big")
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
        .unwrap();
    let class = preprocess_sod(&c).unwrap();
    let mut cfg = NodeConfig::device("phone");
    cfg.mem_limit = Some(4 << 20);
    let mut device = Node::new(cfg);
    device.deploy(&class).unwrap();
    let cloud = Node::new(NodeConfig::cloud("cloud"));
    let spare = Node::new(NodeConfig::cluster("spare"));
    let mut cluster = Cluster::new(vec![device, cloud, spare]);
    let pid = cluster.add_program(0, "Big", "main", vec![Value::Int(2_000_000)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(3));
    sim.start_program(0, pid);
    sim.migrate(pid, When::OnOom, plan);
    sim.run();
    (sim, pid)
}

#[test]
fn oom_trigger_rescues_and_is_one_shot() {
    let (sim, pid) = oom_rescue(MigrationPlan::top_to(1, 1));
    assert_eq!(
        sim.program(pid).error(),
        None,
        "offload must rescue the OOM"
    );
    let r = sim.report(pid);
    assert_eq!(r.result, Some(2_000_000));
    assert_eq!(r.migrations.len(), 1, "the trigger fires exactly once");
}

/// The stack height is only known when the exception surfaces, so
/// `OnOom` ships the whole stack to the plan's first destination and
/// ignores the rest of the plan.
#[test]
fn oom_trigger_ships_the_whole_stack_to_the_plans_first_destination() {
    let (chained, pid) = oom_rescue(MigrationPlan::chain(&[(1, 1), (2, 1)]));
    assert_eq!(chained.program(pid).error(), None);
    assert_eq!(chained.report(pid).result, Some(2_000_000));
    assert_eq!(chained.report(pid).migrations.len(), 1);
    assert!(chained.sim.world.nodes[1].slices > 0, "the rescue node ran");
    assert_eq!(chained.sim.world.nodes[2].events, 0, "node 2 saw nothing");
    let (whole, _) = oom_rescue(MigrationPlan::whole_stack_to(1));
    assert_eq!(chained.report(pid), whole.report(pid));
}

#[test]
fn oom_trigger_without_pressure_does_not_fire() {
    // Plenty of heap: the allocation succeeds locally and the armed OnOom
    // trigger stays silent.
    let c = ClassBuilder::new("Big")
        .method("main", &["n"], |m| {
            m.line();
            m.load("n").newarr().store("a");
            m.line();
            m.load("a").arrlen().retv();
        })
        .build()
        .unwrap();
    let class = preprocess_sod(&c).unwrap();
    let mut device = Node::new(NodeConfig::cluster("roomy"));
    device.deploy(&class).unwrap();
    let cloud = Node::new(NodeConfig::cloud("cloud"));
    let mut cluster = Cluster::new(vec![device, cloud]);
    let pid = cluster.add_program(0, "Big", "main", vec![Value::Int(1_000)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    sim.start_program(0, pid);
    sim.migrate(pid, When::OnOom, MigrationPlan::top_to(1, 1));
    sim.run();
    assert_eq!(sim.program(pid).error(), None);
    let r = sim.report(pid);
    assert_eq!(r.result, Some(1_000));
    assert!(r.migrations.is_empty());
}
