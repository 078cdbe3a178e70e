//! What one guest — or one careless tool holding the VM — can do must end
//! that guest's own program with a typed error, never the fleet:
//!
//! * A guest can name a native the host does not provide: the VM parks on
//!   any name outside its pure registry, so the engine is the one to say
//!   "unknown intrinsic".
//! * `Vm::set_breakpoint` is public tooling API. A breakpoint tripped by a
//!   thread that is not restoring — a running worker, a root thread — has
//!   no restore to drive.
//! * A worker that crashes mid-restore leaves no breakpoint armed behind.
//! * A guest failing in a chain's upper segment leaves nothing of its
//!   program behind — not the lower segment waiting for its value.
//! * A host reply reaching a thread not parked on a host call — released,
//!   running, never there — resumes nothing.
//! * A `StartProgram` launches a program once, at its home: a second
//!   start, or one delivered elsewhere (even to a node that is down),
//!   spawns nothing and fails nothing.
//!
//! Each hostile program runs beside a sibling that must still finish.
//! Exercised at the engine level (`Cluster` + `SodSim`), like
//! `state_hardening.rs`.

use sod_asm::builder::ClassBuilder;
use sod_net::{ChaosPlan, Topology, MS};
use sod_preprocess::preprocess_sod;
use sod_runtime::engine::{Cluster, SodSim};
use sod_runtime::msg::HostReply;
use sod_runtime::node::{Node, NodeConfig};
use sod_runtime::trigger::When;
use sod_runtime::{MigrationPlan, Msg, ProgramId, Recovery, RetryPolicy};
use sod_vm::class::ClassDef;
use sod_vm::instr::Cmp;
use sod_vm::value::Value;

/// `main(n, bad)` returns `7 + spin(n, bad)`; `spin` counts to `n` and
/// then, if `bad` is set, calls a native no host has.
fn app_class() -> ClassDef {
    let class = ClassBuilder::new("App")
        .method("spin", &["n", "bad"], |m| {
            m.line();
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("n").if_cmp(Cmp::Ge, "done");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("bad").ifz(Cmp::Eq, "out");
            m.line();
            m.native("no_such", 0).pop();
            m.line();
            m.label("out");
            m.load("i").retv();
        })
        .method("main", &["n", "bad"], |m| {
            m.line();
            m.load("n").load("bad").invoke("App", "spin", 2).store("r");
            m.line();
            m.pushi(7).load("r").add().retv();
        })
        .build()
        .unwrap();
    preprocess_sod(&class).unwrap()
}

/// 3 ms of guest time: still counting when a 1 ms migration has restored.
const N: i64 = 400_000;

/// Node 0 holds the application, node 1 nothing yet.
fn home_and_worker() -> Cluster {
    let mut home = Node::new(NodeConfig::cluster("home"));
    home.deploy(&app_class()).unwrap();
    Cluster::new(vec![home, Node::new(NodeConfig::cluster("worker"))])
}

/// A victim and a sibling homed on node 0, the victim — with `offload` —
/// sending its top frame to node 1 at 1 ms. Not yet run.
fn fleet(victim_bad: i64, offload: bool) -> (SodSim, ProgramId, ProgramId) {
    let mut cluster = home_and_worker();
    let victim = cluster.add_program(
        0,
        "App",
        "main",
        vec![Value::Int(N), Value::Int(victim_bad)],
    );
    let sibling = cluster.add_program(0, "App", "main", vec![Value::Int(N), Value::Int(0)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    sim.start_program(0, victim);
    sim.start_program(0, sibling);
    if offload {
        sim.migrate(victim, When::At(MS), MigrationPlan::top_to(1, 1));
    }
    (sim, victim, sibling)
}

/// Run to idle: the sibling returned its value, the victim failed — typed.
fn victims_error(mut sim: SodSim, victim: ProgramId, sibling: ProgramId) -> String {
    sim.run();
    assert_eq!(sim.program(sibling).error(), None);
    assert_eq!(sim.report(sibling).result, Some(7 + N));
    assert!(sim.program(victim).is_done());
    assert_eq!(sim.report(victim).result, None);
    sim.program(victim)
        .error()
        .expect("typed failure")
        .to_string()
}

#[test]
fn an_unknown_native_fails_its_own_program_at_home() {
    let (sim, victim, sibling) = fleet(1, false);
    let error = victims_error(sim, victim, sibling);
    assert_eq!(error, "unknown intrinsic: no_such");
}

#[test]
fn an_unknown_native_fails_its_own_program_on_a_worker() {
    let (sim, victim, sibling) = fleet(1, true);
    let error = victims_error(sim, victim, sibling);
    assert_eq!(error, "unknown intrinsic: no_such");
}

/// A chain's lower segment waits on the worker for the value of the one
/// above it. When the upper one fails typed, the program's end retires the
/// waiting one too, and nothing of the program stays on any node (ROADMAP
/// Open 4(a): it used to wait there forever, its thread and owner entry
/// with it).
#[test]
fn a_failed_upper_segment_leaves_no_waiting_lower_one() {
    let mut cluster = home_and_worker();
    let victim = cluster.add_program(0, "App", "main", vec![Value::Int(N), Value::Int(1)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    sim.start_program(0, victim);
    let plan = MigrationPlan::chain(&[(1, 1), (1, 1)]);
    sim.migrate(victim, When::At(MS), plan);
    sim.run();
    let error = sim.program(victim).error();
    assert_eq!(error, Some("unknown intrinsic: no_such"));
    assert_eq!(sim.report(victim).migrations.len(), 2, "both restored");
    assert_eq!(sim.check_idle(), Ok(()));
}

/// Arm a breakpoint for thread `tid` of `node` on the very instruction it
/// will execute next.
fn arm_where_it_stands(sim: &mut SodSim, node: usize, tid: usize) {
    let vm = &mut sim.sim.world.nodes[node].vm;
    let f = vm.thread(tid).unwrap().frames.last().unwrap().clone();
    vm.set_breakpoint(tid, f.class_idx, f.method_idx, f.pc);
}

#[test]
fn a_stray_breakpoint_on_a_running_worker_fails_that_program_only() {
    let (mut sim, victim, sibling) = fleet(0, true);
    // Step until the victim's segment runs on the worker, its restore
    // finished. It is the worker VM's only thread.
    while sim.report(victim).migrations.is_empty() {
        assert!(sim.sim.step(), "the segment never restored");
    }
    arm_where_it_stands(&mut sim, 1, 0);
    let error = victims_error(sim, victim, sibling);
    assert_eq!(error, "stray breakpoint: session is not restoring");
}

#[test]
fn a_stray_breakpoint_on_a_root_thread_fails_that_program_only() {
    let (mut sim, victim, sibling) = fleet(0, false);
    while sim.sim.now() < MS {
        assert!(sim.sim.step(), "the programs finished early");
    }
    let tid = sim.program(victim).home_tid().expect("started");
    arm_where_it_stands(&mut sim, 0, tid);
    let error = victims_error(sim, victim, sibling);
    assert_eq!(error, "stray breakpoint: not a worker thread");
}

/// A host reply that finds no thread parked on a host call — its program
/// finished and its thread released, an id no thread ever had, a thread
/// that is running — resumes nothing. The engine used to unwrap the
/// resume, and a late reply took the whole fleet down.
#[test]
fn a_late_host_reply_is_ignored() {
    let mut cluster = home_and_worker();
    let done = cluster.add_program(0, "App", "main", vec![Value::Int(N / 4), Value::Int(0)]);
    let running = cluster.add_program(0, "App", "main", vec![Value::Int(N), Value::Int(0)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    sim.start_program(0, done);
    sim.start_program(0, running);
    while !sim.program(done).is_done() {
        assert!(sim.sim.step(), "the short program never finished");
    }
    assert!(!sim.program(running).is_done());
    let now = sim.sim.now();
    let tid = |p| sim.program(p).home_tid().expect("started");
    let (released, live) = (tid(done), tid(running));
    for tid in [released, live, 12_345] {
        // The call each thread is on, so only its state can refuse it.
        let call = sim.sim.world.nodes[0]
            .vm
            .thread(tid)
            .map_or(0, |t| t.host_calls);
        let reply = HostReply::Int(-1);
        sim.sim.inject(now, 0, Msg::HostDone { tid, call, reply });
    }
    sim.run();
    assert_eq!(sim.report(done).result, Some(7 + N / 4));
    assert_eq!(sim.report(running).result, Some(7 + N));
    assert_eq!(sim.program(running).error(), None);
}

/// One program whose two frames restore on the worker through the handler
/// protocol, under a chaos plan that crashes the worker at `crash_at`.
fn restoring_sim(crash_at: u64) -> (SodSim, ProgramId) {
    let mut cluster = home_and_worker();
    let p = cluster.add_program(0, "App", "main", vec![Value::Int(N), Value::Int(0)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    let recovery = Recovery {
        policy: RetryPolicy::FallbackToHome,
        timeout_ns: 20 * MS,
    };
    sim.set_chaos(&ChaosPlan::new().crash_at(crash_at, 1), recovery);
    sim.start_program(0, p);
    sim.migrate(p, When::At(MS), MigrationPlan::top_to(1, 2));
    (sim, p)
}

#[test]
fn a_worker_crashing_mid_restore_leaves_no_breakpoint_armed() {
    // Probe: with the crash far away, when does the worker hold an armed
    // breakpoint? (From the restore's begin to its last frame's trip.)
    let (mut probe, _) = restoring_sim(1_000 * MS);
    let armed = |sim: &SodSim| sim.sim.world.nodes[1].vm.breakpoints_armed();
    while armed(&probe) == 0 {
        assert!(probe.sim.step(), "the restore never armed a breakpoint");
    }
    let from = probe.sim.now();
    while armed(&probe) > 0 {
        assert!(probe.sim.step());
    }
    let until = probe.sim.now();
    assert!(from < until, "the breakpoint was armed for no time at all");

    // The run: crash the worker in the middle of that window. The session
    // dies restoring; the deadline brings the program home.
    let (mut sim, p) = restoring_sim(from + (until - from) / 2);
    sim.run();
    assert_eq!(sim.program(p).error(), None);
    assert_eq!(sim.report(p).result, Some(7 + N));
    assert_eq!(sim.cluster_report().chaos.fallbacks, 1);
    for node in &sim.sim.world.nodes {
        assert_eq!(node.vm.breakpoints_armed(), 0, "on {}", node.cfg.name);
    }
}

/// `main(N, 0)` on node 0, started at 0 and, with `again`, once more at
/// 1 ms while it runs. Run to idle.
fn started(again: bool) -> SodSim {
    let mut cluster = home_and_worker();
    let p = cluster.add_program(0, "App", "main", vec![Value::Int(N), Value::Int(0)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    sim.start_program(0, p);
    if again {
        sim.start_program(MS, p);
    }
    sim.run();
    sim
}

/// A second start is dropped. It used to spawn a second root thread and
/// restamp `started_at_ns`, so the report showed 2.2 ms for a 3.2 ms run
/// and the first thread's slot stayed taken at idle.
#[test]
fn a_program_started_twice_runs_once() {
    let (once, twice) = (started(false), started(true));
    assert_eq!(twice.check_idle(), Ok(()));
    assert_eq!(twice.report(0), once.report(0));
    assert_eq!(twice.program(0).home_tid(), Some(0));
}

/// A start delivered to a node that is not the program's home — up, or
/// down and so dropped by the network — is dropped while the program runs
/// at home. It used to spawn there (`class not found: App`) or to fail the
/// program as if its home were down, and in a debug build it panicked.
#[test]
fn a_start_away_from_home_is_dropped() {
    for worker_down in [false, true] {
        let mut cluster = home_and_worker();
        let p = cluster.add_program(0, "App", "main", vec![Value::Int(N), Value::Int(0)]);
        let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
        if worker_down {
            let plan = ChaosPlan::new().crash_at(MS / 2, 1);
            sim.set_chaos(&plan, Recovery::default());
        }
        sim.start_program(0, p);
        sim.sim.inject(MS, 1, Msg::StartProgram { program: p });
        sim.run();
        assert_eq!(sim.check_idle(), Ok(()), "worker down: {worker_down}");
        assert_eq!(sim.program(p).error(), None, "worker down: {worker_down}");
        assert_eq!(sim.report(p).result, Some(7 + N));
        assert_eq!(sim.sim.world.nodes[1].vm.instr_count, 0);
        let dropped = sim.cluster_report().chaos.dropped_msgs;
        assert_eq!(dropped, u64::from(worker_down));
    }
}
