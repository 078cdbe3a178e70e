//! Hostile input on the object-fault path: a request for an object the
//! home never allocated, and a reply reaching a thread that is not parked
//! on a fault, must each fail the program with a typed error — never a
//! panic inside the engine. Exercised at the engine level (`Cluster` +
//! `SodSim`) with forged messages injected mid-run.

use sod_asm::builder::ClassBuilder;
use sod_net::Topology;
use sod_preprocess::preprocess_sod;
use sod_runtime::engine::{Cluster, SodSim};
use sod_runtime::node::{Node, NodeConfig};
use sod_runtime::trigger::{ArmedTrigger, Trigger};
use sod_runtime::{MigrationPlan, Msg, ProgramId, SessionId};
use sod_vm::class::ClassDef;
use sod_vm::instr::Cmp;
use sod_vm::value::{TypeOf, Value};
use sod_vm::wire::{encode_object, FrameBatch, WireObjBody, WireObject};

/// `main(n)` makes a box, then `work(n, box)` loops n times writing it:
/// migrated to a worker, `work` faults the box in once and keeps running.
fn app_class() -> ClassDef {
    let c = ClassBuilder::new("App")
        .field("count", TypeOf::Int)
        .method("work", &["n", "box"], |m| {
            m.line();
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("n").if_cmp(Cmp::Ge, "done");
            m.line();
            m.load("box").load("i").putfield("count");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("i").retv();
        })
        .method("main", &["n"], |m| {
            m.line();
            m.new_obj("App").store("box");
            m.line();
            m.load("n").load("box").invoke("App", "work", 2).store("r");
            m.line();
            m.load("r").retv();
        })
        .build()
        .unwrap();
    preprocess_sod(&c).unwrap()
}

/// The first session minted at node 0 (ids are striped per node).
const FIRST_SESSION: SessionId = (1 << 32) | 1;

/// Run one program homed on node 0 whose top frame migrates to node 1,
/// stepping until the worker session has resolved its object fault — the
/// session is live and its thread is running, not parked.
fn sim_with_live_worker_session() -> (SodSim, ProgramId) {
    let mut home = Node::new(NodeConfig::cluster("home"));
    home.deploy(&app_class()).unwrap();
    let worker = Node::new(NodeConfig::cluster("worker"));
    let mut cluster = Cluster::new(vec![home, worker]);
    let pid = cluster.add_program(0, "App", "main", vec![Value::Int(400_000)]);
    cluster.arm_trigger(
        pid,
        ArmedTrigger::with_plan(Trigger::At(2 * sod_net::MS), MigrationPlan::top_to(1, 1)),
    );
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    sim.start_program(0, pid);
    while sim.report(pid).object_faults == 0 {
        assert!(sim.sim.step(), "the worker never faulted on the box");
    }
    assert!(!sim.program(pid).done);
    (sim, pid)
}

#[test]
fn request_for_a_never_allocated_object_fails_the_program() {
    let (mut sim, pid) = sim_with_live_worker_session();
    let now = sim.sim.now();
    sim.sim.inject(
        now,
        0,
        Msg::ObjectRequest {
            session: FIRST_SESSION,
            requester: 1,
            home_id: 999_999,
            program: pid,
        },
    );
    sim.run();
    let error = sim.program(pid).error.clone().expect("typed failure");
    assert!(
        error.contains("object request for home object 999999"),
        "{error}"
    );
}

#[test]
fn reply_for_a_thread_no_longer_parked_fails_the_program() {
    let (mut sim, pid) = sim_with_live_worker_session();
    let mut batch = FrameBatch::new();
    let forged = WireObject {
        home_id: 0,
        body: WireObjBody::Str("forged".into()),
    };
    batch.push(encode_object(&forged).unwrap());
    let now = sim.sim.now();
    sim.sim.inject(
        now,
        1,
        Msg::ObjectReply {
            session: FIRST_SESSION,
            batch,
        },
    );
    sim.run();
    let error = sim.program(pid).error.clone().expect("typed failure");
    assert!(error.contains("object reply rejected"), "{error}");
}

#[test]
fn empty_reply_fails_the_program() {
    let (mut sim, pid) = sim_with_live_worker_session();
    let now = sim.sim.now();
    sim.sim.inject(
        now,
        1,
        Msg::ObjectReply {
            session: FIRST_SESSION,
            batch: FrameBatch::new(),
        },
    );
    sim.run();
    let error = sim.program(pid).error.clone().expect("typed failure");
    assert!(error.contains("object reply rejected"), "{error}");
}
