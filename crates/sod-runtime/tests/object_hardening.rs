//! Hostile input on the object-fault path: a request for an object the
//! home never allocated, and a malformed or empty reply, must each fail the
//! program with a typed error — never a panic inside the engine; a reply
//! that answers no fault the thread is parked on is dropped. Exercised at
//! the engine level (`Cluster` + `SodSim`) with forged messages injected
//! mid-run.

use sod_asm::builder::ClassBuilder;
use sod_net::Topology;
use sod_preprocess::preprocess_sod;
use sod_runtime::engine::{Cluster, SodSim};
use sod_runtime::node::{Node, NodeConfig};
use sod_runtime::trigger::When;
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
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    sim.start_program(0, pid);
    sim.migrate(pid, When::At(2 * sod_net::MS), MigrationPlan::top_to(1, 1));
    while sim.report(pid).object_faults == 0 {
        assert!(sim.sim.step(), "the worker never faulted on the box");
    }
    assert!(!sim.program(pid).is_done());
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
    let error = sim.program(pid).error().expect("typed failure").to_string();
    assert!(
        error.contains("object request for home object 999999"),
        "{error}"
    );
}

/// A failed request fails the program it names and retires only that
/// program's sessions: a `ClassRequest` naming one program but another's
/// live session used to retire that session too, so its program never
/// ended.
#[test]
fn a_failed_request_retires_no_other_programs_session() {
    let (mut sim, p, q) = started_sim(true);
    let q = q.unwrap();
    sim.migrate(q, When::At(2 * sod_net::MS), MigrationPlan::top_to(1, 1));
    while sim.sim.world.hosted(1).len() < 2 {
        assert!(sim.sim.step(), "both programs never reached the worker");
    }
    let hosted = sim.sim.world.hosted(1);
    let session = hosted.iter().find(|h| h.1 == q).expect("q's session").0;
    let now = sim.sim.now();
    let request = Msg::ClassRequest {
        session,
        requester: 1,
        name: "Nope".into(),
        program: p,
    };
    sim.sim.inject(now, 0, request);
    sim.run();
    let error = sim.program(p).error().expect("typed failure");
    assert!(error.contains("missing class \"Nope\""), "{error}");
    assert_eq!(sim.program(q).error(), None);
    assert_eq!(sim.report(q).result, Some(900_000));
    assert_eq!(sim.check_idle(), Ok(()));
}

/// A reply reaching a thread that is running, not parked on its fault (a
/// duplicate, a late copy), answers nothing: it is dropped, its bytes
/// credited lost, and the program ends with its value.
#[test]
fn reply_for_a_thread_no_longer_parked_is_dropped() {
    let (mut sim, pid) = sim_with_live_worker_session();
    let mut batch = FrameBatch::new();
    let forged = WireObject {
        home_id: 0,
        body: WireObjBody::Str("forged".into()),
    };
    batch.push(encode_object(&forged).unwrap());
    reply_as_if_sent(&mut sim, batch);
    sim.run();
    assert_eq!(sim.program(pid).error(), None);
    assert_eq!(sim.report(pid).result, Some(400_000));
    assert_eq!(sim.check_idle(), Ok(()));
}

/// Deliver `batch` to the worker session now, as if the home had sent it:
/// the ledger then balances only if its bytes are credited lost where it
/// is dropped.
fn reply_as_if_sent(sim: &mut SodSim, batch: FrameBatch) {
    sim.sim.world.nodes[0].net_sent.object += batch.payload_bytes();
    let now = sim.sim.now();
    let session = FIRST_SESSION;
    sim.sim.inject(now, 1, Msg::ObjectReply { session, batch });
}

/// `main(n)` makes box `a` holding 1 and box `b` holding 1000, and
/// `sum(n, a, b)` spins n times, then returns `a.count + b.count`:
/// migrated mid-spin, it faults `a` in and then `b`.
fn two_box_class() -> ClassDef {
    let c = ClassBuilder::new("App")
        .field("count", TypeOf::Int)
        .method("sum", &["n", "a", "b"], |m| {
            m.line();
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("n").if_cmp(Cmp::Ge, "done");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("a").getfield("count").store("x");
            m.line();
            m.load("b").getfield("count").store("y");
            m.line();
            m.load("x").load("y").add().retv();
        })
        .method("main", &["n"], |m| {
            m.line();
            m.new_obj("App").store("a");
            m.line();
            m.load("a").pushi(1).putfield("count");
            m.line();
            m.new_obj("App").store("b");
            m.line();
            m.load("b").pushi(1000).putfield("count");
            m.line();
            m.load("n")
                .load("a")
                .load("b")
                .invoke("App", "sum", 3)
                .store("r");
            m.line();
            m.load("r").retv();
        })
        .build()
        .unwrap();
    preprocess_sod(&c).unwrap()
}

/// The home id the worker's thread is parked on, if it is parked on a
/// fault.
fn parked_on(sim: &SodSim) -> Option<u32> {
    sim.sim.world.nodes[1]
        .vm
        .threads
        .iter()
        .find_map(|t| match t.state {
            sod_vm::interp::ThreadState::Parked(sod_vm::interp::ParkReason::ObjectFault(q)) => {
                Some(q.home_id)
            }
            _ => None,
        })
}

/// A late copy of the reply to the thread's first fault reaches it while
/// it is parked on its second: the copy answers the first fault, so it is
/// dropped, and the second fault binds the object it asked for — the
/// engine used to bind the copy's object in its place.
#[test]
fn a_late_reply_to_another_fault_binds_nothing() {
    let mut home = Node::new(NodeConfig::cluster("home"));
    home.deploy(&two_box_class()).unwrap();
    let worker = Node::new(NodeConfig::cluster("worker"));
    let mut cluster = Cluster::new(vec![home, worker]);
    let pid = cluster.add_program(0, "App", "main", vec![Value::Int(400_000)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    sim.start_program(0, pid);
    sim.migrate(pid, When::At(2 * sod_net::MS), MigrationPlan::top_to(1, 1));
    let first = loop {
        if let Some(id) = parked_on(&sim) {
            break id;
        }
        assert!(sim.sim.step(), "the worker never faulted on a");
    };
    while parked_on(&sim).is_none_or(|id| id == first) {
        assert!(sim.sim.step(), "the worker never faulted on b");
    }
    let copy = [encode_object(&app_instance(first, 1)).unwrap()];
    reply_as_if_sent(&mut sim, copy.into_iter().collect());
    sim.run();
    assert_eq!(sim.program(pid).error(), None);
    assert_eq!(sim.report(pid).result, Some(1001));
    assert_eq!(sim.report(pid).object_faults, 2);
    assert_eq!(sim.check_idle(), Ok(()));
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
    let error = sim.program(pid).error().expect("typed failure").to_string();
    assert!(error.contains("object reply rejected"), "{error}");
}

// ---------------------------------------------------------------------------
// Flush acks nobody is waiting for
// ---------------------------------------------------------------------------

/// The cluster of `sim_with_live_worker_session`, its program started but
/// nothing delivered yet, plus — if asked — a sibling program that stays
/// home: whatever a hostile message does to the first, the second must
/// finish.
fn started_sim(sibling: bool) -> (SodSim, ProgramId, Option<ProgramId>) {
    let mut home = Node::new(NodeConfig::cluster("home"));
    home.deploy(&app_class()).unwrap();
    let worker = Node::new(NodeConfig::cluster("worker"));
    let mut cluster = Cluster::new(vec![home, worker]);
    let pid = cluster.add_program(0, "App", "main", vec![Value::Int(400_000)]);
    let sibling = sibling.then(|| cluster.add_program(0, "App", "main", vec![Value::Int(900_000)]));
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    for program in [Some(pid), sibling].into_iter().flatten() {
        sim.start_program(0, program);
    }
    sim.migrate(pid, When::At(2 * sod_net::MS), MigrationPlan::top_to(1, 1));
    (sim, pid, sibling)
}

/// A `FlushAck` naming a session that never lived on the node it reaches
/// (a forgery), and one for a session that has already completed (a
/// duplicate), have nothing to resume: both are ignored — the engine used
/// to index the session map with the id and take the whole fleet down.
#[test]
fn forged_and_duplicate_flush_acks_are_ignored() {
    let (mut sim, pid, sibling) = started_sim(true);
    let sibling = sibling.unwrap();
    while sim.report(pid).object_faults == 0 {
        assert!(sim.sim.step(), "the worker never faulted on the box");
    }
    assert!(!sim.program(pid).is_done() && !sim.program(sibling).is_done());
    let forged = |session| Msg::FlushAck {
        session,
        assigned: vec![(sod_runtime::engine::TEMP_ID_BASE, 0)],
    };
    let now = sim.sim.now();
    // No node ever minted a session 77 of stripe 9.
    sim.sim.inject(now, 1, forged((9 << 32) | 77));
    // The live session's id, delivered where it never lived.
    sim.sim.inject(now, 0, forged(FIRST_SESSION));
    sim.run();
    // The session completed; its ack (it never asked for one) is stale.
    let now = sim.sim.now();
    sim.sim.inject(now, 1, forged(FIRST_SESSION));
    sim.run();
    for (program, n) in [(pid, 400_000), (sibling, 900_000)] {
        assert_eq!(sim.program(program).error(), None);
        assert_eq!(sim.report(program).result, Some(n));
    }
}

// ---------------------------------------------------------------------------
// A malformed frame anywhere in a batch: nothing of the batch is applied
// ---------------------------------------------------------------------------

/// Frames for `good` objects with one malformed frame at position `k`.
fn batch_with_bad_frame(good: &[WireObject], k: usize) -> FrameBatch {
    let mut frames: Vec<_> = good.iter().map(|o| encode_object(o).unwrap()).collect();
    // An instance whose declared slot count its bytes cannot hold.
    let whole = encode_object(&WireObject {
        home_id: 3,
        body: WireObjBody::Obj {
            class: "App".into(),
            fields: vec![sod_vm::capture::CapturedValue::Int(1); 4],
        },
    })
    .unwrap();
    frames.insert(k, whole.slice(0..whole.len() - 5));
    frames.into_iter().collect()
}

fn app_instance(home_id: u32, count: i64) -> WireObject {
    WireObject {
        home_id,
        body: WireObjBody::Obj {
            class: "App".into(),
            fields: vec![sod_vm::capture::CapturedValue::Int(count)],
        },
    }
}

/// A well-formed `App` instance frame with `n` slots; the class lays out
/// one.
fn app_with_slots(home_id: u32, n: usize) -> WireObject {
    WireObject {
        home_id,
        body: WireObjBody::Obj {
            class: "App".into(),
            fields: vec![sod_vm::capture::CapturedValue::Int(7); n],
        },
    }
}

/// Step until the worker thread is parked on its fault, the genuine reply
/// still on its way.
fn park_on_the_fault(sim: &mut SodSim) {
    let parked = |sim: &SodSim| {
        let threads = &sim.sim.world.nodes[1].vm.threads;
        threads.iter().any(|t| {
            matches!(
                t.state,
                sod_vm::interp::ThreadState::Parked(sod_vm::interp::ParkReason::ObjectFault(_))
            )
        })
    };
    while !parked(sim) {
        assert!(sim.sim.step(), "the worker never parked on a fault");
    }
}

/// Step until `pid` carries an error; returns it.
fn step_to_failure(sim: &mut SodSim, pid: ProgramId) -> String {
    while sim.program(pid).error().is_none() {
        assert!(sim.sim.step(), "the program never failed");
    }
    sim.program(pid).error().unwrap().to_string()
}

#[test]
fn reply_with_a_malformed_frame_installs_nothing() {
    // Wherever the bad frame sits — root, middle, last — the good frames
    // around it must not reach the worker heap.
    for k in 0..3 {
        let (mut sim, pid, _) = started_sim(false);
        park_on_the_fault(&mut sim);
        let before = format!("{:?}", sim.sim.world.nodes[1].vm.heap);
        let now = sim.sim.now();
        sim.sim.inject(
            now,
            1,
            Msg::ObjectReply {
                session: FIRST_SESSION,
                batch: batch_with_bad_frame(&[app_instance(0, 5), app_instance(1, 6)], k),
            },
        );
        let error = step_to_failure(&mut sim, pid);
        assert!(
            error.contains("object reply decode failed"),
            "k={k}: {error}"
        );
        let after = format!("{:?}", sim.sim.world.nodes[1].vm.heap);
        assert_eq!(before, after, "k={k}: the worker heap changed");
        // The genuine reply finds a retired session and is ignored.
        sim.run();
    }
}

#[test]
fn flush_with_a_malformed_frame_applies_nothing() {
    for k in 0..3 {
        let (mut sim, pid) = sim_with_live_worker_session();
        let before = format!("{:?}", sim.sim.world.nodes[0].vm.heap);
        // Frames that *would* apply: the box the program made (home object
        // 0) rewritten, and a worker-created object asking for a master.
        let good = [
            app_instance(0, 123),
            app_instance(sod_runtime::engine::TEMP_ID_BASE + 9, 456),
        ];
        let now = sim.sim.now();
        sim.sim.inject(
            now,
            0,
            Msg::Flush {
                program: pid,
                batch: batch_with_bad_frame(&good, k),
                ack_to: None,
            },
        );
        let error = step_to_failure(&mut sim, pid);
        assert!(error.contains("flush decode failed"), "k={k}: {error}");
        let after = format!("{:?}", sim.sim.world.nodes[0].vm.heap);
        assert_eq!(before, after, "k={k}: the home heap changed");
        sim.run();
    }
}

// ---------------------------------------------------------------------------
// A frame that decodes but does not fit its class: refused, typed
// ---------------------------------------------------------------------------

/// A reply whose instance frame names the loaded `App` with no slots used
/// to install, and the worker's next `PutField` on it indexed past them
/// and panicked. It is refused at install, the worker heap untouched.
#[test]
fn reply_with_a_short_instance_frame_installs_nothing() {
    let (mut sim, pid, _) = started_sim(false);
    park_on_the_fault(&mut sim);
    let before = format!("{:?}", sim.sim.world.nodes[1].vm.heap);
    let now = sim.sim.now();
    let batch = [encode_object(&app_with_slots(0, 0)).unwrap()];
    sim.sim.inject(
        now,
        1,
        Msg::ObjectReply {
            session: FIRST_SESSION,
            batch: batch.into_iter().collect(),
        },
    );
    let error = step_to_failure(&mut sim, pid);
    assert!(
        error.contains("object reply rejected")
            && error.contains("slot count differs from its class's layout"),
        "{error}"
    );
    let after = format!("{:?}", sim.sim.world.nodes[1].vm.heap);
    assert_eq!(before, after, "the worker heap changed");
    sim.run();
}

/// A flush frame must write the slots its target has: a rewrite of the box
/// with none, or a worker-created `App` with two, fails the flush before
/// anything of it — the good worker-created object ahead of it included —
/// reaches the home heap.
#[test]
fn flush_with_a_frame_of_the_wrong_slot_count_applies_nothing() {
    let temp = sod_runtime::engine::TEMP_ID_BASE;
    for misfit in [app_with_slots(0, 0), app_with_slots(temp + 9, 2)] {
        let (mut sim, pid) = sim_with_live_worker_session();
        let before = format!("{:?}", sim.sim.world.nodes[0].vm.heap);
        let frames = [app_instance(temp + 8, 456), misfit];
        let now = sim.sim.now();
        sim.sim.inject(
            now,
            0,
            Msg::Flush {
                program: pid,
                batch: frames.iter().map(|o| encode_object(o).unwrap()).collect(),
                ack_to: None,
            },
        );
        let error = step_to_failure(&mut sim, pid);
        assert!(
            error.contains("flush decode failed") && error.contains("slot count differs"),
            "{error}"
        );
        let after = format!("{:?}", sim.sim.world.nodes[0].vm.heap);
        assert_eq!(before, after, "the home heap changed");
        sim.run();
    }
}
