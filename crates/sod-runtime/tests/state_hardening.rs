//! State the engine cannot restore or capture must fail its own program
//! with a typed error — never panic the fleet.
//!
//! * A well-formed `Msg::State` frame can still name a method the
//!   destination's class lacks, or carry the wrong number of locals for
//!   the method it names. Both restore protocols refuse such a segment;
//!   the refusal has to end the program it belongs to, not the engine.
//! * A `Msg::State` frame longer than the message it holds disagrees with
//!   itself about the byte metric; the decoder refuses it whole.
//! * A `Msg::State` frame for a session no open migration episode lists is
//!   stale: nobody decodes it, and its program runs on.
//! * A `Msg::SegmentReturn` for the open episode can claim to replace more
//!   frames than the home stack holds; its value has nowhere to land.
//! * A deployed class that was never preprocessed can stop with an operand
//!   under a call's arguments (`a + f(x)`), which a multi-frame plan cannot
//!   capture.
//! * A duplicated `Msg::State` or `Msg::ClassReply` for a live session is
//!   dropped: it neither replaces the session nor resumes its thread.
//!
//! Each case runs beside a sibling program that must still finish.
//! Exercised at the engine level (`Cluster` + `SodSim`), forged messages
//! injected mid-run as in `object_hardening.rs`.

use bytes::Bytes;
use sod_asm::builder::ClassBuilder;
use sod_net::Topology;
use sod_preprocess::preprocess_sod;
use sod_runtime::engine::{Cluster, CodeShipping, HomeView, SodSim};
use sod_runtime::msg::{ReturnTarget, SegmentInfo, StateMsg};
use sod_runtime::node::{Node, NodeConfig};
use sod_runtime::trigger::When;
use sod_runtime::{MigrationPlan, Msg, ProgramId, SessionId};
use sod_vm::capture::{CapturedFrame, CapturedState, CapturedValue, Frames};
use sod_vm::class::ClassDef;
use sod_vm::instr::Cmp;
use sod_vm::value::Value;
use sod_vm::wire::encode_state;

/// `main(n)` returns `7 + spin(n)`, where `spin(n)` counts to `n`: while
/// `spin` runs, `main`'s frame holds the `7` under the call's argument.
fn app_class() -> ClassDef {
    ClassBuilder::new("App")
        .method("spin", &["n"], |m| {
            m.line();
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("n").if_cmp(Cmp::Ge, "done");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("i").retv();
        })
        .method("main", &["n"], |m| {
            m.line();
            m.pushi(7).load("n").invoke("App", "spin", 1).add().retv();
        })
        .build()
        .unwrap()
}

const N: i64 = 400_000;
/// The victim's count: long enough that it still runs (3 ms of guest time
/// per 400 000) when the sibling's restore completes, ≈ 10 ms in.
const VICTIM_N: i64 = 4_000_000;

/// Two programs homed on node 0, each sending its top frame to node 1 —
/// the victim at 1 ms, the sibling at 2 ms — stepped until `ready` holds.
fn started(ready: fn(&SodSim, ProgramId, ProgramId) -> bool) -> (SodSim, ProgramId, ProgramId) {
    let mut home = Node::new(NodeConfig::cluster("home"));
    home.deploy(&preprocess_sod(&app_class()).unwrap()).unwrap();
    let worker = Node::new(NodeConfig::cluster("worker"));
    let mut cluster = Cluster::new(vec![home, worker]);
    let sibling = cluster.add_program(0, "App", "main", vec![Value::Int(N)]);
    let victim = cluster.add_program(0, "App", "main", vec![Value::Int(VICTIM_N)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    sim.start_program(0, sibling);
    sim.start_program(0, victim);
    for (program, at) in [(victim, 1), (sibling, 2)] {
        let at = When::At(at * sod_net::MS);
        sim.migrate(program, at, MigrationPlan::top_to(1, 1));
    }
    while !ready(&sim, sibling, victim) {
        assert!(sim.sim.step(), "the run never got ready");
    }
    assert!(!sim.program(victim).is_done() && !sim.program(sibling).is_done());
    (sim, sibling, victim)
}

/// `started`, stepped until the sibling runs remotely; returns the
/// victim's session on node 1 too.
fn sim_with_sibling_on_the_worker() -> (SodSim, ProgramId, ProgramId, SessionId) {
    let (sim, sibling, victim) =
        started(|sim, sibling, _| !sim.report(sibling).migrations.is_empty());
    let hosted = sim.sim.world.hosted(1);
    let session = hosted
        .iter()
        .find(|h| h.1 == victim)
        .expect("victim on the worker");
    (sim, sibling, victim, session.0)
}

/// Deliver `frames` to the worker as the segment of `victim`'s episode,
/// ahead of the real one, run to idle, and return the victim's error. The
/// sibling must have finished regardless.
fn error_after_forged_state(frames: Vec<CapturedFrame>, wait_for_return: bool) -> String {
    let state = CapturedState {
        frames: Frames::from_frames(frames).unwrap(),
        statics: vec![],
    };
    let wire = encode_state(&state).unwrap();
    error_after_forged_frame(wire, state.frames.len(), wait_for_return)
}

/// The same, from the state's wire frame.
fn error_after_forged_frame(state: Bytes, nframes: usize, wait_for_return: bool) -> String {
    // A state frame reaches restore only as a session of its program's
    // open episode, at the node the episode sent it to, and only the first
    // copy: so the forgery is the victim's shipped session, landing on the
    // worker while the real state is in flight.
    let shipped = |sim: &SodSim, _, victim| match sim.sim.world.home_side(victim) {
        HomeView::Frozen { sessions, .. } => !sessions.is_empty(),
        _ => false,
    };
    let (mut sim, sibling, victim) = started(shipped);
    let HomeView::Frozen { sessions, .. } = sim.sim.world.home_side(victim) else {
        unreachable!("the victim's episode shipped");
    };
    let session = sessions[0].1;
    let info = SegmentInfo {
        program: victim,
        session,
        home: 0,
        return_to: ReturnTarget::Home,
        nframes,
        home_pop_frames: nframes,
        wait_for_return,
    };
    let now = sim.sim.now();
    sim.sim.inject(
        now,
        1,
        Msg::State(Box::new(StateMsg {
            info,
            state,
            bundled: vec![],
            class_bytes: 0,
            capture_ns: 0,
            sent_at: now,
        })),
    );
    sim.run();
    assert_eq!(sim.program(sibling).error(), None);
    assert_eq!(sim.report(sibling).result, Some(7 + N));
    sim.program(victim)
        .error()
        .expect("typed failure")
        .to_string()
}

fn spin_frame(method: &str, locals: Vec<CapturedValue>) -> CapturedFrame {
    CapturedFrame {
        class: "App".into(),
        method: method.into(),
        pc: 0,
        locals,
    }
}

#[test]
fn state_naming_an_unknown_method_fails_its_program() {
    let locals = vec![CapturedValue::Int(1), CapturedValue::Int(0)];
    // Through the handler protocol (a top segment)...
    let error = error_after_forged_state(vec![spin_frame("nope", locals.clone())], false);
    assert!(error.contains("nope"), "{error}");
    // ...and through the direct restore (a segment awaiting a return).
    let error = error_after_forged_state(vec![spin_frame("nope", locals)], true);
    assert!(error.contains("nope"), "{error}");
}

#[test]
fn state_with_a_short_locals_window_fails_its_program() {
    // `spin` has two local slots; the frame carries one.
    let short = spin_frame("spin", vec![CapturedValue::Int(1)]);
    let error = error_after_forged_state(vec![short], true);
    assert!(error.contains("locals layout mismatch"), "{error}");
}

#[test]
fn a_later_frame_naming_an_unknown_method_fails_its_program() {
    // The handler protocol meets the second frame's method only once the
    // first frame's breakpoint fires.
    let locals = vec![CapturedValue::Int(1), CapturedValue::Int(0)];
    let frames = vec![
        spin_frame("main", vec![CapturedValue::Int(1)]),
        spin_frame("nope", locals),
    ];
    let error = error_after_forged_state(frames, false);
    assert!(error.contains("nope"), "{error}");
}

#[test]
fn state_with_trailing_bytes_fails_its_program() {
    // A restorable frame of `spin`, then one byte the message does not
    // account for: the frame's length is the byte metric everywhere, so a
    // frame that is longer than its content is refused, not trimmed.
    let locals = vec![CapturedValue::Int(1), CapturedValue::Int(0)];
    let state = CapturedState {
        frames: Frames::from_frames([spin_frame("spin", locals)]).unwrap(),
        statics: vec![],
    };
    let mut wire = encode_state(&state).unwrap().to_vec();
    wire.push(0);
    let error = error_after_forged_frame(Bytes::from(wire), 1, true);
    assert!(error.contains("trailing bytes after state"), "{error}");
}

#[test]
fn state_for_a_session_no_episode_holds_is_dropped_unread() {
    // Frames the decoder would refuse, for a session no node minted (ids
    // are striped by node from 1) and for a program that does not exist:
    // nobody decodes either and the programs run on. The stale one's bytes
    // are lost where they landed; the one naming no program is dropped at
    // dispatch, crediting nothing.
    let (mut sim, sibling, victim, _) = sim_with_sibling_on_the_worker();
    let now = sim.sim.now();
    for program in [victim, 99] {
        let info = SegmentInfo {
            program,
            session: 0xF0F0,
            home: 0,
            return_to: ReturnTarget::Home,
            nframes: 1,
            home_pop_frames: 1,
            wait_for_return: false,
        };
        let forged = StateMsg {
            info,
            state: Bytes::from_static(&[0xFF; 40]),
            bundled: vec![],
            class_bytes: 0,
            capture_ns: 0,
            sent_at: now,
        };
        sim.sim.inject(now, 1, Msg::State(Box::new(forged)));
    }
    sim.run();
    for (program, n) in [(sibling, N), (victim, VICTIM_N)] {
        assert_eq!(sim.program(program).error(), None);
        assert_eq!(sim.report(program).result, Some(7 + n));
    }
    assert_eq!(sim.cluster_report().total_lost().state, 40);
}

#[test]
fn a_segment_return_popping_past_the_home_stack_fails_its_program() {
    // The victim's own episode session, returning home with a value for a
    // frame a thousand below the bottom of its home stack.
    let (mut sim, sibling, victim, session) = sim_with_sibling_on_the_worker();
    let now = sim.sim.now();
    let forged = Msg::SegmentReturn {
        program: victim,
        session,
        target: ReturnTarget::Home,
        retval: Some(CapturedValue::Int(1)),
        pop_frames: 1_000,
    };
    sim.sim.inject(now, 0, forged);
    sim.run();
    let error = sim
        .program(victim)
        .error()
        .expect("typed failure")
        .to_string();
    assert!(error.contains("segment return failed"), "{error}");
    assert_eq!(sim.program(sibling).error(), None);
    assert_eq!(sim.report(sibling).result, Some(7 + N));
}

#[test]
fn uncapturable_stack_of_an_unpreprocessed_class_fails_its_program() {
    // Deployed as authored: no statement rearrangement, so `7 + spin(n)`
    // calls with the 7 still on `main`'s operand stack.
    let mut home = Node::new(NodeConfig::cluster("home"));
    home.deploy(&app_class()).unwrap();
    let worker = Node::new(NodeConfig::cluster("worker"));
    let mut cluster = Cluster::new(vec![home, worker]);
    let sibling = cluster.add_program(0, "App", "main", vec![Value::Int(N)]);
    let victim = cluster.add_program(0, "App", "main", vec![Value::Int(N)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    sim.start_program(0, sibling);
    sim.start_program(0, victim);
    let plan = MigrationPlan::top_to(1, 2);
    sim.migrate(victim, When::At(2 * sod_net::MS), plan);
    sim.run();
    let error = sim
        .program(victim)
        .error()
        .expect("typed failure")
        .to_string();
    assert!(error.contains("migration-safe point"), "{error}");
    assert!(sim.report(victim).migrations.is_empty());
    assert_eq!(sim.program(sibling).error(), None);
    assert_eq!(sim.report(sibling).result, Some(7 + N));
}

/// `App.main(N)` on node 0, its top frame shipped to node 1 at 1 ms under
/// `code`: stepped until `ready` holds of the run. Returns the program and
/// its session on node 1.
fn sim_stepped_until(
    code: CodeShipping,
    ready: impl Fn(&SodSim, SessionId) -> bool,
) -> (SodSim, ProgramId, SessionId) {
    let mut home = Node::new(NodeConfig::cluster("home"));
    home.deploy(&preprocess_sod(&app_class()).unwrap()).unwrap();
    let mut cluster = Cluster::new(vec![home, Node::new(NodeConfig::cluster("worker"))]);
    cluster.code_shipping = code;
    let program = cluster.add_program(0, "App", "main", vec![Value::Int(N)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
    sim.start_program(0, program);
    sim.migrate(program, When::At(sod_net::MS), MigrationPlan::top_to(1, 1));
    loop {
        if let Some(&(session, ..)) = sim.sim.world.hosted(1).first() {
            if ready(&sim, session) {
                return (sim, program, session);
            }
        }
        assert!(sim.sim.step(), "the session never got there");
    }
}

/// The session's restore has begun: it has a thread.
fn running(sim: &SodSim, _: SessionId) -> bool {
    sim.sim.world.hosted(1)[0].2.is_some()
}

#[test]
fn a_duplicate_state_for_a_live_session_is_dropped() {
    // A second, restorable `State` under the id of the session running on
    // node 1 used to replace it, orphaning the first session's thread.
    let (mut sim, program, session) = sim_stepped_until(CodeShipping::BundleTop, running);
    let locals = vec![CapturedValue::Int(N), CapturedValue::Int(0)];
    let state = CapturedState {
        frames: Frames::from_frames([spin_frame("spin", locals)]).unwrap(),
        statics: vec![],
    };
    let wire = encode_state(&state).unwrap();
    // As if the home had sent it: the ledger then balances only if the
    // duplicate's bytes are credited lost where it landed.
    sim.sim.world.nodes[0].net_sent.state += wire.len() as u64;
    let info = SegmentInfo {
        program,
        session,
        home: 0,
        return_to: ReturnTarget::Home,
        nframes: 1,
        home_pop_frames: 1,
        wait_for_return: false,
    };
    let now = sim.sim.now();
    let duplicate = StateMsg {
        info,
        state: wire,
        bundled: vec![],
        class_bytes: 0,
        capture_ns: 0,
        sent_at: now,
    };
    sim.sim.inject(now, 1, Msg::State(Box::new(duplicate)));
    sim.run();
    assert_eq!(sim.program(program).error(), None);
    assert_eq!(sim.report(program).result, Some(7 + N));
    assert_eq!(sim.check_idle(), Ok(()));
}

#[test]
fn a_duplicate_class_reply_resumes_nothing() {
    let duplicate = |sim: &mut SodSim, session| {
        let class = sim.sim.world.nodes[0].repo["App"].clone();
        let reply = Msg::ClassReply {
            session,
            class,
            bytes: 1_000,
        };
        let now = sim.sim.now();
        sim.sim.inject(now, 1, reply);
        sim.run();
    };
    let reference = {
        let (mut sim, ..) = sim_stepped_until(CodeShipping::Never, |_, _| true);
        sim.run();
        sim
    };
    assert_eq!(reference.report(0).result, Some(7 + N));

    // Once the segment runs, a duplicate reached a thread parked on
    // nothing and failed the program ("class-load resume failed").
    let (mut sim, program, session) = sim_stepped_until(CodeShipping::Never, running);
    duplicate(&mut sim, session);
    assert_eq!(sim.program(program).error(), None);
    assert_eq!(sim.report(program).result, Some(7 + N));
    assert_eq!(sim.check_idle(), Ok(()));

    // Between the last class and the restore, a duplicate scheduled a
    // second restore and counted the class wait twice.
    let loaded = |sim: &SodSim, _| {
        sim.sim.world.nodes[1].vm.has_class("App") && sim.sim.world.hosted(1)[0].2.is_none()
    };
    let (mut sim, program, session) = sim_stepped_until(CodeShipping::Never, loaded);
    duplicate(&mut sim, session);
    assert_eq!(sim.check_idle(), Ok(()));
    assert_eq!(
        sim.report(program).migrations,
        reference.report(0).migrations
    );
    assert_eq!(sim.report(program).result, Some(7 + N));
}
