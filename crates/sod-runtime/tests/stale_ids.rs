//! A retired session's id and its thread's id outlive it in whatever was
//! already addressed to them — a duplicated or late return, class reply,
//! object reply, restore timer, flush ack, run slice or host reply. Once
//! the session is gone and its thread slot has a new tenant, none of them
//! may touch anything: a session id is never reused, and a thread id names
//! its slot *and* the generation the slot was let under, so a stale one
//! never reaches the slot's next tenant.
//!
//! The run is the repo benchmark's `stack-churn` shape at test size. It
//! steps until a finished program's session is retired and its thread's
//! slot runs another segment, injects every stale message there, and must
//! end exactly as the same run without them — the injected deliveries
//! counted, nothing else moved.

use std::collections::BTreeMap;
use std::sync::Arc;

use sod_net::{Topology, MS};
use sod_runtime::msg::{HostReply, ReturnTarget};
use sod_runtime::{
    Cluster, MigrationPlan, Msg, Node, NodeConfig, ProgramId, ScalePolicy, SessionId, SodSim,
};
use sod_vm::capture::CapturedValue;
use sod_vm::class::ClassDef;
use sod_vm::interp::slot_of;
use sod_vm::value::Value;
use sod_vm::wire::FrameBatch;

mod common;
use common::deep_class;
use sod::scenario::{Fleet, Plan, Pool, Scenario, When};
use sod::{ArrivalSchedule, ScenarioReport};

const DEPTH: i64 = 32;

/// Sixty programs in three bursts, whole stacks to an autoscaled pool.
fn churn(class: &ClassDef) -> Scenario {
    Scenario::new()
        .slice_ns(2_000)
        .cpu_contention(true)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(class)
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(class)
        .pool(
            Pool::new("workers")
                .base(1)
                .max(8)
                .scale_policy(ScalePolicy::QueueDepth { high: 2, low: 1 })
                .cold_start(2 * MS),
        )
        .fleet(
            Fleet::new("Deep", "down", vec![Value::Int(DEPTH), Value::Int(400)])
                .programs(60)
                .across(&["edge0", "edge1"])
                .arrivals(ArrivalSchedule::bursty(20, 15 * MS).with_jitter(MS), 42)
                .migrate(When::OnCpuSliceBudget(3), Plan::whole_stack_to("workers")),
        )
}

/// A worker session as the run last saw it alive.
#[derive(Clone, Copy)]
struct Seen {
    node: usize,
    program: ProgramId,
    tid: usize,
    return_to: ReturnTarget,
}

/// Step `sim` until some session it saw alive has retired, its program
/// has finished, and its thread's slot runs another live session's
/// thread, runnable right now; return the retired session.
fn retired_with_slot_reused(sim: &mut SodSim) -> (SessionId, Seen) {
    let mut seen: BTreeMap<SessionId, Seen> = BTreeMap::new();
    loop {
        let world = &sim.sim.world;
        let mut live: BTreeMap<SessionId, Seen> = BTreeMap::new();
        for node in 0..world.nodes.len() {
            for (sid, program, tid, return_to) in world.hosted(node) {
                if let Some(tid) = tid {
                    let s = Seen {
                        node,
                        program,
                        tid,
                        return_to,
                    };
                    live.insert(sid, s);
                }
            }
        }
        seen.extend(&live);
        let runs_in_slot_of = |old: &Seen| {
            live.values().any(|new| {
                let vm = &world.nodes[new.node].vm;
                new.node == old.node
                    && slot_of(new.tid) == slot_of(old.tid)
                    && vm.thread(new.tid).is_ok_and(|t| t.is_runnable())
            })
        };
        let reused = seen.iter().find(|(sid, s)| {
            !live.contains_key(*sid) && sim.program(s.program).is_done() && runs_in_slot_of(s)
        });
        if let Some((&sid, &s)) = reused {
            return (sid, s);
        }
        assert!(sim.sim.step(), "no retired session's slot was reused");
    }
}

#[test]
fn stale_messages_for_a_retired_session_touch_nothing() {
    let class = deep_class();
    let reference = churn(&class).run().expect("fleet runs");

    let mut injected: Vec<usize> = Vec::new();
    let report: ScenarioReport = churn(&class)
        .run_with(|sim| {
            let (sid, s) = retired_with_slot_reused(sim);
            let to = match s.return_to {
                ReturnTarget::Home => sim.program(s.program).home,
                ReturnTarget::Session { node, .. } => node,
            };
            let messages = [
                (
                    to,
                    Msg::SegmentReturn {
                        program: s.program,
                        session: sid,
                        target: s.return_to,
                        retval: Some(CapturedValue::Int(1)),
                        pop_frames: DEPTH as usize + 1,
                    },
                ),
                (
                    s.node,
                    Msg::ClassReply {
                        session: sid,
                        class: Arc::new(class.clone()),
                        bytes: 1_000,
                    },
                ),
                (
                    s.node,
                    Msg::ObjectReply {
                        session: sid,
                        batch: FrameBatch::new(),
                    },
                ),
                (s.node, Msg::BeginRestore { session: sid }),
                (
                    s.node,
                    Msg::FlushAck {
                        session: sid,
                        assigned: Vec::new(),
                    },
                ),
                (s.node, Msg::RunSlice { tid: s.tid }),
                (
                    s.node,
                    Msg::HostDone {
                        tid: s.tid,
                        call: 1,
                        reply: HostReply::Int(0),
                    },
                ),
            ];
            let now = sim.sim.now();
            for (dst, msg) in messages {
                injected.push(dst);
                sim.sim.inject(now, dst, msg);
            }
            sim.run();
        })
        .expect("fleet runs");

    // Every delivery counts as an event at its node; nothing else moves.
    let mut expected = reference;
    for dst in injected {
        expected.cluster.per_node[dst].events += 1;
    }
    assert!(report == expected, "a stale message changed the run");
}

/// A `MigrateNow` naming `program`. Only `SodSim::migrate` builds one, so
/// it is taken from a one-node driver's queue and renamed.
fn migrate_now(program: ProgramId, plan: MigrationPlan) -> Msg {
    let mut cluster = Cluster::new(vec![Node::new(NodeConfig::cluster("a"))]);
    let p = cluster.add_program(0, "Deep", "down", vec![]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(1));
    sim.migrate(p, When::At(0), plan);
    let mut msg = sim.sim.choices()[0].msg.clone();
    if let Msg::MigrateNow { program: named, .. } = &mut msg {
        *named = program;
    }
    msg
}

/// A message naming a program, pool or node the run never had is dropped
/// at dispatch: every one of these indexed past a table before.
#[test]
fn messages_naming_no_program_pool_or_node_touch_nothing() {
    use sod_runtime::msg::{FsOp, SegmentInfo, StateMsg};
    let class = deep_class();
    let reference = churn(&class).run().expect("fleet runs");

    let mut injected = 0;
    let report = churn(&class)
        .run_with(|sim| {
            for _ in 0..5_000 {
                sim.sim.step();
            }
            let (p, bad) = (0, 9_999);
            let info = SegmentInfo {
                program: bad,
                session: 1,
                home: 0,
                return_to: ReturnTarget::Home,
                nframes: 1,
                home_pop_frames: 1,
                wait_for_return: false,
            };
            let state = StateMsg {
                info,
                state: Default::default(),
                bundled: vec![],
                class_bytes: 0,
                capture_ns: 0,
                sent_at: 0,
            };
            let plan = MigrationPlan::top_to(1, 1);
            let request = |requester, program| Msg::ClassRequest {
                session: 1,
                requester,
                name: "Deep".into(),
                program,
            };
            let fetch = |requester, program| Msg::ObjectRequest {
                session: 1,
                requester,
                home_id: 0,
                program,
            };
            let messages = [
                Msg::StartProgram { program: bad },
                migrate_now(bad, plan),
                Msg::MigrationTimeout {
                    program: bad,
                    episode: 1,
                },
                Msg::PoolTick { pool: 9 },
                Msg::PoolReady { pool: 9 },
                request(99, p),
                request(0, bad),
                fetch(99, p),
                fetch(0, bad),
                Msg::Flush {
                    program: p,
                    batch: FrameBatch::new(),
                    ack_to: Some((99, 1)),
                },
                Msg::FsRead {
                    requester: 99,
                    tid: 0,
                    call: 1,
                    path: "/x".into(),
                    op: FsOp::Read,
                },
                Msg::State(Box::new(state)),
            ];
            let now = sim.sim.now();
            for msg in messages {
                injected += 1;
                sim.sim.inject(now, 0, msg);
            }
            sim.run();
        })
        .expect("fleet runs");

    // Every delivery counts as an event at its node; nothing else moves.
    let mut expected = reference;
    expected.cluster.per_node[0].events += injected;
    assert!(
        report == expected,
        "a message naming nothing changed the run"
    );
}
