//! Every handler is total: a forged message, landing at any node in any
//! state a small row passes through, never panics the engine, never hangs
//! it, and never changes the value of a program it does not name.
//!
//! Each swept row is stepped once, delivery by delivery
//! (`deliver_choice(0, None)`), and its states are told apart by what the
//! protocol search reads: every program's home side and every node's
//! sessions. At the first step `k` of each distinct state, every variant
//! the row delivers is forged from its first delivery there, with its ids
//! taken from a small vocabulary (a live, an ended and a never-issued
//! program; a live, a retired and a never-minted session; the current, a
//! past and a future episode), and injected at each node at `now`. Each
//! forged run must:
//! * reach idle within its event budget and pass `check_idle`;
//! * end every program it does not name with its unforged value, and the
//!   one it names with its value or a typed error;
//! * if `Cluster::admit` refuses the forgery, end `==` the unforged run
//!   but for the one event the receiving node counted.
//!
//! A forgery the engine admits is credited as sent where it is injected,
//! as the network credits a duplicate, so the byte ledger can close.

use std::collections::BTreeSet;

use crate::{assert_same, committed, field, scenario, variant, MSGS};
use sod::net::World;
use sod::runtime::engine::HomeView;
use sod::runtime::msg::ReturnTarget;
use sod::runtime::msg::{FsOp, HostReply};
use sod::runtime::{Msg, ProgramId, SessionId, SodSim};
use sod::vm::interp::{ParkReason, ThreadState};
use sod::ScenarioReport;

/// The rows swept: small ones whose committed `msgs=` masks together cover
/// every variant. The first, whose flush, acknowledged and forged away
/// from home, returns a wrong value, is tier-1's.
const SWEPT: [&str; 10] = [
    "returned_object",
    "single_migration",
    "chain",
    "whole_stack",
    "object_walk",
    "roaming",
    "nfs_pulls",
    "on_oom",
    "client_requests",
    "pool_burst",
];

/// The ids a forgery is built from, as they stand at one state.
struct Vocabulary {
    nodes: usize,
    programs: Vec<ProgramId>,
    sessions: Vec<SessionId>,
    episodes: Vec<u32>,
}

/// A row stepped once, unforged: its report and deliveries, each kept
/// state's step with the vocabulary there, and the first delivery of each
/// variant.
struct Walk {
    report: ScenarioReport,
    deliveries: usize,
    states: Vec<(usize, Vocabulary)>,
    templates: Vec<Msg>,
}

/// What a forgery lands in: every program's home side, every node's
/// sessions, and the state of every thread of theirs (so each fault of a
/// walk, each host call, is a state of its own).
fn signature(sim: &SodSim) -> String {
    let world = &sim.sim.world;
    let state = |n: usize, tid| world.nodes[n].vm.thread(tid).map(|t| &t.state).ok();
    let sides = (0..world.programs.len()).map(|p| {
        let (program, side) = (&world.programs[p], world.home_side(p as u32));
        let root = program.home_tid().and_then(|tid| state(program.home, tid));
        format!("{side:?} {root:?}")
    });
    let hosted = (0..world.nodes.len()).map(|n| {
        let thread = |tid| state(n, tid);
        let hosted = world.hosted(n).into_iter();
        let hosted = hosted.map(|h| (h.0, h.1, h.3, h.2.and_then(thread)));
        format!("{:?}", hosted.collect::<Vec<_>>())
    });
    sides.chain(hosted).collect::<Vec<_>>().join(";")
}

/// Every session live on any node, with its program.
fn live_sessions(sim: &SodSim) -> Vec<(SessionId, ProgramId)> {
    let world = &sim.sim.world;
    let hosted = (0..world.nodes.len()).flat_map(|n| world.hosted(n));
    hosted.map(|(sid, program, ..)| (sid, program)).collect()
}

/// Step `row` once, unforged, keeping the first step of each distinct
/// state with the ids there: the first live and the first ended program,
/// the first live and a retired session, and the episodes around the
/// latest freeze, each beside one nobody issued.
fn walk(row: &str) -> Walk {
    let (mut states, mut templates) = (Vec::new(), Vec::<Option<Msg>>::new());
    let (mut seen, mut signatures) = (BTreeSet::new(), BTreeSet::new());
    let (mut freezes, mut deliveries) = (0, 0);
    let report = scenario(row).run_with(|sim| {
        templates.resize(MSGS.split_whitespace().count(), None);
        while let Some(next) = sim.sim.choices().first().map(|c| c.msg.clone()) {
            let world = &sim.sim.world;
            for p in 0..world.programs.len() as u32 {
                if let HomeView::Frozen { stamp, .. } = world.home_side(p) {
                    freezes = freezes.max(stamp);
                }
            }
            let live = live_sessions(sim);
            seen.extend(live.iter().map(|l| l.0));
            if signatures.insert(signature(sim)) {
                let done = |p: &u32| sim.program(*p).is_done();
                let ids = 0..world.programs.len() as u32;
                let mut programs: Vec<ProgramId> =
                    ids.clone().filter(|p| !done(p)).take(1).collect();
                programs.extend(ids.filter(done).take(1));
                programs.push(world.programs.len() as u32);
                let retired = seen.iter().find(|s| !live.iter().any(|l| l.0 == **s));
                let mut sessions: Vec<SessionId> = live.first().map(|l| l.0).into_iter().collect();
                sessions.extend(retired.copied());
                sessions.push(SessionId::MAX);
                let mut episodes = vec![freezes.saturating_sub(1), freezes, freezes + 1];
                episodes.dedup();
                let ids = Vocabulary {
                    nodes: world.nodes.len(),
                    programs,
                    sessions,
                    episodes,
                };
                states.push((deliveries, ids));
            }
            templates[variant(&next) as usize].get_or_insert(next);
            sim.sim.deliver_choice(0, None);
            deliveries += 1;
        }
    });
    Walk {
        report: report.unwrap_or_else(|e| panic!("{row}: the unforged run failed: {e}")),
        deliveries,
        states,
        templates: templates.into_iter().flatten().collect(),
    }
}

/// Give `m` the program `p`, session `s` and episode `e` wherever it names
/// one, and say which it named.
fn set_ids(m: &mut Msg, p: ProgramId, s: SessionId, e: u32) -> String {
    let (named_p, named_s) = (format!("program {p}"), format!("session {s:#x}"));
    let both = format!("{named_p}, {named_s}");
    match m {
        Msg::StartProgram { program }
        | Msg::MigrateNow { program, .. }
        | Msg::CaptureDone { program } => {
            *program = p;
            named_p
        }
        Msg::MigrationTimeout { program, episode } => {
            (*program, *episode) = (p, e);
            format!("{named_p}, episode {e}")
        }
        Msg::BeginRestore { session }
        | Msg::ClassReply { session, .. }
        | Msg::ObjectReply { session, .. }
        | Msg::FlushAck { session, .. } => {
            *session = s;
            named_s
        }
        Msg::ClassRequest {
            session, program, ..
        }
        | Msg::ObjectRequest {
            session, program, ..
        } => {
            (*session, *program) = (s, p);
            both
        }
        Msg::State(state) => {
            (state.info.session, state.info.program) = (s, p);
            both
        }
        Msg::Flush {
            program, ack_to, ..
        } => {
            *program = p;
            match ack_to {
                Some((_, sid)) => {
                    *sid = s;
                    both
                }
                None => named_p,
            }
        }
        Msg::SegmentReturn {
            program,
            session,
            target,
            ..
        } => {
            (*program, *session) = (p, s);
            if let ReturnTarget::Session { session, .. } = target {
                *session = s;
            }
            both
        }
        _ => "no ids".into(),
    }
}

/// The programs `m`, landing at `node`, names: by id, by a live session's
/// id, or by a thread it resumes.
fn names(sim: &SodSim, node: usize, m: &Msg) -> BTreeSet<ProgramId> {
    let world = &sim.sim.world;
    let (program, session, thread) = match m {
        Msg::StartProgram { program }
        | Msg::MigrateNow { program, .. }
        | Msg::CaptureDone { program }
        | Msg::MigrationTimeout { program, .. } => (Some(*program), None, None),
        Msg::BeginRestore { session }
        | Msg::ClassReply { session, .. }
        | Msg::ObjectReply { session, .. }
        | Msg::FlushAck { session, .. } => (None, Some(*session), None),
        Msg::ClassRequest {
            session, program, ..
        }
        | Msg::ObjectRequest {
            session, program, ..
        }
        | Msg::SegmentReturn {
            session, program, ..
        } => (Some(*program), Some(*session), None),
        Msg::State(state) => (Some(state.info.program), Some(state.info.session), None),
        Msg::Flush {
            program, ack_to, ..
        } => (Some(*program), ack_to.map(|a| a.1), None),
        Msg::RunSlice { tid } | Msg::HostDone { tid, .. } | Msg::FsData { tid, .. } => {
            (None, None, Some((node, *tid)))
        }
        Msg::FsRead { requester, tid, .. } => (None, None, Some((*requester, *tid))),
        _ => (None, None, None),
    };
    let mut named: BTreeSet<ProgramId> = program.into_iter().collect();
    let sessions = live_sessions(sim).into_iter();
    named.extend(sessions.filter(|l| Some(l.0) == session).map(|l| l.1));
    if let Some((at, tid)) = thread.filter(|t| t.0 < world.nodes.len()) {
        let workers = world.hosted(at).into_iter();
        named.extend(workers.filter(|h| h.2 == Some(tid)).map(|h| h.1));
        let roots = 0..world.programs.len() as u32;
        let p = |p: &u32| {
            world.programs[*p as usize].home == at && sim.program(*p).home_tid() == Some(tid)
        };
        named.extend(roots.filter(p));
    }
    named
}

/// Forge every template of `w` at every node in every kept state of `row`,
/// checking each run; the number of runs.
fn sweep(row: &str) -> usize {
    let w = walk(row);
    let mut runs = 0;
    for (k, ids) in &w.states {
        for template in &w.templates {
            let mut forgeries: Vec<(Msg, String)> = Vec::new();
            for &p in &ids.programs {
                for &s in &ids.sessions {
                    for &e in &ids.episodes {
                        let mut m = template.clone();
                        let named = set_ids(&mut m, p, s, e);
                        if !forgeries.iter().any(|f| f.1 == named) {
                            forgeries.push((m, named));
                        }
                    }
                }
            }
            for node in 0..ids.nodes {
                for (m, ids) in &forgeries {
                    let name = MSGS
                        .split_whitespace()
                        .nth(variant(m) as usize)
                        .unwrap_or("?");
                    let at = format!("{row}: k={k}, {name} at node {node}, {ids}");
                    forge(&w, row, *k, node, m.clone(), &at);
                    runs += 1;
                }
            }
        }
    }
    runs
}

/// One forged run: replay to step `k`, inject `m` at `node`, run out the
/// budget, and check it (see the module docs).
fn forge(w: &Walk, row: &str, k: usize, node: usize, m: Msg, at: &str) {
    let (mut refused, mut idle, mut named, mut ends) = (false, Ok(()), BTreeSet::new(), Vec::new());
    let budget = 10 * w.deliveries + 1_000;
    let programs = w.report.programs().iter();
    let unforged: Vec<_> = programs
        .map(|p| (p.error.clone(), p.report.result))
        .collect();
    let report = scenario(row).run_with(|sim| {
        for _ in 0..k {
            sim.sim.deliver_choice(0, None);
        }
        named = names(sim, node, &m);
        refused = !sim.sim.world.admit(node, &m);
        if !refused {
            sim.sim.world.on_duplicated(node, node, &m);
        }
        let now = sim.sim.now();
        sim.sim.inject(now, node, m);
        for _ in 0..budget {
            if !sim.sim.step() {
                break;
            }
        }
        idle = sim.check_idle();
        let programs = 0..sim.sim.world.programs.len() as u32;
        ends = programs
            .map(|p| {
                (
                    sim.program(p).error().map(str::to_string),
                    sim.report(p).result,
                )
            })
            .collect();
    });
    if let Err(e) = idle {
        panic!("{at}: check_idle: {e}");
    }
    for (p, (end, want)) in ends.iter().zip(&unforged).enumerate() {
        let typed = named.contains(&(p as u32)) && end.0.is_some() && end.1.is_none();
        assert!(
            end == want || typed,
            "{at}: program {p} ended {end:?}, not {want:?}"
        );
    }
    if refused {
        let mut report = report.unwrap_or_else(|e| panic!("{at}: refused, yet {e}"));
        report.cluster.per_node[node].events -= 1;
        assert_same(&report, &w.report, &format!("{at}: refused"));
    }
}

#[test]
fn the_swept_rows_reach_every_msg_variant() {
    let bits = |row| u32::from_str_radix(field(committed(row), "msgs"), 16).expect("msgs= is hex");
    let reached = SWEPT.iter().fold(0, |acc, row| acc | bits(row));
    let missing: Vec<&str> = MSGS
        .split_whitespace()
        .enumerate()
        .filter_map(|(i, variant)| (reached & (1 << i) == 0).then_some(variant))
        .collect();
    assert!(missing.is_empty(), "no swept row delivers {missing:?}");
}

#[test]
fn every_forgery_in_returned_object_is_handled() {
    sweep(SWEPT[0]);
}

#[test]
#[ignore = "the full bound: every swept row, run in release"]
fn the_full_bound_finds_nothing() {
    let runs: Vec<usize> = SWEPT.iter().map(|row| sweep(row)).collect();
    println!(
        "forged runs per row: {runs:?}, {} in all",
        runs.iter().sum::<usize>()
    );
}

/// One forgery a sweep found, kept: `row`'s first delivery that `pick`
/// matches, given ids `(p, s, e)` and injected at `node` at step `k`.
fn found(row: &str, k: usize, node: usize, pick: fn(&Msg) -> bool, ids: (u32, SessionId, u32)) {
    let w = walk(row);
    let template = w.templates.iter().find(|m| pick(m));
    let mut m = template.expect("the row delivers it").clone();
    let ids = set_ids(&mut m, ids.0, ids.1, ids.2);
    forge(
        &w,
        row,
        k,
        node,
        m,
        &format!("{row}: k={k}, at node {node}, {ids}"),
    );
}

/// The live session's `State`, delivered to the home while the session
/// runs on the worker, used to restore a second copy there: the episode
/// lists where each session runs, not only its id.
#[test]
fn a_state_restores_only_where_its_episode_sent_it() {
    let live = (1 << 32) | 1;
    found(
        "single_migration",
        11,
        0,
        |m| matches!(m, Msg::State(_)),
        (0, live, 0),
    );
}

/// A file read delivered to the client, which does not hold the file,
/// answered "no match" to the read in flight to the server.
#[test]
fn a_file_read_lands_only_at_the_node_serving_its_path() {
    found(
        "nfs_pulls",
        0,
        0,
        |m| matches!(m, Msg::FsRead { .. }),
        (0, 0, 0),
    );
}

/// A reply that names an earlier host call of the thread resumes nothing:
/// the search, parked on a later file, still counts every match.
#[test]
fn a_host_reply_answers_only_the_call_it_names() {
    let report = scenario("nfs_pulls").run_with(|sim| {
        let (tid, call) = loop {
            let tid = sim.program(0).home_tid().unwrap_or(usize::MAX);
            if let Ok(t) = sim.sim.world.nodes[0].vm.thread(tid) {
                let searching = matches!(&t.state,
                    ThreadState::Parked(ParkReason::HostCall { name, .. }) if name == "fs_search");
                if searching && t.host_calls > 1 {
                    break (tid, t.host_calls - 1);
                }
            }
            assert!(sim.sim.step(), "the search never parked on a later read");
        };
        let stale = Msg::FsData {
            tid,
            call,
            bytes: 0,
            op: FsOp::Search,
            result: HostReply::Int(-1),
        };
        let now = sim.sim.now();
        sim.sim.inject(now, 0, stale);
        sim.run();
    });
    let report = report.expect("a stale reply is dropped");
    assert_eq!(
        report.first().result,
        crate::report("nfs_pulls").first().result
    );
}
