//! A bounded search over the real engine: every order of delivery the
//! network could produce, with faults, of one small world, checked after
//! every delivery and at every end.
//!
//! The simulator has one event queue, so the engine's inputs are explicit:
//! a run is a function of the scenario and of which enabled event each step
//! delivers. `Sim::choices` lists the enabled set (the head, every event at
//! its time bound elsewhere, every later one, each the first on its link)
//! and `Sim::deliver_choice` delivers one member, optionally with one
//! fault: a drop, a duplicate, or a crash of its destination (before) or of
//! its source (after). A *choice sequence* names the steps that deviate
//! from the `(time, seq)` order or take a fault; the search replays the
//! scenario through `Scenario::run_with` once per sequence, depth first,
//! with at most `d` deviations and `f` faults (CHESS's delay bound).
//!
//! The world is one home and two workers, one program and its script of
//! three episodes, each plan from another source:
//! * the guest's own `sod_move(1)` ships its top frame to `w1`, where its
//!   class arrives on demand; it walks a list of home objects (`Shallow`,
//!   one fault each) and returns an object it created, so its flush is
//!   acknowledged before the value travels;
//! * a `MigrateNow` ships the chain `[(w1, 1), (w2, 1)]`: the lower segment
//!   waits for the upper one's value;
//! * a slice budget ships the whole stack to `w2`, whose top frame then
//!   roams to `w1` once (`sod_move`).
//!
//! Recovery is armed with a chaos plan whose one entry falls after the run,
//! under either retry policy.
//!
//! After every delivery, on the real home side (`Cluster::home_side`) and
//! the real sessions (`Cluster::hosted`):
//! 1. the home never resumes with a value from a session its episode does
//!    not hold;
//! 2. every live session belongs to its program's latest shipment;
//! 3. a deadline acts only on the episode that armed it (episodes counted
//!    here, by their freezes);
//! 4. every retired session is one an episode listed;
//! 5. a live session is never replaced by a second under its id;
//! 6. a program's end leaves no live session and an idle side.
//!
//! At every end: the run reaches idle and passes `check_idle` (which runs
//! inside every `Scenario::run_with`), and every program ends with its
//! fault-free value, or failed typed where a crash took its home down.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use sod::asm::builder::ClassBuilder;
use sod::net::{Fault, MS, SEC, US};
use sod::preprocess::preprocess_sod;
use sod::runtime::engine::HomeView;
use sod::runtime::msg::ReturnTarget;
use sod::runtime::{CodeShipping, Msg, NodeConfig, ProgramId, RetryPolicy, SessionId, SodSim};
use sod::scenario::{Chaos, Fleet, Plan, Scenario, When};
use sod::vm::class::ClassDef;
use sod::vm::instr::Cmp;
use sod::vm::value::{TypeOf, Value};
use sod::ScenarioReport;

/// Deliveries after which a run counts as not ending.
const MAX_STEPS: usize = 2_000;

/// The home's program: `main(n)` builds a list of `n` objects, offloads
/// their walk (`top`), runs a two-deep call (`lower` → `upper`) and then a
/// call that roams (`roam`), and sums the three values.
fn class() -> &'static ClassDef {
    static CLASS: OnceLock<ClassDef> = OnceLock::new();
    CLASS.get_or_init(|| {
        let spin = |m: &mut sod::asm::builder::MethodBuilder<'_>, label: &str, n: i64| {
            let out = format!("{label}_out");
            m.line();
            m.pushi(0).store("i");
            m.line();
            m.label(label);
            m.load("i").pushi(n).if_cmp(Cmp::Ge, &out);
            m.line();
            m.load("i").pushi(1).add().store("i").goto(label);
            m.line();
            m.label(&out);
        };
        let class = ClassBuilder::new("W")
            .field("val", TypeOf::Int)
            .field("next", TypeOf::Ref)
            .method("build", &["n"], |m| {
                m.line();
                m.pushnull().store("head");
                m.line();
                m.label("loop");
                m.load("n").ifz(Cmp::Le, "done");
                m.line();
                m.new_obj("W").store("node");
                m.line();
                m.load("node").load("n").putfield("val");
                m.line();
                m.load("node").load("head").putfield("next");
                m.line();
                m.load("node").store("head");
                m.line();
                m.load("n").pushi(1).sub().store("n").goto("loop");
                m.line();
                m.label("done");
                m.load("head").retv();
            })
            .method("top", &["head"], |m| {
                m.line();
                m.pushi(1).native("sod_move", 1).pop();
                m.line();
                m.pushi(0).store("acc");
                m.line();
                m.label("walk");
                m.load("head").ifnull("done");
                m.line();
                m.load("acc")
                    .load("head")
                    .getfield("val")
                    .add()
                    .store("acc");
                m.line();
                m.load("head").getfield("next").store("head");
                m.goto("walk");
                m.line();
                m.label("done");
                m.new_obj("W").store("out");
                m.line();
                m.load("out").load("acc").putfield("val");
                m.line();
                m.load("out").retv();
            })
            .method("upper", &["k"], |m| {
                spin(m, "spin", 20_000);
                m.load("k").pushi(1).add().retv();
            })
            .method("lower", &["k"], |m| {
                m.line();
                m.load("k").invoke("W", "upper", 1).store("r");
                m.line();
                m.load("r").pushi(2).mul().retv();
            })
            .method("roam", &["k"], |m| {
                spin(m, "first", 20_000);
                m.native("node_id", 0).pushi(2).if_cmp(Cmp::Ne, "stay");
                m.line();
                m.pushi(1).native("sod_move", 1).pop();
                m.line();
                m.label("stay");
                spin(m, "then", 1_000);
                m.load("k").pushi(3).add().retv();
            })
            .method("main", &["n"], |m| {
                m.line();
                m.load("n").invoke("W", "build", 1).store("list");
                m.line();
                m.load("list")
                    .invoke("W", "top", 1)
                    .getfield("val")
                    .store("x");
                m.line();
                m.load("x").invoke("W", "lower", 1).store("y");
                m.line();
                m.load("y").invoke("W", "roam", 1).store("z");
                m.line();
                m.load("x").load("y").add().load("z").add().retv();
            })
            .build()
            .expect("the search's guest verifies");
        preprocess_sod(&class).expect("the search's guest preprocesses")
    })
}

/// The world under `policy`: the program is a fleet of one, so a failure
/// is recorded on its report rather than aborting the run.
fn world(policy: RetryPolicy) -> Scenario {
    Scenario::new()
        .slice_ns(SLICE)
        .code_shipping(CodeShipping::Never)
        .node("home", NodeConfig::cluster("home"))
        .deploys(class())
        .node("w1", NodeConfig::cluster("w1"))
        .node("w2", NodeConfig::cluster("w2"))
        .fleet(
            Fleet::new("W", "main", vec![Value::Int(3)])
                .programs(1)
                .migrate(When::At(CHAIN_AT), Plan::chain(&[("w1", 1), ("w2", 1)]))
                .migrate(
                    When::OnCpuSliceBudget(WHOLE_AFTER),
                    Plan::whole_stack_to("w2"),
                ),
        )
        .chaos(
            Chaos::new()
                .restart_at(10 * SEC, "w1")
                .retry(policy)
                .migration_timeout(TIMEOUT),
        )
}

// The fault-free timeline these are set to (68 deliveries): episode 1
// runs from 0.4 to 9.2 ms; the chain's `MigrateNow` lands at 9.25 ms,
// while `upper` spins at home; episode 3 freezes at the start of the root
// thread's sixth slice, inside `roam`, and closes at 32.2 ms. The deadline
// outlasts the longest healthy episode (the third, 15.2 ms), so the
// fault-free run times nothing out, and the deadlines of episodes 1 and 2
// fall inside episode 3.
const CHAIN_AT: u64 = 9_250 * US;
const WHOLE_AFTER: u64 = 6;
const TIMEOUT: u64 = 20 * MS;
const SLICE: u64 = 50 * US;

/// The program's value: 1 + 2 + 3 walked, then `lower`, then `roam`.
const VALUE: i64 = 6 + 14 + 17;

const POLICIES: [RetryPolicy; 2] = [
    RetryPolicy::Retry { max_attempts: 2 },
    RetryPolicy::FallbackToHome,
];

/// One step that leaves the `(time, seq)` order or takes a fault: at
/// delivery `step`, choice `pick` of the enabled set, with `fault`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Choice {
    step: usize,
    pick: usize,
    fault: Option<Fault>,
}

impl Choice {
    fn cost(&self) -> (usize, usize) {
        (
            usize::from(self.pick > 0),
            usize::from(self.fault.is_some()),
        )
    }
}

/// What one replay found: the report (or why it has none), the first
/// violation, and every choice it offers past its last one.
struct Replay {
    report: Result<ScenarioReport, String>,
    violation: Option<String>,
    offers: Vec<Choice>,
    /// Each fault taken: what it did, to an event from which node to
    /// which.
    faulted: Vec<(Fault, usize, usize)>,
}

/// A home side as the checks keep it between deliveries.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Side {
    Idle,
    Planned,
    Frozen(u32, Vec<(usize, SessionId)>),
}

impl Side {
    fn of(view: HomeView<'_>) -> Self {
        match view {
            HomeView::Idle => Side::Idle,
            HomeView::Planned => Side::Planned,
            HomeView::Frozen { stamp, sessions } => Side::Frozen(stamp, sessions.to_vec()),
        }
    }
}

/// A live session: its node, program and thread (once restoring).
type Hosted = BTreeMap<SessionId, (usize, ProgramId, Option<usize>)>;

/// The per-state checks' memory: each program's side and its freezes so
/// far, the live sessions, every session an episode listed.
struct Checks {
    sides: Vec<Side>,
    freezes: Vec<u32>,
    hosted: Hosted,
    listed: BTreeSet<(usize, SessionId)>,
}

/// What the delivered event was, as far as the checks care.
enum Delivered {
    Deadline(ProgramId, u32),
    HomeReturn(ProgramId, SessionId),
    Other,
}

impl Delivered {
    fn of(msg: &Msg) -> Self {
        match *msg {
            Msg::MigrationTimeout { program, episode } => Delivered::Deadline(program, episode),
            Msg::SegmentReturn {
                program,
                session,
                target: ReturnTarget::Home { .. },
                ..
            } => Delivered::HomeReturn(program, session),
            _ => Delivered::Other,
        }
    }
}

fn hosted(sim: &SodSim) -> Hosted {
    let world = &sim.sim.world;
    let mut all = Hosted::new();
    for node in 0..world.nodes.len() {
        for (sid, program, tid, _) in world.hosted(node) {
            all.insert(sid, (node, program, tid));
        }
    }
    all
}

impl Checks {
    fn new(sim: &SodSim) -> Self {
        let programs = sim.sim.world.programs.len();
        Checks {
            sides: vec![Side::Idle; programs],
            freezes: vec![0; programs],
            hosted: hosted(sim),
            listed: BTreeSet::new(),
        }
    }

    /// The six checks, after `delivered` was delivered.
    fn after(&mut self, sim: &SodSim, delivered: &Delivered) -> Result<(), String> {
        let now = hosted(sim);
        for p in 0..self.sides.len() {
            let program = p as ProgramId;
            let side = Side::of(sim.sim.world.home_side(program));
            let before = std::mem::replace(&mut self.sides[p], side.clone());
            if let Side::Frozen(stamp, sessions) = &side {
                if !matches!(&before, Side::Frozen(s, _) if s == stamp) {
                    self.freezes[p] += 1;
                }
                self.listed.extend(sessions.iter().copied());
            }
            let acted = matches!(before, Side::Frozen(..)) && side != before;
            let open = self.freezes[p];
            match (delivered, &before) {
                (&Delivered::HomeReturn(q, sid), Side::Frozen(_, held))
                    if q == program && acted && !held.iter().any(|&(_, s)| s == sid) =>
                {
                    return Err(format!(
                        "1: the home resumed with a value from session {sid:#x}, which its \
                         episode does not hold"
                    ));
                }
                (&Delivered::Deadline(q, armed), _) if q == program && acted && armed != open => {
                    return Err(format!(
                        "3: the deadline armed for episode {armed} acted on episode {open}"
                    ));
                }
                _ => {}
            }
            let live = now.values().filter(|h| h.1 == program).count();
            if sim.program(program).is_done() && (side != Side::Idle || live > 0) {
                return Err(format!(
                    "6: program {p} ended with {live} live sessions and side {side:?}"
                ));
            }
        }
        for (&sid, &(node, program, _)) in &now {
            let latest = matches!(&self.sides[program as usize],
                Side::Frozen(_, sessions) if sessions.contains(&(node, sid)));
            if !latest {
                return Err(format!(
                    "2: live session {sid:#x} on node {node} is not of program {program}'s latest \
                     shipment"
                ));
            }
        }
        for (&sid, &(node, _, tid)) in &self.hosted {
            match now.get(&sid) {
                None if !self.listed.contains(&(node, sid)) => {
                    return Err(format!(
                        "4: retired session {sid:#x}, which no episode listed"
                    ));
                }
                Some(&(at, _, now_tid)) if at != node || (tid.is_some() && now_tid != tid) => {
                    return Err(format!(
                        "5: a second session under id {sid:#x} replaced the live one"
                    ));
                }
                _ => {}
            }
        }
        self.hosted = now;
        Ok(())
    }
}

/// The faults the network may do to an event from `src` to `dst`: lose,
/// duplicate or crash either end of a message between nodes; duplicate a
/// request from outside (a launch, a `MigrateNow`).
fn faults(src: usize, dst: usize, msg: &Msg) -> &'static [Fault] {
    match (src != dst, msg) {
        (true, _) => &[
            Fault::Drop,
            Fault::Duplicate,
            Fault::CrashDst,
            Fault::CrashSrc,
        ],
        (false, Msg::StartProgram { .. } | Msg::MigrateNow { .. }) => &[Fault::Duplicate],
        (false, _) => &[],
    }
}

/// Replay `world` along `choices`, checking every delivery; collect the
/// choices past the last one if `offer` says so.
fn replay(policy: RetryPolicy, choices: &[Choice], offer: bool) -> Replay {
    let from = choices.last().map_or(0, |c| c.step + 1);
    let (mut violation, mut offers, mut faulted) = (None, Vec::new(), Vec::new());
    let report = world(policy).run_with(|sim| {
        let mut checks = Checks::new(sim);
        let mut next = choices.iter().peekable();
        for step in 0.. {
            let enabled = sim.sim.choices();
            if enabled.is_empty() {
                return;
            }
            if step == MAX_STEPS {
                violation = Some("progress: delivering what is in flight does not end".into());
                return;
            }
            if offer && step >= from {
                for (pick, e) in enabled.iter().enumerate() {
                    let mut with = |fault| offers.push(Choice { step, pick, fault });
                    if pick > 0 {
                        with(None);
                    }
                    faults(e.src, e.dst, e.msg)
                        .iter()
                        .for_each(|&f| with(Some(f)));
                }
            }
            let (pick, fault) = match next.next_if(|c| c.step == step) {
                Some(c) => (c.pick, c.fault),
                None => (0, None),
            };
            let e = &enabled[pick];
            if let Some(f) = fault {
                faulted.push((f, e.src, e.dst));
            }
            // A dropped message, or one whose destination crashed first,
            // reaches no handler.
            let delivered = match fault {
                Some(Fault::Drop | Fault::CrashDst) => Delivered::Other,
                _ => Delivered::of(e.msg),
            };
            sim.sim.deliver_choice(pick, fault);
            if let Err(why) = checks.after(sim, &delivered) {
                violation = Some(format!("after delivery {step}: {why}"));
                return;
            }
        }
    });
    Replay {
        report: report.map_err(|e| e.to_string()),
        violation,
        offers,
        faulted,
    }
}

/// The end checks: a report, and each program's fault-free value, or a
/// typed failure the faults taken allow: the home crashed (a crash of node
/// 0). A duplicate allows none: a second object reply answers no fault
/// and is dropped.
fn at_the_end(run: &Replay) -> Option<String> {
    if let Some(v) = &run.violation {
        return Some(v.clone());
    }
    let report = match &run.report {
        Ok(report) => report,
        Err(e) => return Some(format!("leaf: {e}")),
    };
    let allowed = |e: &str| {
        run.faulted.iter().any(|&(fault, src, dst)| match fault {
            Fault::CrashDst => dst == 0 && e.contains("home node 0"),
            Fault::CrashSrc => src == 0 && e.contains("home node 0"),
            Fault::Duplicate | Fault::Drop => false,
        })
    };
    for (i, p) in report.programs().iter().enumerate() {
        match (&p.error, p.report.result) {
            (None, Some(VALUE)) => {}
            (Some(e), None) if allowed(e) => {}
            (error, result) => {
                return Some(format!(
                    "leaf: program {i} ended with {result:?} / {error:?}, not {VALUE}"
                ))
            }
        }
    }
    None
}

/// A search's outcome: how many runs it replayed, and the first violation
/// with the choice sequence that reaches it.
#[derive(Debug)]
struct Outcome {
    runs: usize,
    found: Option<(Vec<Choice>, String)>,
}

/// Depth-first over every choice sequence with at most `deviations`
/// choices off the `(time, seq)` order and at most `faults` faults.
fn search(policy: RetryPolicy, deviations: usize, faults: usize) -> Outcome {
    let mut out = Outcome {
        runs: 0,
        found: None,
    };
    let mut stack: Vec<Vec<Choice>> = vec![Vec::new()];
    while let Some(choices) = stack.pop() {
        let spent = choices.iter().fold((0, 0), |(d, f), c| {
            let (cd, cf) = c.cost();
            (d + cd, f + cf)
        });
        let offer = spent.0 < deviations || spent.1 < faults;
        let run = replay(policy, &choices, offer);
        out.runs += 1;
        if let Some(why) = at_the_end(&run) {
            out.found = Some((choices, why));
            return out;
        }
        for c in run.offers.into_iter().rev() {
            let (cd, cf) = c.cost();
            if spent.0 + cd <= deviations && spent.1 + cf <= faults {
                let mut deeper = choices.clone();
                deeper.push(c);
                stack.push(deeper);
            }
        }
    }
    out
}

const RETRY: RetryPolicy = RetryPolicy::Retry { max_attempts: 2 };

fn at(step: usize, pick: usize, fault: Option<Fault>) -> Choice {
    Choice { step, pick, fault }
}

/// Replay `choices` under `Retry`; it must end clean.
fn clean(choices: &[Choice]) -> ScenarioReport {
    let run = replay(RETRY, choices, false);
    assert_eq!(at_the_end(&run), None, "{choices:?}");
    run.report.expect("a clean run reports")
}

#[test]
fn the_fault_free_run_completes_every_planned_migration() {
    for policy in POLICIES {
        let run = replay(policy, &[], false);
        assert_eq!(at_the_end(&run), None, "{policy:?}");
        let report = run.report.expect("the fault-free run reports");
        let p = &report.programs()[0];
        // One top frame, a chain of two, a whole stack (two segments:
        // `whole_stack_to` ships the top frame apart) and its roam.
        assert_eq!(p.report.migrations.len(), 6, "{policy:?}");
        assert_eq!(p.report.object_faults, 3, "{policy:?}");
        assert_eq!(report.cluster.chaos.timeouts, 0, "{policy:?}");
    }
}

/// Every sequence with one deviation and no fault, and with one fault and
/// no deviation, under both policies. The run counts pin the world, the
/// engine's event order and the enabled sets: a change that moves one
/// says so here.
#[test]
fn one_deviation_or_one_fault_is_safe_and_ends() {
    let mut runs = Vec::new();
    for policy in POLICIES {
        for (d, f) in [(1, 0), (0, 1)] {
            let out = search(policy, d, f);
            assert!(out.found.is_none(), "{policy:?} d={d} f={f}: {out:?}");
            runs.push(out.runs);
        }
    }
    assert_eq!(runs, [63, 95, 63, 95]);
}

/// The bounds in the order the go bound searches them: cheaper sequences
/// first, so a violation is reported with the fewest deviations and
/// faults that reach it.
const LEVELS: [(usize, usize); 6] = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)];

/// Search `levels` in turn under both policies, printing each level's
/// runs; stop at the first violation, which it returns with the runs so
/// far.
fn search_levels(levels: &[(usize, usize)]) -> (usize, Option<String>) {
    let mut runs = 0;
    for &(d, f) in levels {
        for policy in POLICIES {
            let out = search(policy, d, f);
            runs += out.runs;
            println!("d <= {d}, f <= {f}, {policy:?}: {} runs", out.runs);
            if let Some((choices, why)) = out.found {
                return (runs, Some(format!("{policy:?} {choices:?}: {why}")));
            }
        }
    }
    (runs, None)
}

/// CI's bound, every level up to one deviation and one fault and up to two
/// deviations and no fault (7–14 s in release on a 2-core x86-64 host):
/// `cargo test --release --test protocol_search -- --ignored the_ci_bound
/// --nocapture`.
#[test]
#[ignore]
fn the_ci_bound_finds_nothing() {
    assert_eq!(search_levels(&LEVELS[..5]), (13_252, None));
}

/// The go bound, every level up to two deviations and one fault (two to
/// five minutes in release on a 2-core x86-64 host); with a bug put back,
/// it names the cheapest sequence that finds it.
#[test]
#[ignore]
fn the_go_bound_finds_nothing() {
    assert_eq!(search_levels(&LEVELS), (243_515, None));
}

// The first sequence the go bound found for each of five bugs put back
// into the engine (README, "The protocol search"), replayed on the engine
// as it is.

/// Deadlines stamped with their attempt count: episode 1's, armed at its
/// first shipment, re-shipped episode 3 — in the fault-free run, where
/// the deadlines of episodes 1 and 2 both fall inside episode 3.
#[test]
fn a_deadline_acts_only_on_the_episode_that_armed_it() {
    let mut inside = Vec::new();
    let report = world(RETRY)
        .run_with(|sim| {
            while let Some(c) = sim.sim.choices().first() {
                if let Msg::MigrationTimeout { episode, .. } = *c.msg {
                    if let HomeView::Frozen { stamp: 3, .. } = sim.sim.world.home_side(0) {
                        inside.push(episode);
                    }
                }
                sim.sim.deliver_choice(0, None);
            }
        })
        .expect("the fault-free run reports");
    assert_eq!(inside, [1, 2]);
    assert_eq!(report, clean(&[]));
    assert_eq!(report.cluster.chaos.timeouts, 0);
}

/// An end that left its episode open: the home crashes just after it
/// ships episode 1's segment (check 6).
#[test]
fn a_program_that_fails_closes_its_episode() {
    let report = clean(&[at(5, 0, Some(Fault::CrashSrc))]);
    let error = report.programs()[0].error.as_deref();
    assert_eq!(error, Some("home node 0 crashed"));
}

/// A `State` that replaced a live session: episode 1's `State`, doubled
/// (the state ledger at idle).
#[test]
fn a_duplicate_state_leaves_its_session_alone() {
    let report = clean(&[at(5, 0, Some(Fault::Duplicate))]);
    assert!(report.cluster.total_lost().state > 0, "the copy is lost");
}

/// A duplicate `ClassReply` that resumed a thread not parked on it:
/// episode 1's class request, doubled, and its second reply delivered
/// after the restore began (the program's value at the end).
#[test]
fn a_second_class_reply_resumes_nothing() {
    let report = clean(&[at(6, 0, Some(Fault::Duplicate)), at(9, 1, None)]);
    assert_eq!(report.programs()[0].report.migrations.len(), 6);
}

/// A second `StartProgram` that spawned a second root thread: the launch,
/// doubled (the residue at idle).
#[test]
fn a_second_launch_spawns_nothing() {
    let twice = clean(&[at(0, 0, Some(Fault::Duplicate))]);
    assert_eq!(twice.programs(), clean(&[]).programs());
}

/// A run is a function of its choice sequence: one sequence replays to one
/// report, and the empty sequence is `Scenario::run`'s.
#[test]
fn a_choice_sequence_replays_to_one_report() {
    let choices = [at(6, 0, Some(Fault::Duplicate)), at(9, 1, None)];
    let once = replay(RETRY, &choices, false).report;
    assert_eq!(once, replay(RETRY, &choices, false).report);
    assert_ne!(once, replay(RETRY, &[], false).report);
    let run = world(RETRY).run().map_err(|e| e.to_string());
    assert_eq!(replay(RETRY, &[], false).report, run);
}
