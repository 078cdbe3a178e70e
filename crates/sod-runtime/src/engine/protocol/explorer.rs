//! An explicit-state explorer for [`home`] and [`worker`]: breadth-first,
//! from every state of the fault-free run, over every interleaving of a
//! small world to a depth bound, with canonical-state hashing.
//!
//! The world is one home (node 0) and two workers (1, 2), one program and
//! its script of plans: `top_to(1, 1)`, whose segment arrives at node 1
//! missing a class and returns a worker-created object (its flush is
//! acknowledged before the value travels); the chain `[(1, 1), (2, 1)]`,
//! whose lower segment waits for the upper one's value; and the whole
//! stack to node 2, whose top segment roams to node 1 once (`sod_move`).
//! The recovery policy is `Retry { max_attempts: 2 }` or `FallbackToHome`.
//! The handlers are modelled as the engine's are — decode, step, apply —
//! but the steps are the real functions. The network delivers what is in
//! flight in any order and may drop one message and duplicate one; a
//! worker may crash once and restart; the home may crash; a deadline may
//! fire at any point after it is armed.
//!
//! Checked in every state: the home never resumes with a value from a
//! session its episode does not hold; every live session belongs to the
//! latest shipment; a deadline acts only on the episode that armed it;
//! every retired session is one an episode listed; a duplicate never
//! creates a second session under one id; the program's end leaves no
//! live session and an idle side. And progress: from every reachable
//! state, delivering everything in flight with no further fault ends the
//! program finished or failed, failed only if its home crashed. A
//! violation prints the trace that reaches it.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

use sod_vm::idhash::{IdHasher, IdMap, IdSet};

use super::*;
use crate::msg::MigrationPlan;

type Sid = SessionId;

/// Where a segment's value goes.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
enum Target {
    Home,
    Session(usize, Sid),
}

/// The staged segment `S`: what the modelled handlers need to ship it.
#[derive(Clone, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
struct Seg {
    dest: usize,
    session: Sid,
    ret: Target,
    wait: bool,
    /// The guest calls `sod_move(dest)` once it runs.
    moves: Option<usize>,
    /// It returns a worker-created object: the flush is acknowledged.
    ack: bool,
    /// Its class is shipped on demand.
    class: bool,
}

/// A message or timer in flight, in the order the fault-free run delivers
/// them (a deadline last, as the engine's outlives a healthy episode).
#[derive(Clone, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
enum M {
    HomeRun,
    CaptureDone,
    State(Seg),
    ClassRequest(usize, Sid),
    ClassReply(usize, Sid),
    BeginRestore(usize, Sid),
    Run(usize, Sid),
    Flush(Option<(usize, Sid)>),
    FlushAck(usize, Sid),
    Return(Target, Sid),
    /// A deadline, with the episode the model counted when it was armed.
    Deadline(u32, u32),
}

impl M {
    /// Where it is delivered.
    fn node(&self) -> usize {
        match *self {
            M::HomeRun | M::CaptureDone | M::Deadline(..) | M::ClassRequest(..) | M::Flush(_) => 0,
            M::Return(Target::Home, _) => 0,
            M::State(ref seg) => seg.dest,
            M::Return(Target::Session(n, _), _) => n,
            M::ClassReply(n, _) | M::BeginRestore(n, _) | M::Run(n, _) | M::FlushAck(n, _) => n,
        }
    }

    /// Whether it crosses the network (a timer cannot be lost or doubled).
    fn sent(&self) -> bool {
        matches!(
            self,
            M::State(_)
                | M::ClassRequest(..)
                | M::ClassReply(..)
                | M::Flush(_)
                | M::FlushAck(..)
                | M::Return(..)
        )
    }
}

#[derive(Clone, Copy, Debug)]
enum Action {
    Deliver(usize),
    Drop(usize),
    Duplicate(usize),
    Crash(usize),
    Restart(usize),
    HomeCrash,
}

/// A live worker session: its segment and its phase (`T` is nothing here).
#[derive(Clone, Debug)]
struct Sess {
    id: Sid,
    seg: Seg,
    phase: WorkerPhase<()>,
}

/// A node: up or crashed, whether it holds the class shipped on demand,
/// its session-id counter, its live sessions.
#[derive(Clone, Debug, Default)]
struct Host {
    up: bool,
    has_class: bool,
    minted: u64,
    sessions: Vec<Sess>,
}

#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
enum End {
    Running,
    Finished,
    Failed,
}

/// Faults still allowed.
#[derive(Clone, Copy, Debug, Hash)]
struct Budget {
    drops: u8,
    duplicates: u8,
    crashes: u8,
    home_crashes: u8,
}

#[derive(Clone, Debug)]
struct World {
    side: HomeSide<Seg>,
    policy: RetryPolicy,
    end: End,
    home_up: bool,
    /// The script's next plan.
    next_plan: usize,
    /// Freezes so far, counted by the model itself.
    episode: u32,
    /// The latest shipment as the model saw it go out (and roam).
    latest: Vec<Sid>,
    /// Every session any shipment or roam listed.
    listed: Vec<Sid>,
    nodes: [Host; 3],
    net: Vec<M>,
    budget: Budget,
}

/// One episode of a program's script.
#[derive(Clone, Copy, Debug)]
enum Plan {
    /// `top_to(1, 1)`: its class ships on demand, and it returns a
    /// worker-created object (its flush acknowledged first).
    Top,
    /// `[(1, 1), (2, 1)]`: the lower segment waits for the upper's value.
    Chain,
    /// The whole stack to node 2; its top segment roams to node 1.
    Whole,
}

/// The program's script: one episode of each plan, in turn.
const SCRIPT: [Plan; 3] = [Plan::Top, Plan::Chain, Plan::Whole];

impl Plan {
    fn plan(self) -> (MigrationPlan, PlanSource) {
        match self {
            Plan::Top => (MigrationPlan::top_to(1, 1), PlanSource::Trigger),
            Plan::Chain => (
                MigrationPlan::chain(&[(1, 1), (2, 1)]),
                PlanSource::MigrateNow,
            ),
            Plan::Whole => (MigrationPlan::whole_stack_to(2), PlanSource::Guest),
        }
    }

    /// The model's segment `i` of this plan.
    fn seg(self, i: usize, dest: usize, session: Sid) -> Seg {
        let odd = matches!(self, Plan::Top);
        Seg {
            dest,
            session,
            ret: Target::Home,
            wait: i > 0,
            moves: (matches!(self, Plan::Whole) && i == 0).then_some(1),
            ack: odd,
            class: odd,
        }
    }
}

impl World {
    fn new(policy: RetryPolicy, budget: Budget) -> Self {
        let up = Host {
            up: true,
            ..Host::default()
        };
        World {
            side: HomeSide::default(),
            policy,
            end: End::Running,
            home_up: true,
            next_plan: 0,
            episode: 0,
            latest: Vec::new(),
            listed: Vec::new(),
            nodes: [up.clone(), up.clone(), up],
            net: vec![M::HomeRun],
            budget,
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut h = IdHasher::default();
        self.hash_into(&mut h);
        h.finish()
    }

    fn hash_into(&self, h: &mut impl Hasher) {
        let side = &self.side;
        side.episodes.hash(h);
        match &side.state {
            Home::Idle => 0.hash(h),
            Home::Planned(plan) => {
                1.hash(h);
                plan.segments
                    .iter()
                    .for_each(|s| (s.dest, s.nframes).hash(h));
            }
            Home::Frozen(ep) => {
                2.hash(h);
                (&ep.segments, &ep.sessions, ep.attempts, ep.stamp).hash(h);
            }
        }
        (self.end, self.home_up, self.next_plan, self.episode).hash(h);
        (&self.latest, &self.listed, &self.net, self.budget).hash(h);
        for n in &self.nodes {
            (n.up, n.has_class, n.minted).hash(h);
            for s in &n.sessions {
                (s.id, &s.seg).hash(h);
                hash_phase(&s.phase, h);
            }
        }
    }

    fn mint(&mut self, node: usize) -> Sid {
        let n = &mut self.nodes[node];
        n.minted += 1;
        ((node as u64 + 1) << 32) | n.minted
    }

    fn send(&mut self, m: M) {
        let at = self.net.binary_search(&m).unwrap_or_else(|i| i);
        self.net.insert(at, m);
    }

    fn session(&mut self, node: usize, sid: Sid) -> Option<&mut Sess> {
        self.nodes[node].sessions.iter_mut().find(|s| s.id == sid)
    }

    /// `Cluster::retire_session`.
    fn retire(&mut self, node: usize, sid: Sid) -> Result<Option<Sess>, String> {
        let sessions = &mut self.nodes[node].sessions;
        let Some(i) = sessions.iter().position(|s| s.id == sid) else {
            return Ok(None);
        };
        if !self.listed.contains(&sid) {
            return Err(format!("retired session {sid:#x}, which no episode listed"));
        }
        Ok(Some(sessions.remove(i)))
    }

    fn close(&mut self, sessions: Vec<(usize, Sid)>) -> Result<(), String> {
        for (node, sid) in sessions {
            self.retire(node, sid)?;
        }
        self.latest.clear();
        Ok(())
    }

    /// `end_program`: the program's end closes its
    /// episode, and nothing of it may be left.
    fn end(&mut self, end: End) -> Result<(), String> {
        self.end = end;
        if let HomeEffect::Close(sessions, _) = home(&mut self.side, HomeInput::End) {
            self.close(sessions)?;
        }
        let live = self.nodes.iter().map(|n| n.sessions.len()).sum::<usize>();
        if live > 0 || !self.side.is_idle() {
            return Err(format!(
                "the program ended with {live} live sessions, side {:?}",
                self.side
            ));
        }
        Ok(())
    }

    /// `Cluster::ship_episode`.
    fn ship(&mut self, shipment: Shipment<Seg>) -> Result<(), String> {
        for (node, sid) in shipment.retire {
            self.retire(node, sid)?;
        }
        let mut segs = shipment.segments;
        if shipment.fresh_ids {
            for seg in &mut segs {
                seg.session = self.mint(0);
            }
        }
        let mut ret = Target::Home;
        for seg in segs.iter_mut().rev() {
            seg.ret = ret;
            ret = Target::Session(seg.dest, seg.session);
        }
        self.latest = segs.iter().map(|s| s.session).collect();
        self.listed.extend(&self.latest);
        let sessions = segs.iter().map(|s| (s.dest, s.session)).collect();
        let kept = if shipment.keep {
            segs.clone()
        } else {
            Vec::new()
        };
        home(&mut self.side, HomeInput::Shipped(sessions, kept));
        if let Some(stamp) = shipment.deadline {
            self.send(M::Deadline(stamp, self.episode));
        }
        segs.into_iter().for_each(|seg| self.send(M::State(seg)));
        Ok(())
    }

    /// A slice of the home thread: install the script's next plan, stop at
    /// a migration-safe point and capture per the plan; past the script's
    /// end the program finishes.
    fn home_run(&mut self) -> Result<(), String> {
        if let HomeEffect::Drop = home(&mut self.side, HomeInput::Slice) {
            return Ok(()); // frozen
        }
        let Some(&kind) = SCRIPT.get(self.next_plan) else {
            return self.end(End::Finished);
        };
        let (plan, source) = kind.plan();
        home(&mut self.side, HomeInput::Plan(plan, source));
        let (HomeEffect::Run { stop_at_msp: true }, HomeEffect::Capture(plan)) = (
            home(&mut self.side, HomeInput::Slice),
            home(&mut self.side, HomeInput::Msp),
        ) else {
            return Err("a slice with a plan installed did not capture".into());
        };
        let mut segs = Vec::new();
        for (i, spec) in plan.segments.iter().enumerate() {
            let session = self.mint(0);
            segs.push(kind.seg(i, spec.dest, session));
        }
        home(&mut self.side, HomeInput::Froze(segs));
        self.next_plan += 1;
        self.episode += 1;
        self.send(M::CaptureDone);
        Ok(())
    }

    /// A slice of a worker thread.
    fn worker_run(&mut self, node: usize, sid: Sid) -> Result<(), String> {
        let Some(s) = self.session(node, sid) else {
            return Ok(());
        };
        if let WorkerEffect::Reestablish(_) = worker(&mut s.phase, WorkerInput::Breakpoint) {
            worker(&mut s.phase, WorkerInput::SliceEnded(1));
        }
        if !matches!(s.phase, WorkerPhase::Running { .. }) {
            return Ok(()); // not runnable
        }
        if let Some(dest) = s.seg.moves {
            worker(&mut s.phase, WorkerInput::Move(dest));
        }
        let stop = matches!(
            worker(&mut s.phase, WorkerInput::Slice),
            WorkerEffect::Run { stop_at_msp: true }
        );
        if stop {
            if let WorkerEffect::Roam(_) = worker(&mut s.phase, WorkerInput::Msp) {
                self.send(M::Flush(Some((node, sid))));
            }
            return Ok(());
        }
        let (retval, ack) = (Some(CapturedValue::Int(1)), s.seg.ack);
        match worker(&mut s.phase, WorkerInput::Finished { retval, ack }) {
            WorkerEffect::Ok => self.send(M::Flush(Some((node, sid)))),
            WorkerEffect::Return(_) => self.segment_return(node, sid)?,
            _ => {}
        }
        Ok(())
    }

    /// `Cluster::send_segment_return`.
    fn segment_return(&mut self, node: usize, sid: Sid) -> Result<(), String> {
        if let Some(s) = self.retire(node, sid)? {
            self.send(M::Return(s.seg.ret, sid));
        }
        Ok(())
    }

    fn deliver(&mut self, m: M) -> Result<(), String> {
        let node = m.node();
        let up = match node {
            0 => self.home_up,
            n => self.nodes[n].up,
        };
        if !up {
            return Ok(()); // suppressed at a crashed node
        }
        match m {
            M::HomeRun if self.end == End::Running => self.home_run()?,
            M::HomeRun => {}
            M::CaptureDone => {
                let recovery = Some(self.policy);
                if let HomeEffect::Ship(s) = home(&mut self.side, HomeInput::CaptureDone(recovery))
                {
                    self.ship(s)?;
                }
            }
            M::Deadline(stamp, episode) => {
                let policy = self.policy;
                let effect = home(&mut self.side, HomeInput::Deadline(stamp, policy));
                if !matches!(effect, HomeEffect::Drop) && episode != self.episode {
                    return Err(format!(
                        "the deadline armed for episode {episode} acted on episode {}",
                        self.episode
                    ));
                }
                match effect {
                    HomeEffect::Ship(s) => self.ship(s)?,
                    HomeEffect::Close(sessions, _) => {
                        self.close(sessions)?;
                        self.send(M::HomeRun);
                    }
                    _ => {}
                }
            }
            M::State(seg) => {
                let sid = seg.session;
                let duplicate = match self.session(node, sid) {
                    Some(s) => worker(&mut s.phase, WorkerInput::State),
                    None => WorkerEffect::Ok,
                };
                if matches!(duplicate, WorkerEffect::Drop)
                    || !matches!(
                        home(&mut self.side, HomeInput::Arrived(sid)),
                        HomeEffect::Ok
                    )
                {
                    return Ok(());
                }
                let n = &mut self.nodes[node];
                if n.sessions.iter().any(|s| s.id == sid) {
                    return Err(format!("a State replaced live session {sid:#x}"));
                }
                let missing = match seg.class && !n.has_class {
                    true => vec!["A".to_string()],
                    false => Vec::new(),
                };
                let next = match missing.is_empty() {
                    true => M::BeginRestore(node, sid),
                    false => M::ClassRequest(node, sid),
                };
                let phase = WorkerPhase::AwaitClasses { missing, state: () };
                n.sessions.push(Sess {
                    id: sid,
                    seg,
                    phase,
                });
                n.sessions.sort_by_key(|s| s.id);
                self.send(next);
            }
            M::ClassRequest(from, sid) => self.send(M::ClassReply(from, sid)),
            M::ClassReply(_, sid) => {
                self.nodes[node].has_class = true;
                if let Some(s) = self.session(node, sid) {
                    let input = WorkerInput::Class {
                        name: "A",
                        parked: false,
                    };
                    if let WorkerEffect::AllClasses = worker(&mut s.phase, input) {
                        self.send(M::BeginRestore(node, sid));
                    }
                }
            }
            M::BeginRestore(_, sid) => {
                if let Some(s) = self.session(node, sid) {
                    let wait = s.seg.wait;
                    let input = WorkerInput::BeginRestore {
                        handler: !wait,
                        wait,
                    };
                    if let (WorkerEffect::Restore(()), false) = (worker(&mut s.phase, input), wait)
                    {
                        self.send(M::Run(node, sid));
                    }
                }
            }
            M::Run(_, sid) => self.worker_run(node, sid)?,
            M::Flush(ack) => {
                if let Some((to, sid)) = ack {
                    self.send(M::FlushAck(to, sid));
                }
            }
            M::FlushAck(_, sid) => {
                let Some(s) = self.session(node, sid) else {
                    return Ok(());
                };
                match worker(&mut s.phase, WorkerInput::FlushAck) {
                    WorkerEffect::Roam(dest) => {
                        let old = s.seg.clone();
                        let new = self.mint(node);
                        self.retire(node, sid)?;
                        let to = (dest, new);
                        home(&mut self.side, HomeInput::Roamed(sid, to));
                        if let Some(entry) = self.latest.iter_mut().find(|s| **s == sid) {
                            *entry = new;
                        }
                        self.listed.push(new);
                        let seg = Seg {
                            dest,
                            session: new,
                            wait: false,
                            moves: None,
                            class: false,
                            ..old
                        };
                        self.send(M::State(seg));
                    }
                    WorkerEffect::Return(_) => self.segment_return(node, sid)?,
                    _ => {}
                }
            }
            M::Return(Target::Home, sid) => {
                if let HomeEffect::Close(sessions, _) =
                    home(&mut self.side, HomeInput::Returned(sid))
                {
                    if !self.latest.contains(&sid) {
                        return Err(format!("the home resumed with a value from {sid:#x}"));
                    }
                    self.close(sessions)?;
                    self.send(M::HomeRun);
                }
            }
            M::Return(Target::Session(_, to), _) => {
                if let Some(s) = self.session(node, to) {
                    if let WorkerEffect::Ok = worker(&mut s.phase, WorkerInput::Return) {
                        self.send(M::Run(node, to));
                    }
                }
            }
        }
        Ok(())
    }

    fn apply(&mut self, action: Action) -> Result<(), String> {
        match action {
            Action::Deliver(i) => {
                let m = self.net.remove(i);
                self.deliver(m)?;
            }
            Action::Drop(i) => {
                self.net.remove(i);
                self.budget.drops -= 1;
            }
            Action::Duplicate(i) => {
                self.send(self.net[i].clone());
                self.budget.duplicates -= 1;
            }
            Action::Crash(node) => {
                let n = &mut self.nodes[node];
                n.up = false;
                let sids: Vec<Sid> = n.sessions.iter().map(|s| s.id).collect();
                for sid in sids {
                    self.retire(node, sid)?;
                }
                self.budget.crashes -= 1;
            }
            Action::Restart(node) => self.nodes[node].up = true,
            Action::HomeCrash => {
                self.home_up = false;
                self.budget.home_crashes -= 1;
                self.end(End::Failed)?;
            }
        }
        self.check()
    }

    /// What must hold in every state.
    fn check(&self) -> Result<(), String> {
        for n in &self.nodes {
            if let Some(s) = n.sessions.iter().find(|s| !self.latest.contains(&s.id)) {
                return Err(format!(
                    "live session {:#x} is not of the latest shipment",
                    s.id
                ));
            }
        }
        Ok(())
    }

    /// Every action enabled here, faults included.
    fn actions(&self) -> Vec<Action> {
        let mut out: Vec<Action> = (0..self.net.len()).map(Action::Deliver).collect();
        for (i, m) in self.net.iter().enumerate() {
            if m.sent() && self.budget.drops > 0 {
                out.push(Action::Drop(i));
            }
            if m.sent() && self.budget.duplicates > 0 {
                out.push(Action::Duplicate(i));
            }
        }
        for node in 1..3 {
            match self.nodes[node].up {
                true if self.budget.crashes > 0 => out.push(Action::Crash(node)),
                false => out.push(Action::Restart(node)),
                _ => {}
            }
        }
        if self.home_up && self.end == End::Running && self.budget.home_crashes > 0 {
            out.push(Action::HomeCrash);
        }
        out
    }

    /// Deliver everything in flight, first in canonical order, with no
    /// further fault, until nothing is; the program must have ended,
    /// failed only if its home crashed. States known to drain are `good`;
    /// a failure says how many deliveries it took.
    fn drain(mut self, good: &mut IdSet<u64>) -> Result<(), (usize, String)> {
        let mut path = Vec::new();
        let why = loop {
            let fp = self.fingerprint();
            if good.contains(&fp) {
                break None;
            }
            path.push(fp);
            if self.net.is_empty() {
                match (self.end, self.home_up) {
                    (End::Finished, _) | (End::Failed, false) => break None,
                    (end, _) => break Some(format!("progress: nothing in flight, {end:?}")),
                }
            }
            if path.len() > 1_000 {
                break Some("progress: delivering what is in flight does not end".into());
            }
            if let Err(why) = self.apply(Action::Deliver(0)) {
                break Some(why);
            }
        };
        match why {
            Some(why) => Err((path.len(), why)),
            None => {
                good.extend(path);
                Ok(())
            }
        }
    }
}

fn hash_phase(phase: &WorkerPhase<()>, h: &mut impl Hasher) {
    match phase {
        WorkerPhase::AwaitClasses { missing, .. } => (0, missing).hash(h),
        WorkerPhase::Restoring { restored } => (1, restored).hash(h),
        WorkerPhase::Waiting { roam } => (2, roam).hash(h),
        WorkerPhase::Running { roam } => (3, roam).hash(h),
        WorkerPhase::AwaitRoamAck { dest } => (4, dest).hash(h),
        WorkerPhase::AwaitCompleteAck { retval } => {
            let int = |v| matches!(v, CapturedValue::Int(i) if i == 1);
            (5, retval.map(int)).hash(h)
        }
    }
}

/// Breadth-first from every state of the fault-free run (everything in
/// flight delivered in order, nothing lost) over every interleaving, to
/// `depth` actions past it; returns the distinct states visited, or the
/// trace to the first violation.
fn explore(policy: RetryPolicy, budget: Budget, depth: usize) -> Result<usize, String> {
    // Per state: its parent and the action that reached it.
    let mut trace: Vec<(usize, Option<Action>)> = Vec::new();
    let mut seen: IdMap<u64, usize> = IdMap::default();
    let mut good: IdSet<u64> = IdSet::default();
    let path = |trace: &[(usize, Option<Action>)], mut at: usize| {
        let mut steps = Vec::new();
        while let (parent, Some(action)) = trace[at] {
            steps.push(action);
            at = parent;
        }
        steps.reverse();
        steps
    };
    // The trace to a violation: `steps` from the start, then `then`
    // in-order deliveries of the drain that failed.
    let replay = |steps: Vec<Action>, then: usize, why: String| {
        let mut w = World::new(policy, budget);
        let mut lines = vec![format!("{policy:?}: {why}")];
        let drain = std::iter::repeat_n(Action::Deliver(0), then);
        for (i, a) in steps.iter().copied().chain(drain).enumerate() {
            if i == steps.len() {
                lines.push("  then, with no further fault:".into());
            }
            let (Action::Deliver(m) | Action::Drop(m) | Action::Duplicate(m)) = a else {
                lines.push(format!("  {a:?}"));
                let _ = w.apply(a);
                continue;
            };
            let Some(msg) = w.net.get(m) else { break };
            lines.push(format!("  {a:?} {msg:?}"));
            let _ = w.apply(a);
        }
        lines.join("\n")
    };
    let mut frontier = Vec::new();
    let mut run = World::new(policy, budget);
    loop {
        let at = trace.len();
        seen.insert(run.fingerprint(), at);
        trace.push((
            at.saturating_sub(1),
            at.checked_sub(1).map(|_| Action::Deliver(0)),
        ));
        frontier.push((run.clone(), at));
        if run.net.is_empty() {
            break;
        }
        if let Err(why) = run.apply(Action::Deliver(0)) {
            return Err(replay(path(&trace, at), 1, why));
        }
    }
    for level in 0..=depth {
        let mut next = Vec::new();
        for (world, at) in frontier {
            if let Err((then, why)) = world.clone().drain(&mut good) {
                return Err(replay(path(&trace, at), then, why));
            }
            if level == depth {
                continue;
            }
            for action in world.actions() {
                let mut w = world.clone();
                let outcome = w.apply(action);
                if let Err(why) = outcome {
                    let mut steps = path(&trace, at);
                    steps.push(action);
                    return Err(replay(steps, 0, why));
                }
                if let Entry::Vacant(e) = seen.entry(w.fingerprint()) {
                    e.insert(trace.len());
                    trace.push((at, Some(action)));
                    next.push((w, trace.len() - 1));
                }
            }
        }
        frontier = next;
    }
    Ok(seen.len())
}

/// Explore under both policies at `depth`, printing the states each
/// visits; returns their sum.
fn explore_all(depth: usize) -> usize {
    let budget = Budget {
        drops: 1,
        duplicates: 1,
        crashes: 1,
        home_crashes: 1,
    };
    let mut total = 0;
    for policy in [
        RetryPolicy::Retry { max_attempts: 2 },
        RetryPolicy::FallbackToHome,
    ] {
        match explore(policy, budget, depth) {
            Ok(states) => {
                println!("{policy:?}: {states} states");
                total += states;
            }
            Err(trace) => panic!("counterexample\n{trace}"),
        }
    }
    total
}

#[test]
fn every_interleaving_of_a_small_world_is_safe_and_ends() {
    // Six actions past every state of the fault-free run: about 3 s in a
    // debug build on a 2-core x86-64 host. The count pins the world: a
    // change to the model or to either machine that moves it says so.
    assert_eq!(explore_all(6), 116_535);
}
