//! The migration protocol (paper §III) as two transition functions without
//! I/O: [`home`] steps a program's [`HomeSide`], [`worker`] a migrated
//! segment's [`WorkerPhase`]. A step takes one input — a message kind, an
//! abstracted VM outcome, a crash, a deadline — and returns by value the one
//! effect its caller applies. It allocates nothing, and carries payloads it
//! never reads (a staged segment `S`, a decoded stack `T`). Every protocol
//! decision is made here: which plan installs, when an episode freezes,
//! ships and closes, what is stale, what a session waits for. An input its
//! state does not expect is dropped; a dropped `State`'s bytes are credited
//! lost where they landed. `tests/protocol_search.rs` checks both through
//! the real engine, over every order of delivery of a small world within a
//! bound.

use sod_vm::capture::CapturedValue;

use crate::msg::{MigrationPlan, SessionId};

use super::RetryPolicy;

/// Home-side lifecycle of a program's root thread, and the count of
/// episodes it froze (the latest one's stamp).
pub(super) struct HomeSide<S> {
    state: Home<S>,
    episodes: u32,
}

enum Home<S> {
    /// Executing normally at home.
    Idle,
    /// The thread runs in stop-at-MSP mode and captures at its next
    /// migration-safe point.
    Planned(MigrationPlan),
    /// The stack's top segments run remotely; the home stack is frozen.
    Frozen(Episode<S>),
}

/// One migration episode (paper §III, Fig. 1a–c): one freeze, every
/// segment shipped concurrently, returns chained, home resumed. A session
/// the episode does not list is stale by definition.
struct Episode<S> {
    /// Staged until `CaptureDone` ships them; then kept only where a
    /// deadline may re-ship them (faults injected, under `Retry`).
    segments: Vec<S>,
    /// Where each segment of the latest shipment runs, `(node, session)`;
    /// a roam replaces its entry. Empty until the episode ships.
    sessions: Vec<(usize, SessionId)>,
    /// Shipments so far (zero while staged), bounded by `Retry`.
    attempts: u32,
    /// Which of its program's episodes this is, counted at the freeze: a
    /// deadline carries it, so one armed for an earlier episode is inert.
    stamp: u32,
}

impl<S> Default for HomeSide<S> {
    fn default() -> Self {
        let state = Home::Idle;
        HomeSide { state, episodes: 0 }
    }
}

impl<S> HomeSide<S> {
    /// No plan installed and no episode open.
    pub(super) fn is_idle(&self) -> bool {
        matches!(self.state, Home::Idle)
    }

    pub(super) fn view(&self) -> HomeView<'_> {
        match &self.state {
            Home::Idle => HomeView::Idle,
            Home::Planned(_) => HomeView::Planned,
            Home::Frozen(ep) => HomeView::Frozen {
                stamp: ep.stamp,
                sessions: &ep.sessions,
            },
        }
    }
}

/// A home side as suites read it: idle, a plan installed, or an episode
/// open with its stamp and where each session of its latest shipment runs
/// (none while it is staged).
#[doc(hidden)]
#[derive(Debug)]
pub enum HomeView<'a> {
    Idle,
    Planned,
    Frozen {
        stamp: u32,
        sessions: &'a [(usize, SessionId)],
    },
}

/// Who installs a plan. A trigger installs only on an idle side; a
/// `MigrateNow` or the guest's own request (`sod_move`, an `OnOom`
/// offload) replaces a pending plan; nothing installs over an episode.
pub(super) enum PlanSource {
    MigrateNow,
    Trigger,
    Guest,
}

/// What the home side is told: a plan; a slice of the root thread, or its
/// stop at a migration-safe point; the capture staged; the freeze timer
/// (with the retry policy when faults are injected); a shipment gone out
/// (where each segment runs, what is kept); a deadline; a `State` landing
/// where no live session has its id (and the node it landed at); a roaming
/// hop; a return home; the
/// program's end (finished, failed, or its home crashed).
pub(super) enum HomeInput<S> {
    Plan(MigrationPlan, PlanSource),
    Slice,
    Msp,
    Froze(Vec<S>),
    CaptureDone(Option<RetryPolicy>),
    Shipped(Vec<(usize, SessionId)>, Vec<S>),
    Deadline(u32, RetryPolicy),
    Arrived(usize, SessionId),
    Roamed(SessionId, (usize, SessionId)),
    Returned(SessionId),
    End,
}

/// Ship these segments: retire the superseded sessions, mint fresh ids on
/// a re-ship, place and wire them, keep a copy if asked, arm the deadline
/// if asked, and report them with [`HomeInput::Shipped`].
pub(super) struct Shipment<S> {
    pub(super) segments: Vec<S>,
    pub(super) retire: Vec<(usize, SessionId)>,
    pub(super) fresh_ids: bool,
    pub(super) keep: bool,
    pub(super) deadline: Option<u32>,
}

/// What the home side asks of its caller. `Ok` accepts the input, which
/// then takes its own course; `Close` ends the episode: retire its
/// sessions, recycle its segments.
pub(super) enum HomeEffect<S> {
    Drop,
    Ok,
    Run { stop_at_msp: bool },
    Capture(MigrationPlan),
    Ship(Shipment<S>),
    Close(Vec<(usize, SessionId)>, Vec<S>),
}

/// One step of the home side.
pub(super) fn home<S>(side: &mut HomeSide<S>, input: HomeInput<S>) -> HomeEffect<S> {
    use {HomeEffect as E, HomeInput as I};
    let held = |ep: &Episode<S>, sid| ep.sessions.iter().any(|&(_, s)| s == sid);
    match (&mut side.state, input) {
        (Home::Frozen(_), I::Plan(..)) | (Home::Planned(_), I::Plan(_, PlanSource::Trigger)) => {
            E::Drop
        }
        (state, I::Plan(plan, _)) => {
            *state = Home::Planned(plan);
            E::Ok
        }
        (Home::Frozen(_), I::Slice) => E::Drop,
        (state, I::Slice) => E::Run {
            stop_at_msp: matches!(state, Home::Planned(_)),
        },
        (state @ Home::Planned(_), I::Msp) => match std::mem::replace(state, Home::Idle) {
            Home::Planned(plan) => E::Capture(plan),
            _ => E::Drop,
        },
        (state @ Home::Idle, I::Froze(segments)) => {
            side.episodes += 1;
            let (sessions, attempts, stamp) = (Vec::new(), 0, side.episodes);
            *state = Home::Frozen(Episode {
                segments,
                sessions,
                attempts,
                stamp,
            });
            E::Ok
        }
        (Home::Frozen(ep), I::CaptureDone(recovery)) if ep.attempts == 0 => {
            ep.attempts = 1;
            E::Ship(Shipment {
                segments: std::mem::take(&mut ep.segments),
                retire: Vec::new(),
                fresh_ids: false,
                keep: matches!(recovery, Some(RetryPolicy::Retry { .. })),
                deadline: recovery.map(|_| ep.stamp),
            })
        }
        (Home::Frozen(ep), I::Shipped(sessions, kept)) => {
            (ep.sessions, ep.segments) = (sessions, kept);
            E::Ok
        }
        (Home::Frozen(ep), I::Deadline(stamp, policy)) if ep.stamp == stamp => match policy {
            RetryPolicy::Retry { max_attempts } if ep.attempts < max_attempts => {
                ep.attempts += 1;
                E::Ship(Shipment {
                    segments: std::mem::take(&mut ep.segments),
                    retire: std::mem::take(&mut ep.sessions),
                    fresh_ids: true,
                    keep: true,
                    deadline: Some(stamp),
                })
            }
            _ => close(&mut side.state),
        },
        (Home::Frozen(ep), I::Arrived(node, sid)) if ep.sessions.contains(&(node, sid)) => E::Ok,
        (Home::Frozen(ep), I::Roamed(from, to)) if held(ep, from) => {
            ep.sessions
                .iter_mut()
                .filter(|e| e.1 == from)
                .for_each(|e| *e = to);
            E::Ok
        }
        (Home::Frozen(ep), I::Returned(sid)) if held(ep, sid) => close(&mut side.state),
        (state, I::End) => close(state),
        _ => E::Drop,
    }
}

/// Leave the side idle, closing the episode if one is open.
fn close<S>(state: &mut Home<S>) -> HomeEffect<S> {
    match std::mem::replace(state, Home::Idle) {
        Home::Frozen(ep) => HomeEffect::Close(ep.sessions, ep.segments),
        _ => HomeEffect::Drop,
    }
}

/// A migrated segment's lifecycle at its destination. The decoded stack
/// travels inside the one phase that still reads it. A session that is
/// done is not stored at all: retirement removes it from its node, so
/// every handler treats a retired session as an unknown one. Opaque: a
/// phase is born awaiting its classes ([`WorkerPhase::arrived`]), and
/// only [`worker`] moves it.
pub(crate) struct WorkerPhase<T>(Phase<T>);

enum Phase<T> {
    /// Classes the segment names are in flight, sorted (or all are here
    /// and `BeginRestore` is).
    AwaitClasses { missing: Vec<String>, state: T },
    /// The breakpoint + `InvalidStateException` handler protocol is
    /// re-establishing frames; `restored` counts finished ones.
    Restoring { restored: usize },
    /// Restore-ahead workflow segment awaiting the return value of the
    /// segment above; `roam` is where a drain asked it to go next.
    Waiting { roam: Option<usize> },
    /// Executing; `roam` makes it stop at migration-safe points to move.
    Running { roam: Option<usize> },
    /// Roaming: flush sent, awaiting id assignments before capture.
    AwaitRoamAck { dest: usize },
    /// Completion flush with ack (a worker-created object is returned).
    AwaitCompleteAck { retval: Option<CapturedValue> },
}

impl<T> WorkerPhase<T> {
    /// A segment that landed with its decoded stack, awaiting the classes
    /// it names that are not here (sorted).
    pub(super) fn arrived(missing: Vec<String>, state: T) -> Self {
        WorkerPhase(Phase::AwaitClasses { missing, state })
    }
}

/// What a worker session is told: a `State` with its id where it lives; a
/// class arrived (and whether its thread is parked on exactly that one);
/// `BeginRestore` (the handler protocol or not, awaiting a chained return
/// or not); a restore breakpoint; the end of a slice that tripped none,
/// with the frames to restore; a slice; the guest's `sod_move`; a drain;
/// a stop at a migration-safe point; its last frame's return (and whether
/// its flush must be acknowledged first); the value from the segment
/// above; its flush's ack.
pub(super) enum WorkerInput<'a> {
    State,
    Class {
        name: &'a str,
        parked: bool,
    },
    BeginRestore {
        handler: bool,
        wait: bool,
    },
    Breakpoint,
    SliceEnded(usize),
    Slice,
    Move(usize),
    Drain(usize),
    Msp,
    Finished {
        retval: Option<CapturedValue>,
        ack: bool,
    },
    Return,
    FlushAck,
}

/// What a worker session asks of its caller. `Ok` accepts the input, which
/// then takes its own course; `AllClasses` schedules the restore,
/// `Resume` the thread parked on the class; `Reestablish` points the
/// restore at a frame and arms the next one's breakpoint; `Roam` flushes
/// (at an MSP) or captures and ships (at the ack); `Return` sends the
/// value on and retires the session.
pub(super) enum WorkerEffect<T> {
    Drop,
    Ok,
    AllClasses,
    Resume,
    Restore(T),
    Reestablish(usize),
    Run { stop_at_msp: bool },
    Roam(usize),
    Return(Option<CapturedValue>),
}

/// One step of a worker session.
pub(super) fn worker<T>(phase: &mut WorkerPhase<T>, input: WorkerInput<'_>) -> WorkerEffect<T> {
    use {Phase as P, WorkerEffect as E, WorkerInput as I};
    let phase = &mut phase.0;
    match (&mut *phase, input) {
        (P::AwaitClasses { missing, .. }, I::Class { name, .. }) => {
            let Some(i) = missing.iter().position(|c| c == name) else {
                return E::Drop;
            };
            missing.remove(i);
            match missing.is_empty() {
                true => E::AllClasses,
                false => E::Ok,
            }
        }
        (_, I::Class { parked: true, .. }) => E::Resume,
        (P::AwaitClasses { missing, .. }, I::BeginRestore { handler, wait })
            if missing.is_empty() =>
        {
            let next = match (handler, wait) {
                (true, _) => P::Restoring { restored: 0 },
                (false, true) => P::Waiting { roam: None },
                (false, false) => P::Running { roam: None },
            };
            match std::mem::replace(phase, next) {
                P::AwaitClasses { state, .. } => E::Restore(state),
                _ => E::Drop,
            }
        }
        (P::Restoring { restored }, I::Breakpoint) => {
            *restored += 1;
            E::Reestablish(*restored - 1)
        }
        (P::Restoring { restored }, I::SliceEnded(nframes)) if *restored >= nframes => {
            *phase = P::Running { roam: None };
            E::Ok
        }
        (P::Running { roam } | P::Waiting { roam }, I::Slice) => E::Run {
            stop_at_msp: roam.is_some(),
        },
        (_, I::Slice) => E::Run { stop_at_msp: false },
        (P::Running { roam }, I::Move(dest))
        | (P::Running { roam: roam @ None } | P::Waiting { roam: roam @ None }, I::Drain(dest)) => {
            *roam = Some(dest);
            E::Ok
        }
        (P::Running { roam: Some(dest) }, I::Msp) => {
            let dest = *dest;
            *phase = P::AwaitRoamAck { dest };
            E::Roam(dest)
        }
        (P::Running { .. }, I::Finished { retval, ack: true }) => {
            *phase = P::AwaitCompleteAck { retval };
            E::Ok
        }
        (P::Running { .. }, I::Finished { retval, .. }) => E::Return(retval),
        (P::Waiting { roam }, I::Return) => {
            *phase = P::Running { roam: *roam };
            E::Ok
        }
        (P::AwaitRoamAck { dest }, I::FlushAck) => E::Roam(*dest),
        (P::AwaitCompleteAck { retval }, I::FlushAck) => E::Return(*retval),
        _ => E::Drop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_side_transitions() {
        use {HomeEffect as E, HomeInput as I};
        let mut side = HomeSide::<u8>::default();
        let plan = MigrationPlan::top_to(1, 1);
        assert!(side.is_idle());
        assert!(
            matches!(home(&mut side, I::Msp), E::Drop),
            "no plan to follow"
        );

        let install = I::Plan(plan.clone(), PlanSource::MigrateNow);
        assert!(matches!(home(&mut side, install), E::Ok));
        assert!(!side.is_idle());
        assert!(matches!(
            home(&mut side, I::Slice),
            E::Run { stop_at_msp: true }
        ));
        let E::Capture(taken) = home(&mut side, I::Msp) else {
            panic!("a planned side captures at its MSP");
        };
        assert_eq!(taken, plan);
        assert!(side.is_idle());

        assert!(matches!(home(&mut side, I::Froze(vec![9])), E::Ok));
        let retry = Some(RetryPolicy::Retry { max_attempts: 3 });
        let E::Ship(shipment) = home(&mut side, I::CaptureDone(retry)) else {
            panic!("a staged episode ships");
        };
        assert_eq!((shipment.segments, shipment.deadline), (vec![9], Some(1)));
        assert!(shipment.keep && !shipment.fresh_ids && shipment.retire.is_empty());
        let shipped = I::Shipped(vec![(1, 7)], vec![9]);
        assert!(matches!(home(&mut side, shipped), E::Ok));
        // Only the latest shipment's sessions are not stale, and only
        // where it placed them.
        assert!(matches!(home(&mut side, I::Arrived(1, 8)), E::Drop));
        assert!(matches!(home(&mut side, I::Arrived(2, 7)), E::Drop));
        assert!(matches!(home(&mut side, I::Arrived(1, 7)), E::Ok));
        // A frozen side runs no slice and takes no plan, and keeps its
        // episode; a deadline of another episode is inert.
        assert!(matches!(home(&mut side, I::Slice), E::Drop));
        let guest = I::Plan(plan.clone(), PlanSource::Guest);
        assert!(matches!(home(&mut side, guest), E::Drop));
        let policy = RetryPolicy::FallbackToHome;
        assert!(matches!(home(&mut side, I::Deadline(2, policy)), E::Drop));
        let E::Close(sessions, segments) = home(&mut side, I::Returned(7)) else {
            panic!("the episode's own value closes it");
        };
        assert_eq!((sessions, segments), (vec![(1, 7)], vec![9]));
        assert!(side.is_idle());
        assert!(
            matches!(home(&mut side, I::Arrived(1, 7)), E::Drop),
            "a closed episode holds nothing"
        );

        // A trigger does not replace a pending plan, and a return does not
        // take it.
        home(
            &mut side,
            I::Plan(MigrationPlan::top_to(2, 1), PlanSource::MigrateNow),
        );
        assert!(matches!(
            home(&mut side, I::Plan(plan, PlanSource::Trigger)),
            E::Drop
        ));
        assert!(matches!(home(&mut side, I::Returned(7)), E::Drop));
        let E::Capture(taken) = home(&mut side, I::Msp) else {
            panic!("the plan survived");
        };
        assert_eq!(taken, MigrationPlan::top_to(2, 1));
    }
}
