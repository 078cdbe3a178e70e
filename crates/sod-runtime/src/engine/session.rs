//! Typed lifecycle state machines shared by the protocol modules.
//!
//! Both sides of a migration are modelled as explicit states instead of
//! loose flag pairs:
//!
//! * [`HomeSide`] — the *home* thread of a program: running normally,
//!   running in stop-at-MSP mode with a plan installed, or frozen while
//!   its top segment executes remotely. The three states are mutually
//!   exclusive (a frozen thread cannot install a plan: `MigrateNow` is
//!   rejected while frozen, policy triggers skip non-idle programs, and
//!   `sod_move` only executes on a running thread). A frozen side owns its
//!   migration [`Episode`] — the staged or kept segments, the shipped
//!   sessions, the attempt count and the deadline stamp — so closing the
//!   episode is leaving the state, and a session the episode does not list
//!   is stale by definition.
//! * [`WorkerPhase`] — a migrated segment at its destination: waiting for
//!   classes, re-establishing frames, waiting for a chained return value,
//!   running, or reconciling a flush. A session that is done is not stored
//!   at all: retirement (`Cluster::retire_session`) removes it from its
//!   node, so every handler treats a retired session as an unknown one.
//!
//! Session ids are minted here too ([`Cluster::alloc_session`]).

use std::collections::HashSet;
use std::sync::Arc;

use bytes::Bytes;
use sod_vm::capture::{CapturedState, CapturedValue};
use sod_vm::value::OriginId;

use crate::metrics::MigrationTimings;
use crate::msg::{MigrationPlan, ProgramId, ReturnTarget, SegmentInfo, SessionId};

use super::Cluster;

/// Home-side lifecycle of a program's root thread.
#[derive(Default)]
pub(super) enum HomeSide {
    /// Executing normally at home.
    #[default]
    Idle,
    /// A migration plan is installed; the thread runs in stop-at-MSP mode
    /// and capture happens at the next migration-safe point.
    PlanPending(MigrationPlan),
    /// The stack's top segments execute remotely under this episode; the
    /// home stack is frozen and stale run slices must not wake it.
    Frozen(Episode),
}

/// One migration episode (paper §III, Fig. 1a–c): one freeze, every
/// segment shipped concurrently, returns chained, home resumed.
pub(super) struct Episode {
    /// The captured segments: staged until `CaptureDone` ships them, then
    /// kept, placed, only where a deadline may re-ship them (chaos under
    /// [`crate::engine::RetryPolicy::Retry`]).
    pub(super) segments: Vec<StagedSegment>,
    /// Where each segment of the latest shipment runs, `(node, session)`;
    /// a roam replaces its entry. Empty until the episode ships.
    pub(super) sessions: Vec<(usize, SessionId)>,
    /// Shipments so far (zero while staged), bounded by `Retry`.
    pub(super) attempts: u32,
    /// Which of its program's episodes this is, counted at the freeze: a
    /// deadline carries it, so one armed for an earlier episode is inert.
    pub(super) stamp: u32,
}

impl HomeSide {
    /// Whether a plan is installed (the thread should stop at MSPs).
    pub(super) fn plan_pending(&self) -> bool {
        matches!(self, HomeSide::PlanPending(_))
    }

    /// Whether the home stack is frozen under a remote segment.
    pub(super) fn is_frozen(&self) -> bool {
        matches!(self, HomeSide::Frozen(_))
    }

    /// Whether `session` belongs to the open episode's latest shipment —
    /// the one definition of a state or home return that is not stale.
    pub(super) fn holds(&self, session: SessionId) -> bool {
        matches!(self, HomeSide::Frozen(ep) if ep.sessions.iter().any(|&(_, s)| s == session))
    }

    /// Take the installed plan, leaving the side [`HomeSide::Idle`].
    pub(super) fn take_plan(&mut self) -> Option<MigrationPlan> {
        match std::mem::take(self) {
            HomeSide::PlanPending(plan) => Some(plan),
            other => {
                *self = other;
                None
            }
        }
    }

    /// Take the open episode, leaving the side [`HomeSide::Idle`].
    pub(super) fn take_episode(&mut self) -> Option<Episode> {
        match std::mem::take(self) {
            HomeSide::Frozen(ep) => Some(ep),
            other => {
                *self = other;
                None
            }
        }
    }
}

/// Class-name seeds for code bundling, extracted from a captured state
/// *before* it is encoded, so bundle selection (including the ship-time
/// re-bundle of pool-routed segments) never needs to re-decode the frame.
#[derive(Clone)]
pub(super) struct BundleSeeds {
    /// Class of the segment's top frame (the paper's eager-bundle unit);
    /// a segment without frames has none.
    pub(super) top: Option<Arc<str>>,
    /// Every class a shipped frame runs or a shipped static belongs to
    /// (the bundle-reachable closure's seeds), each once, sorted. The
    /// names are the captured state's own `Arc`s.
    pub(super) classes: Vec<Arc<str>>,
}

impl BundleSeeds {
    pub(super) fn of(state: &CapturedState) -> Self {
        let mut classes: Vec<Arc<str>> = state.class_names().cloned().collect();
        classes.sort_unstable();
        classes.dedup();
        let top = state.frames.runs().last();
        BundleSeeds {
            top: top.map(|(class, _)| class.clone()),
            classes,
        }
    }
}

/// A captured segment staged in its [`Episode`] until the freeze timer
/// ([`crate::msg::Msg::CaptureDone`]) ships it, or staged by a roaming
/// hop. The state is already encoded — `frame.len()` *is* the state byte
/// metric — so `Clone` (an episode keeps its shipment for deadline-driven
/// re-ships) copies a refcount, not the captured stack.
#[derive(Clone)]
pub(super) struct StagedSegment {
    pub(super) dest: usize,
    pub(super) info: SegmentInfo,
    /// The state's wire frame, serialized exactly once at capture time.
    pub(super) frame: Bytes,
    /// Bundle seeds for (re-)selecting the code bundle without decoding.
    pub(super) seeds: BundleSeeds,
    pub(super) bundled: Vec<std::sync::Arc<sod_vm::class::ClassDef>>,
    pub(super) class_bytes: u64,
    pub(super) capture_ns: u64,
}

/// Worker-session lifecycle at the destination node. The decoded stack
/// travels inside the one phase that still reads it, so a session that is
/// restoring or has restored holds none.
pub(super) enum WorkerPhase {
    /// Classes referenced by the segment are still in flight (or all are
    /// here and `BeginRestore` is). The stack is boxed: only an arriving
    /// session holds one, and every session in flight pays every byte of
    /// this enum.
    AwaitClasses {
        missing: HashSet<String>,
        state: Box<CapturedState>,
    },
    /// The breakpoint + `InvalidStateException` handler protocol is
    /// re-establishing frames; `restored` counts finished frames. The
    /// thread's own restore session holds the segment being rebuilt.
    Restoring {
        restored: usize,
    },
    /// Restore-ahead workflow segment awaiting the return value of the
    /// segment above.
    Waiting,
    Running,
    /// Roaming: flush sent, awaiting id assignments before capture.
    AwaitRoamAck {
        dest: usize,
    },
    /// Completion flush with ack (reference-valued return), awaiting ids.
    AwaitCompleteAck {
        retval: Option<CapturedValue>,
    },
}

/// One migrated segment executing (or being restored) at the node whose
/// [`crate::node::Node::sessions`] holds it.
pub(crate) struct WorkerSession {
    pub(super) program: ProgramId,
    pub(super) home: usize,
    pub(super) tid: usize,
    pub(super) return_to: ReturnTarget,
    pub(super) nframes: usize,
    /// See [`SegmentInfo::home_pop_frames`].
    pub(super) home_pop_frames: usize,
    pub(super) wait_for_return: bool,
    pub(super) phase: WorkerPhase,
    pub(super) timings: MigrationTimings,
    pub(super) arrived_at: u64,
    /// Post-arrival time spent waiting for on-demand classes (excluded
    /// from restore time, like the paper's transfer accounting).
    pub(super) class_wait_ns: u64,
    pub(super) pending_roam: Option<usize>,
    /// Whether this session's [`MigrationTimings`] reached the program
    /// report (set when restore completes). A session that dies first —
    /// crash, supersession, failed restore — still holds shipped state
    /// bytes nothing accounted for: retirement credits them to the
    /// destination's lost bucket (and the report, for a session still
    /// live), so conservation holds under chaos.
    pub(super) recorded: bool,
}

// Every session a node hosts at once pays every byte of this struct: a
// burst parks hundreds of them on one pool member, and a 48-byte growth
// here moved the 2000-program reference fleet's peak RSS by 7 % when
// finished sessions were never removed. What only a restoring session
// needs goes in a box.
const _: () = assert!(std::mem::size_of::<WorkerSession>() <= 240);

impl WorkerSession {
    /// The program's home node as the worker heap's cache key names it:
    /// the origin of every object this session faults in or writes back.
    pub(super) fn origin(&self) -> OriginId {
        self.home as OriginId
    }
}

/// Who owns a VM thread on a node.
pub(crate) enum Owner {
    Root(ProgramId),
    Worker(SessionId),
}

impl Cluster {
    /// Mint a session id for a session created *at* `node` (the handler's
    /// destination). Ids are striped — high half names the node, low half
    /// counts its allocations — and the counter lives with the node, so an
    /// id depends only on that node's own deliveries, which run in the
    /// simulator's one canonical order.
    pub(super) fn alloc_session(&mut self, node: usize) -> SessionId {
        let c = &mut self.nodes[node].next_session;
        *c += 1;
        ((node as u64 + 1) << 32) | *c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NodeConfig};

    #[test]
    fn a_worker_session_fits_in_240_bytes() {
        // The const assertion above already refuses to build otherwise;
        // this names the number in the test log and covers the decoded
        // stack the box hides.
        assert!(std::mem::size_of::<WorkerSession>() <= 240);
        assert!(std::mem::size_of::<CapturedState>() > 48);
    }

    #[test]
    fn session_ids_are_striped_per_node() {
        let mut c = Cluster::new(vec![
            Node::new(NodeConfig::cluster("a")),
            Node::new(NodeConfig::cluster("b")),
        ]);
        assert_eq!(c.alloc_session(0), (1u64 << 32) | 1);
        assert_eq!(c.alloc_session(1), (2u64 << 32) | 1);
        assert_eq!(c.alloc_session(0), (1u64 << 32) | 2);
        assert_eq!(c.alloc_session(1), (2u64 << 32) | 2);
        assert_eq!(c.alloc_session(0), (1u64 << 32) | 3);
    }

    #[test]
    fn home_side_transitions() {
        let mut side = HomeSide::default();
        assert!(!side.plan_pending() && !side.is_frozen());
        assert!(side.take_plan().is_none());

        side = HomeSide::PlanPending(MigrationPlan::top_to(1, 1));
        assert!(side.plan_pending());
        let plan = side.take_plan().expect("plan installed");
        assert_eq!(plan, MigrationPlan::top_to(1, 1));
        assert!(matches!(side, HomeSide::Idle));

        side = HomeSide::Frozen(Episode {
            segments: Vec::new(),
            sessions: vec![(1, 7)],
            attempts: 1,
            stamp: 3,
        });
        assert!(side.is_frozen() && !side.plan_pending());
        // Only the latest shipment's sessions are not stale.
        assert!(side.holds(7) && !side.holds(8));
        // Taking a plan from a frozen side is a no-op that preserves it.
        assert!(side.take_plan().is_none());
        assert!(side.is_frozen());
        let ep = side.take_episode().expect("episode open");
        assert_eq!((ep.attempts, ep.stamp), (1, 3));
        assert!(matches!(side, HomeSide::Idle));
        assert!(!side.holds(7), "a closed episode holds nothing");

        // Taking an episode from a side with a plan preserves the plan.
        side = HomeSide::PlanPending(MigrationPlan::top_to(1, 1));
        assert!(side.take_episode().is_none());
        assert!(side.plan_pending());
    }
}
