//! What the protocol modules share beside the state machines of
//! `protocol.rs`: a staged segment, a worker session with the node that
//! holds it, thread ownership, and session-id minting
//! ([`Cluster::alloc_session`]).

use std::sync::Arc;

use bytes::Bytes;
use sod_vm::capture::CapturedState;
use sod_vm::value::OriginId;

use crate::metrics::MigrationTimings;
use crate::msg::{ProgramId, ReturnTarget, SegmentInfo, SessionId};

use super::protocol::WorkerPhase;
use super::Cluster;

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
    pub(super) phase: WorkerPhase<Box<CapturedState>>,
    pub(super) timings: MigrationTimings,
    pub(super) arrived_at: u64,
    /// Post-arrival time spent waiting for on-demand classes (excluded
    /// from restore time, like the paper's transfer accounting).
    pub(super) class_wait_ns: u64,
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
}
