//! How ownership is laid out, and how a parallel window borrows it.
//!
//! At rest, everything one node owns is stored with that node: its
//! sessions, thread owners, session counter and class memo are fields of
//! its [`Node`], and the programs homed there are one vector of
//! [`Programs`]. Both tables are [`Slots`] indexed by node, so opening a
//! [`sod_net::Scheduler::Parallel`] window is moving the drained shards'
//! two slots into per-shard worker views ([`Role::Worker`]) and closing it
//! is moving them back — O(active shards), whatever the fleet holds. The
//! sequential schedulers run the same handlers against the same tables
//! with every slot present.
//!
//! A view that reaches for a slot it was not lent panics with an
//! "ownership auditor" message. What a handler legitimately needs from a
//! foreign node it gets through the immutable [`Shared`] snapshot (reads)
//! or a [`DeferredOp`] the master replays during the canonical merge
//! (writes).

use std::collections::{HashMap, VecDeque};
use std::ops::{Index, IndexMut};
use std::sync::Arc;

use sod_net::{ShardBatch, ShardLog, Topology, World};
use sod_vm::class::ClassDef;

use crate::fs::SimFs;
use crate::metrics::{ChaosCounters, MigrationTimings};
use crate::msg::{Msg, ProgramId, SessionId};
use crate::node::{Node, NodeConfig};

use super::{Cluster, Program};

/// Per-node storage whose slots can be lent to a shard view.
///
/// The master cluster holds every slot. During a parallel safe-horizon
/// batch, `split_shards` *moves* each drained shard's slot out into that
/// shard's worker view, leaving `None` behind; indexing an absent slot —
/// a handler reaching across shard boundaries — panics with an "ownership
/// auditor" message instead of silently racing. Handler code indexes
/// `self.nodes[i]` unchanged.
pub struct Slots<T> {
    slots: Vec<Option<T>>,
    /// What a slot holds, for the auditor's panics.
    noun: &'static str,
}

pub type Nodes = Slots<Node>;

impl<T> Slots<T> {
    pub(super) fn new(noun: &'static str, items: Vec<T>) -> Self {
        Slots {
            slots: items.into_iter().map(Some).collect(),
            noun,
        }
    }

    /// Slot count (includes slots on loan to shard views).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub fn push(&mut self, item: T) {
        self.slots.push(Some(item));
    }

    /// Whether this view currently owns slot `i`'s state.
    pub(super) fn owns(&self, i: usize) -> bool {
        self.slots.get(i).is_some_and(Option::is_some)
    }

    /// Move slot `i` out of `from` into `self`, if `from` holds it.
    fn take_from(&mut self, from: &mut Self, i: usize) {
        if let Some(item) = from.slots.get_mut(i).and_then(Option::take) {
            self.slots[i] = Some(item);
        }
    }

    /// A view of the same shape as `self` that owns slot `i` alone.
    fn lend(&mut self, i: usize) -> Self {
        let mut view = Slots {
            slots: self.slots.iter().map(|_| None).collect(),
            noun: self.noun,
        };
        view.take_from(self, i);
        view
    }

    /// Iterate every slot. Panics on a lent slot, so it is only callable
    /// on the master view (reports, chaos hooks).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let noun = self.noun;
        self.slots.iter().enumerate().map(move |(i, s)| {
            s.as_ref().unwrap_or_else(|| {
                panic!("ownership auditor: iterated {noun} {i} while it is loaned to a shard view")
            })
        })
    }
}

fn not_owned(noun: &str, i: usize) -> ! {
    panic!(
        "ownership auditor: touched {noun} {i} from a shard view that does not own it \
         (cross-shard access while draining in parallel)"
    )
}

impl<T> Index<usize> for Slots<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        self.slots[i]
            .as_ref()
            .unwrap_or_else(|| not_owned(self.noun, i))
    }
}

impl<T> IndexMut<usize> for Slots<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        let noun = self.noun;
        self.slots[i].as_mut().unwrap_or_else(|| not_owned(noun, i))
    }
}

/// Every registered program, stored with the node it is homed on (its
/// mutable record lives with the shard that hosts its root thread) and
/// indexed by [`ProgramId`] through a directory: `self.programs[p as
/// usize]` works from any view that owns `p`'s home and trips the auditor
/// from any other.
pub struct Programs {
    /// `ProgramId → (home, position in the home's vector)`. Fixed when
    /// the program is added, before any window opens, so views share it.
    dir: Arc<Vec<(usize, usize)>>,
    by_home: Slots<Vec<Program>>,
}

impl Programs {
    pub(super) fn new() -> Self {
        Programs {
            dir: Arc::default(),
            by_home: Slots::new("programs homed on node", Vec::new()),
        }
    }

    pub fn len(&self) -> usize {
        self.dir.len()
    }

    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }

    pub(super) fn push(&mut self, p: Program) {
        while self.by_home.len() <= p.home {
            self.by_home.push(Vec::new());
        }
        let homed = &mut self.by_home[p.home];
        Arc::make_mut(&mut self.dir).push((p.home, homed.len()));
        homed.push(p);
    }

    /// Whether this view owns program `p`'s record (owns its home).
    fn owns(&self, p: usize) -> bool {
        self.by_home.owns(self.dir[p].0)
    }

    /// Every program in id order (master view only, like [`Slots::iter`]).
    pub fn iter(&self) -> impl Iterator<Item = &Program> {
        self.dir.iter().map(|&(home, at)| &self.by_home[home][at])
    }
}

impl Index<usize> for Programs {
    type Output = Program;
    fn index(&self, p: usize) -> &Program {
        let (home, at) = self.dir[p];
        &self.by_home[home][at]
    }
}

impl IndexMut<usize> for Programs {
    fn index_mut(&mut self, p: usize) -> &mut Program {
        let (home, at) = self.dir[p];
        &mut self.by_home[home][at]
    }
}

/// Which side of a parallel batch this `Cluster` value is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Role {
    /// The real cluster: owns everything, applies effects immediately.
    Master,
    /// A per-shard worker view created by `split_shards`: owns exactly
    /// one node (and the programs homed there); `deliveries` counts the
    /// messages it has dispatched this batch, tagging deferred ops so the
    /// merge can apply them at the matching point of the canonical order.
    Worker { shard: usize, deliveries: u64 },
}

/// Immutable per-node data shared with every worker view ([`Arc`]), so a
/// shard can read a *peer's* static configuration without owning it:
/// node profiles, file-system trees (set up before the run), and the
/// build-time class repositories. Snapshotted lazily at the first
/// parallel batch; sound because none of these grow at a program's home
/// after deployment (mid-run repo growth happens only at worker nodes,
/// which resolve their own classes live).
pub(super) struct Shared {
    cfgs: Vec<NodeConfig>,
    fss: Vec<SimFs>,
    pub(super) repos: Vec<HashMap<String, Arc<ClassDef>>>,
}

/// A cross-shard effect recorded by a worker view during a parallel
/// batch, applied by the master at the exact point of the canonical
/// `(time, seq, dst)` merge where a sequential run would have applied it.
/// Counter ops commute, but applying *all* of them in merged delivery
/// order keeps even the order-sensitive ones (`PushMigration`,
/// first-wins `FailProgram`) bit-identical.
#[derive(Debug)]
pub(super) enum DeferredOp {
    /// `report.instructions += n` (slice retirement for a foreign-homed
    /// program running on this shard's node).
    AddInstructions(ProgramId, u64),
    /// `report.classes_shipped += n` (on-demand class requests issued).
    AddClassesShipped(ProgramId, u64),
    /// `report.class_bytes += n`.
    AddClassBytes(ProgramId, u64),
    /// `report.object_bytes += n`.
    AddObjectBytes(ProgramId, u64),
    /// One object fault resolved: `object_faults += 1`, `object_bytes += n`.
    AddObjectFault(ProgramId, u64),
    /// `report.migrations.push(t)` (restore completed on this shard).
    PushMigration(ProgramId, MigrationTimings),
    /// Typed program failure (first one wins; `fail_program` guards).
    FailProgram {
        program: ProgramId,
        error: String,
        at: u64,
    },
    /// Mark the session hosted at `node` `Done` so stale events cannot
    /// wake it.
    RetireSession { node: usize, session: SessionId },
    /// A roam replaced `old` with `new` (destination node, session) in
    /// the episode's valid set.
    ReplaceValidSession {
        program: ProgramId,
        old: SessionId,
        new: (usize, SessionId),
    },
}

impl Cluster {
    /// Mint a session id for a session created *at* `node` (the handler's
    /// destination). Ids are striped — high half names the node, low half
    /// counts its allocations — and the counter lives with the node, so
    /// shard views draining in parallel mint exactly the ids a sequential
    /// run would (and a view minting for a node it was not lent trips the
    /// auditor). Deterministic across schedulers because each node's
    /// deliveries run in the same canonical order under all of them.
    pub(super) fn alloc_session(&mut self, node: usize) -> SessionId {
        let c = &mut self.nodes[node].next_session;
        *c += 1;
        ((node as u64 + 1) << 32) | *c
    }

    /// A peer node's profile: live when this view owns the node (always,
    /// sequentially), else from the immutable snapshot.
    pub(super) fn peer_cfg(&self, node: usize) -> &NodeConfig {
        if self.nodes.owns(node) {
            &self.nodes[node].cfg
        } else {
            let shared = self.shared.as_ref().unwrap_or_else(|| {
                panic!("ownership auditor: read node {node}'s config with no shared snapshot")
            });
            &shared.cfgs[node]
        }
    }

    /// A peer node's simulated filesystem (trees are fixed after scenario
    /// setup): live when owned, else from the snapshot.
    pub(super) fn peer_fs(&self, node: usize) -> &SimFs {
        if self.nodes.owns(node) {
            &self.nodes[node].fs
        } else {
            let shared = self.shared.as_ref().unwrap_or_else(|| {
                panic!("ownership auditor: read node {node}'s fs with no shared snapshot")
            });
            &shared.fss[node]
        }
    }

    /// Record a cross-shard effect. When this view owns the target —
    /// always, on the master — the op applies immediately: sequential
    /// runs take this path for every op, so they are byte-for-byte the
    /// old engine. A worker view that does not own the target queues the
    /// op, tagged with the current delivery index, for the master's merge
    /// to replay.
    pub(super) fn defer(&mut self, op: DeferredOp) {
        let owned = match &op {
            DeferredOp::AddInstructions(p, _)
            | DeferredOp::AddClassesShipped(p, _)
            | DeferredOp::AddClassBytes(p, _)
            | DeferredOp::AddObjectBytes(p, _)
            | DeferredOp::AddObjectFault(p, _)
            | DeferredOp::PushMigration(p, _)
            | DeferredOp::FailProgram { program: p, .. }
            | DeferredOp::ReplaceValidSession { program: p, .. } => self.programs.owns(*p as usize),
            DeferredOp::RetireSession { node, .. } => self.nodes.owns(*node),
        };
        if owned {
            self.apply_op(op);
        } else {
            let Role::Worker { deliveries, .. } = self.role else {
                panic!("master deferred an op for state it does not own: {op:?}");
            };
            self.deferred_out.push((deliveries - 1, op));
        }
    }

    fn apply_op(&mut self, op: DeferredOp) {
        match op {
            DeferredOp::AddInstructions(p, n) => {
                self.programs[p as usize].report.instructions += n;
            }
            DeferredOp::AddClassesShipped(p, n) => {
                self.programs[p as usize].report.classes_shipped += n;
            }
            DeferredOp::AddClassBytes(p, n) => {
                self.programs[p as usize].report.class_bytes += n;
            }
            DeferredOp::AddObjectBytes(p, n) => {
                self.programs[p as usize].report.object_bytes += n;
            }
            DeferredOp::AddObjectFault(p, bytes) => {
                let report = &mut self.programs[p as usize].report;
                report.object_faults += 1;
                report.object_bytes += bytes;
            }
            DeferredOp::PushMigration(p, t) => {
                self.programs[p as usize].report.migrations.push(t);
            }
            DeferredOp::FailProgram { program, error, at } => {
                self.fail_program(program, error, at);
            }
            DeferredOp::RetireSession { node, session } => {
                self.mark_done(node, session);
            }
            DeferredOp::ReplaceValidSession { program, old, new } => {
                let p = &mut self.programs[program as usize];
                if let Some(slot) = p.valid_sessions.iter_mut().find(|(_, s)| *s == old) {
                    *slot = new;
                }
            }
        }
    }

    /// Mark the session hosted at `node` `Done`: locally if this view owns
    /// the node, else via a deferred [`DeferredOp::RetireSession`]. Used
    /// at cross-shard failure sites where the serving node cannot read the
    /// session.
    pub(super) fn retire_session(&mut self, node: usize, session: SessionId) {
        self.defer(DeferredOp::RetireSession { node, session });
    }

    /// Build the immutable cross-shard snapshot (first parallel batch
    /// only). Sound because configs are fixed at construction, fs trees
    /// at scenario setup, and the class repos a foreign shard may consult
    /// (program homes — see `lookup_class`) are static after deployment.
    fn ensure_shared(&mut self) {
        if self.shared.is_some() {
            return;
        }
        let mut cfgs = Vec::with_capacity(self.nodes.len());
        let mut fss = Vec::with_capacity(self.nodes.len());
        let mut repos = Vec::with_capacity(self.nodes.len());
        for n in self.nodes.iter() {
            cfgs.push(n.cfg.clone());
            fss.push(n.fs.clone());
            repos.push(n.repo.clone());
        }
        self.shared = Some(Arc::new(Shared { cfgs, fss, repos }));
    }

    /// Open a window: one worker view per drained shard, lent that shard's
    /// node — with the sessions, thread owners, session counter and class
    /// memo it carries — and the programs homed there. Everything else
    /// stays behind, so any cross-shard touch trips an auditor.
    fn split_shards(&mut self, shards: &[usize]) -> Vec<Cluster> {
        shards
            .iter()
            .map(|&s| Cluster {
                nodes: self.nodes.lend(s),
                programs: Programs {
                    dir: Arc::clone(&self.programs.dir),
                    by_home: self.programs.by_home.lend(s),
                },
                programs_done: 0,
                slice_ns: self.slice_ns,
                code_shipping: self.code_shipping,
                buf_pool: Arc::clone(&self.buf_pool),
                chaos_enabled: false,
                retry_policy: self.retry_policy,
                migration_timeout_ns: self.migration_timeout_ns,
                chaos: ChaosCounters::default(),
                pools: Vec::new(),
                cpu_contention: self.cpu_contention,
                role: Role::Worker {
                    shard: s,
                    deliveries: 0,
                },
                shared: self.shared.clone(),
                deferred_out: Vec::new(),
                deferred_in: Vec::new(),
            })
            .collect()
    }

    /// Close a worker view after its batch drained: the lent slots move
    /// back, and the view's deferred ops queue up for `apply_deferred` to
    /// replay during the merge.
    fn absorb_shard(&mut self, mut view: Cluster) {
        let Role::Worker { shard, .. } = view.role else {
            panic!("absorbed a non-worker view");
        };
        self.nodes.take_from(&mut view.nodes, shard);
        self.programs
            .by_home
            .take_from(&mut view.programs.by_home, shard);
        self.programs_done += view.programs_done;
        if self.deferred_in.len() <= shard {
            self.deferred_in.resize_with(shard + 1, VecDeque::new);
        }
        debug_assert!(
            self.deferred_in[shard].is_empty(),
            "shard {shard} still had unapplied deferred ops from the previous batch"
        );
        self.deferred_in[shard] = view.deferred_out.into();
    }

    /// [`sod_net::World::drain_parallel`]: lend each batch's shard to a
    /// view, drain the views (on worker threads when the window is large
    /// enough), take everything back.
    pub(super) fn drain_window(
        &mut self,
        topo: &mut Topology,
        batches: &mut Vec<ShardBatch<Msg>>,
        horizon: u64,
        prov_base: u64,
        threads: usize,
        max_events: u64,
    ) -> Vec<ShardLog<Msg>> {
        self.ensure_shared();
        let shards: Vec<usize> = batches.iter().map(|b| b.shard).collect();
        let views = self.split_shards(&shards);
        let (logs, views) = sod_net::drain_batches_scoped(
            topo,
            std::mem::take(batches),
            horizon,
            prov_base,
            threads,
            max_events,
            views,
            |view: &mut Cluster, dst, msg, ctx| view.on_message(dst, msg, ctx),
        );
        for view in views {
            self.absorb_shard(view);
        }
        logs
    }

    /// [`sod_net::World::apply_deferred`]: replay what `shard`'s delivery
    /// number `delivery` deferred.
    pub(super) fn apply_deferred_ops(&mut self, shard: usize, delivery: u64) {
        if shard >= self.deferred_in.len() {
            return;
        }
        while let Some((tag, _)) = self.deferred_in[shard].front() {
            if *tag != delivery {
                break;
            }
            let (_, op) = self.deferred_in[shard].pop_front().unwrap();
            self.apply_op(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::session::Owner;
    use super::*;

    fn two_node_cluster() -> Cluster {
        Cluster::new(vec![
            Node::new(NodeConfig::cluster("a")),
            Node::new(NodeConfig::cluster("b")),
        ])
    }

    #[test]
    fn session_ids_are_striped_per_node() {
        let mut c = two_node_cluster();
        assert_eq!(c.alloc_session(0), (1u64 << 32) | 1);
        assert_eq!(c.alloc_session(1), (2u64 << 32) | 1);
        assert_eq!(c.alloc_session(0), (1u64 << 32) | 2);
        // State of both nodes that a window over node 1 must carry out and
        // bring back (node 1's) or leave alone (node 0's).
        let stay = c.add_program(0, "A", "m", Vec::new());
        let go = c.add_program(1, "B", "m", Vec::new());
        for (node, program) in [(0, stay), (1, go)] {
            c.nodes[node].thread_owner.insert(7, Owner::Root(program));
            c.nodes[node]
                .live_sessions
                .insert(40 + node as u64, program);
        }
        // A shard view minting for its own node continues the exact
        // stripe a sequential run would use, and the master resumes it
        // after the merge.
        c.ensure_shared();
        let mut views = c.split_shards(&[1]);
        assert_eq!(views[0].alloc_session(1), (2u64 << 32) | 2);
        assert_eq!(views[0].programs[go as usize].class, "B");
        assert!(!c.programs.owns(go as usize) && !c.nodes.owns(1));
        assert!(matches!(
            views[0].nodes[1].thread_owner.get(&7),
            Some(Owner::Root(p)) if *p == go
        ));
        // The sibling's state never left the master.
        assert_eq!(c.programs[stay as usize].class, "A");
        assert!(c.nodes[0].thread_owner.contains_key(&7));
        views[0].programs[go as usize].slices_run = 3;
        let view = views.pop().unwrap();
        c.absorb_shard(view);
        assert_eq!(c.alloc_session(1), (2u64 << 32) | 3);
        assert_eq!(c.alloc_session(0), (1u64 << 32) | 3);
        assert_eq!(c.programs[go as usize].slices_run, 3);
        assert_eq!(c.programs.iter().count(), 2);
        for (node, program) in [(0, stay), (1, go)] {
            assert!(matches!(
                c.nodes[node].thread_owner.get(&7),
                Some(Owner::Root(p)) if *p == program
            ));
            assert_eq!(
                c.nodes[node].live_sessions.get(&(40 + node as u64)),
                Some(&program)
            );
        }
    }

    #[test]
    #[should_panic(expected = "ownership auditor")]
    fn auditor_catches_cross_shard_node_access() {
        let mut c = two_node_cluster();
        c.ensure_shared();
        let views = c.split_shards(&[0]);
        // Node 1 was loaned to another shard: touching it from this view
        // is exactly the data race the repartition forbids.
        let _ = &views[0].nodes[1];
    }

    #[test]
    #[should_panic(expected = "ownership auditor")]
    fn auditor_catches_session_minted_off_shard() {
        let mut c = two_node_cluster();
        c.ensure_shared();
        let mut views = c.split_shards(&[0]);
        let _ = views[0].alloc_session(1);
    }
}
