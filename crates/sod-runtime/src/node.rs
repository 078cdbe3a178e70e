//! Node model: configuration profiles and per-node state.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use sod_vm::class::ClassDef;
use sod_vm::idhash::IdMap;
use sod_vm::interp::Vm;
use sod_vm::wire::class_wire_bytes;

use crate::costs::AGENT_IDLE_SCALE_PER_MILLE;
use crate::engine::{Owner, WorkerSession};
use crate::fs::SimFs;
use crate::metrics::NetBytes;
use crate::msg::{ProgramId, SessionId};

/// Static node parameters.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    pub name: String,
    /// CPU speed relative to the reference cluster Xeon, in per-mille
    /// (1000 = reference; the iPhone 3G profile uses ≈ 60).
    pub cpu_speed_per_mille: u64,
    /// Whether the node's JVM exposes JVMTI (JamVM on the device does not;
    /// capture/restore fall back to the portable Java-serialization path).
    pub has_jvmti: bool,
    /// Per-mille execution cost scale (≥1000); models the idle overhead of
    /// the attached tooling agent (paper's C1) or a slower JIT.
    pub exec_scale_per_mille: u32,
    /// CPU cost of scanning one byte of file data, in ns ×100 (JIT-ed Java
    /// ≈ 50 ⇒ 0.5 ns/B). JESSICA2's slow I/O library uses a large value.
    pub io_scan_ns_per_byte_x100: u64,
    /// Guest heap budget; allocations beyond it raise `OutOfMemoryError`
    /// (exception-driven offload experiments).
    pub mem_limit: Option<u64>,
    /// Build this node's VM as the name-resolution reference
    /// (`Vm::reference`: inline caches that never fill, so every call
    /// takes the interpreter's full path). Differential-testing aid —
    /// reports must be bit-identical either way.
    pub slow_resolve: bool,
}

impl NodeConfig {
    /// A cluster node as in the paper's testbed, running the SODEE
    /// middleware (JVMTI agent attached).
    pub fn cluster(name: impl Into<String>) -> Self {
        NodeConfig {
            name: name.into(),
            cpu_speed_per_mille: 1000,
            has_jvmti: true,
            exec_scale_per_mille: AGENT_IDLE_SCALE_PER_MILLE,
            io_scan_ns_per_byte_x100: 50,
            mem_limit: None,
            slow_resolve: false,
        }
    }

    /// A plain JVM without any agent (the paper's "JDK" column).
    pub fn plain(name: impl Into<String>) -> Self {
        NodeConfig {
            exec_scale_per_mille: 1000,
            ..NodeConfig::cluster(name)
        }
    }

    /// The iPhone 3G profile: 412 MHz ARM (≈ 6 % of the Xeon per-core with
    /// an interpreting JamVM), no JVMTI, 128 MB RAM.
    pub fn device(name: impl Into<String>) -> Self {
        NodeConfig {
            name: name.into(),
            cpu_speed_per_mille: 60,
            has_jvmti: false,
            exec_scale_per_mille: 1000,
            io_scan_ns_per_byte_x100: 400,
            mem_limit: Some(96 << 20),
            slow_resolve: false,
        }
    }

    /// A capacious cloud node (exception-driven offload target).
    pub fn cloud(name: impl Into<String>) -> Self {
        NodeConfig {
            mem_limit: None,
            ..NodeConfig::cluster(name)
        }
    }

    /// Scale a duration by this node's CPU speed.
    pub fn scale(&self, ns: u64) -> u64 {
        ns * 1000 / self.cpu_speed_per_mille.max(1)
    }
}

/// Per-node runtime state: everything this node owns apart from the
/// programs homed on it (see `engine::Cluster::programs`). The engine
/// keeps its per-node bookkeeping here too — hosted sessions, thread
/// owners, the session-id counter, the class memo — so a handler for this
/// node's events finds all of it in the one `Node`.
pub struct Node {
    pub cfg: NodeConfig,
    /// The node's VM (home programs and restored worker threads).
    pub vm: Vm,
    pub fs: SimFs,
    /// Class files available locally (the home node holds the application;
    /// workers populate this as classes ship in). Entries are shared
    /// [`Arc`]s: shipping a class clones a pointer, not the method bodies.
    pub repo: HashMap<String, Arc<ClassDef>>,
    /// The code cache's peer model: classes each peer node *provably*
    /// holds, learned from traffic this node sent it (bundled `State`
    /// classes and `ClassReply` payloads). Classes are never unloaded, so
    /// an entry stays valid for the life of the run; destination-aware
    /// bundling consults this to skip redundant re-ships to warm workers.
    pub peer_classes: HashMap<usize, HashSet<String>>,
    /// Outbound payload bytes this node put on the network, broken out as
    /// state / class / object (surfaces code-cache savings per node).
    pub net_sent: NetBytes,
    /// Payload bytes lost to fault injection, attributed to this node:
    /// dropped outbound messages (crash/partition/seeded loss) plus state
    /// that arrived here but was superseded before restore. Always zero
    /// when chaos is off; balances `net_sent` against receive-side
    /// accounting (`sent = accounted + lost`).
    pub net_lost: NetBytes,
    /// Pending client requests (socket accept queue), served FIFO. A ring
    /// buffer: fleet generators push hundreds of requests, so the O(n)
    /// `Vec::remove(0)` pop would make every accept linear in the backlog.
    pub sock_queue: VecDeque<String>,
    /// Thread ids parked in `sock_accept` waiting for a request, served
    /// FIFO (first waiter gets the next request).
    pub sock_waiters: VecDeque<usize>,
    /// Execution slices dispatched on this node (utilization accounting).
    pub slices: u64,
    /// Virtual ns spent executing guest code (CPU-scaled; utilization).
    pub busy_ns: u64,
    /// Simulator events delivered to this node, counted at message
    /// dispatch.
    pub events: u64,
    /// Sessions routed here but not yet arrived (pool placement or drain
    /// roam chosen, restore still in flight). Pool placement counts these
    /// alongside hosted sessions: during a burst every capture resolves
    /// before the first restore lands, so hosted counts alone would send
    /// the whole burst to one member.
    pub inbound_sessions: u64,
    /// Every worker session that ever arrived here, by id. Entries are
    /// never removed — a finished or killed session stays, in its `Done`
    /// phase, so a stale message naming it finds it and is ignored. Looked
    /// up several times per object fault, by an id this system minted, and
    /// never iterated into output: an [`IdMap`] (as is `thread_owner`).
    pub(crate) sessions: IdMap<SessionId, WorkerSession>,
    /// Who owns each of this node's VM threads, by thread id: a program's
    /// root thread or a restored worker session. An unowned thread never
    /// runs.
    pub(crate) thread_owner: IdMap<usize, Owner>,
    /// Session ids minted here so far (the low half of the striped id;
    /// see `Cluster::alloc_session`).
    pub(crate) next_session: u64,
    /// Memoized [`ClassDef::referenced_classes`], by class name (class
    /// files are immutable once deployed, and names are cluster-unique):
    /// `BundleReachable` walks the reference closure on every migration,
    /// and rescanning every method body each time would put an O(code
    /// size) pass on the migration hot path.
    class_refs: HashMap<String, Vec<String>>,
    /// Memoized [`class_wire_bytes`], same immutability argument: the
    /// streaming size count walks every method body, so it runs once per
    /// class here, not per migration, class-serve and bundled load.
    class_sizes: HashMap<String, u64>,
    /// Worker sessions hosted here that have not reached their `Done`
    /// phase, each with the program it executes for: the index behind the
    /// pool controller's load, placement and drain queries, which would
    /// otherwise scan the never-pruned `sessions`. Invariant: exactly the
    /// entries of `sessions` with a phase other than `Done`. A session
    /// enters where it is created (segment arrival) and leaves where it
    /// is marked done (`Cluster::mark_done`). Ordered, because drains
    /// walk it in ascending session-id order.
    pub(crate) live_sessions: BTreeMap<SessionId, ProgramId>,
    /// Virtual time this node joined the cluster (0 for nodes present from
    /// the start; the spawn instant for elastic pool members).
    pub joined_at_ns: u64,
    /// Virtual time this node retired (drained pool member), if it did.
    /// Utilization denominators use the joined→retired lifetime.
    pub retired_at_ns: Option<u64>,
}

impl Node {
    pub fn new(cfg: NodeConfig) -> Self {
        let mut vm = if cfg.slow_resolve {
            Vm::reference()
        } else {
            Vm::new()
        };
        vm.cost_scale_per_mille = cfg.exec_scale_per_mille;
        vm.mem_limit = cfg.mem_limit;
        Node {
            cfg,
            vm,
            fs: SimFs::new(),
            repo: HashMap::new(),
            peer_classes: HashMap::new(),
            net_sent: NetBytes::default(),
            net_lost: NetBytes::default(),
            sock_queue: VecDeque::new(),
            sock_waiters: VecDeque::new(),
            slices: 0,
            busy_ns: 0,
            events: 0,
            inbound_sessions: 0,
            sessions: IdMap::default(),
            thread_owner: IdMap::default(),
            next_session: 0,
            class_refs: HashMap::new(),
            class_sizes: HashMap::new(),
            live_sessions: BTreeMap::new(),
            joined_at_ns: 0,
            retired_at_ns: None,
        }
    }

    /// Make a class available in the node's repository *and* load it into
    /// the VM (home-node deployment).
    pub fn deploy(&mut self, class: &ClassDef) -> sod_vm::error::VmResult<()> {
        self.vm.load_class(class)?;
        self.repo
            .insert(class.name.clone(), Arc::new(class.clone()));
        Ok(())
    }

    /// Register the class file without loading it (it will ship on demand).
    pub fn stage(&mut self, class: &ClassDef) {
        self.repo
            .insert(class.name.clone(), Arc::new(class.clone()));
    }

    /// Memoized [`ClassDef::referenced_classes`] (the name is cloned only
    /// on the miss path; `entry()` would allocate it on every hit).
    pub(crate) fn refs_of(&mut self, def: &ClassDef) -> &[String] {
        if !self.class_refs.contains_key(&def.name) {
            self.class_refs
                .insert(def.name.clone(), def.referenced_classes());
        }
        &self.class_refs[&def.name]
    }

    /// Memoized [`class_wire_bytes`].
    pub(crate) fn class_size(&mut self, def: &ClassDef) -> u64 {
        if let Some(&b) = self.class_sizes.get(&def.name) {
            return b;
        }
        let b = class_wire_bytes(def);
        self.class_sizes.insert(def.name.clone(), b);
        b
    }

    /// Whether `peer` is known to hold `class` (sound, not complete: a
    /// `false` only means this node cannot prove it).
    pub fn peer_has_class(&self, peer: usize, class: &str) -> bool {
        self.peer_classes
            .get(&peer)
            .is_some_and(|set| set.contains(class))
    }

    /// Record that `peer` holds `class` (it was shipped there, or observed
    /// in traffic that proves it).
    pub fn note_peer_class(&mut self, peer: usize, class: &str) {
        self.peer_classes
            .entry(peer)
            .or_default()
            .insert(class.to_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod_asm::builder::ClassBuilder;

    #[test]
    fn profiles_differ_as_expected() {
        let c = NodeConfig::cluster("n0");
        let d = NodeConfig::device("phone");
        assert!(c.has_jvmti && !d.has_jvmti);
        assert!(d.cpu_speed_per_mille < c.cpu_speed_per_mille);
        assert!(c.exec_scale_per_mille > 1000); // agent idle overhead
        assert_eq!(NodeConfig::plain("p").exec_scale_per_mille, 1000);
    }

    #[test]
    fn scaling() {
        let d = NodeConfig::device("phone");
        assert_eq!(d.scale(60), 1000); // ~17x slower
    }

    #[test]
    fn deploy_loads_class() {
        let class = ClassBuilder::new("A")
            .method("m", &[], |m| {
                m.line();
                m.pushi(1).retv();
            })
            .build()
            .unwrap();
        let mut n = Node::new(NodeConfig::cluster("n"));
        n.deploy(&class).unwrap();
        assert!(n.vm.has_class("A"));
        assert!(n.repo.contains_key("A"));
        // VM inherits the agent cost scale.
        assert_eq!(n.vm.cost_scale_per_mille, AGENT_IDLE_SCALE_PER_MILLE);
    }

    #[test]
    fn peer_class_tracking() {
        let mut n = Node::new(NodeConfig::cluster("n"));
        assert!(!n.peer_has_class(2, "A"));
        n.note_peer_class(2, "A");
        assert!(n.peer_has_class(2, "A"));
        // Knowledge is per peer, not global.
        assert!(!n.peer_has_class(3, "A"));
        assert!(!n.peer_has_class(2, "B"));
        // Re-noting is idempotent.
        n.note_peer_class(2, "A");
        assert_eq!(n.peer_classes[&2].len(), 1);
    }
}
