//! Elastic node pools: the declarative spec and per-pool runtime state.
//!
//! A pool is a named group of nodes sharing one template [`NodeConfig`]
//! that grows and shrinks at runtime under a [`ScalePolicy`], evaluated by
//! the controller tick in `engine/elastic.rs`. Migration plans target a
//! pool by *sentinel destination* ([`POOL_DEST_BASE`]` + pool index`),
//! resolved to the least-loaded live member at *ship* time (when the
//! capture completes) — so placements see every member the controller
//! spawned while the stack was being frozen, deterministically.

use crate::node::NodeConfig;

/// Sentinel base for pool destinations in
/// [`crate::msg::SegmentSpec::dest`]: `POOL_DEST_BASE + pool_index` means
/// "any live member of that pool", resolved when the captured state
/// ships (capture-done time, not capture-start time). Far above
/// any realistic node count, far below [`usize::MAX / 2`] (the
/// whole-stack frame sentinel), so the two sentinels can never collide.
pub const POOL_DEST_BASE: usize = 1 << 20;

/// Default controller tick period: 1 ms of virtual time.
pub const DEFAULT_POOL_TICK_NS: u64 = 1_000_000;

/// Pluggable autoscaling policies. Each tick the controller computes the
/// policy's *target* size and steps the membership toward it: scale-out
/// covers the full gap in one tick (a burst that needs five members must
/// not wait five ticks), scale-in drains one member per tick. Every
/// decision is attributable to one tick instant and replays
/// bit-identically from the seed.
///
/// *Load* is the number of active migrated sessions hosted on the pool's
/// live and draining members, plus captures staged toward the pool whose
/// placement has not resolved yet; *live* is the count of members
/// accepting placements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalePolicy {
    /// Threshold policy on per-member queue depth: grow to `⌈load/high⌉`
    /// members when the backlog outruns the current size, drain one when
    /// `load < low × live` (never below the pool's base size). Stable only
    /// if `low·L ≤ high·(L−1) + 1` for every live size `L` above base;
    /// otherwise some constant load drains a member and spawns it back on
    /// the next tick, forever (`{high: 2, low: 2}` at live 2, load 3), and
    /// the facade rejects the spec.
    QueueDepth { high: u64, low: u64 },
    /// Latency-target policy: spawn one node when the p99 completion
    /// latency of programs that finished inside the last tick window
    /// exceeds `budget_ns`; drain one when the pool is over base size and
    /// load no longer covers every live member.
    P99Breach { budget_ns: u64 },
    /// Step policy: track a target size of `⌈load / per_node⌉` members,
    /// clamped to `[base, max]`.
    StepLoad { per_node: u64 },
}

/// A pool declaration handed to the engine (built by the `sod` facade's
/// `Pool` builder).
#[derive(Clone, Debug)]
pub struct PoolSpec {
    /// Pool name; members are named `"{name}-{i}"` in spawn order.
    pub name: String,
    /// Node profile every member is created from.
    pub template: NodeConfig,
    /// Members provisioned up-front (live from t = 0) and the floor the
    /// pool drains back to.
    pub base: usize,
    /// Hard ceiling on concurrent members (live + provisioning).
    pub max: usize,
    /// The autoscaling policy.
    pub policy: ScalePolicy,
    /// Cold-start latency: a spawned member accepts placements only after
    /// this much virtual time has elapsed (provisioning).
    pub cold_start_ns: u64,
    /// Controller tick period.
    pub tick_ns: u64,
}

/// Lifecycle of one pool member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum MemberState {
    /// Spawned; cold start in progress. Not placeable yet.
    Provisioning,
    /// Accepting placements.
    Live,
    /// Scale-in under way: no new placements; hosted stacks migrate off
    /// via whole-stack roaming, then the member retires.
    Draining,
    /// Gone (drained out, or crashed by fault injection). Never revived;
    /// replacements are fresh spawns.
    Retired,
}

/// One member's runtime record. The node itself lives in
/// [`crate::engine::Cluster::nodes`] (nodes are never removed — a retired
/// member's slot keeps its metrics).
pub(super) struct PoolMember {
    pub(super) node: usize,
    pub(super) state: MemberState,
}

/// Per-pool runtime state owned by the cluster.
pub(super) struct PoolRuntime {
    pub(super) spec: PoolSpec,
    pub(super) members: Vec<PoolMember>,
    /// Members ever created (naming counter for `"{name}-{i}"`).
    pub(super) created: usize,
    /// Nodes spawned beyond the initial base.
    pub(super) spawns: u64,
    /// Members drained and retired gracefully.
    pub(super) drains: u64,
    /// Captures staged toward this pool whose placement has not resolved
    /// yet (placement happens at ship time, when the freeze completes).
    /// Counted into the pool's load so a burst is visible to the policy
    /// *during* the captures, before any member has been chosen.
    pub(super) pending: u64,
    /// Peak concurrent size (live + provisioning) observed.
    pub(super) peak: u64,
    /// Minimum live size observed.
    pub(super) min: u64,
}

impl PoolRuntime {
    pub(super) fn live_members(&self) -> impl Iterator<Item = usize> + '_ {
        self.members
            .iter()
            .filter(|m| m.state == MemberState::Live)
            .map(|m| m.node)
    }

    pub(super) fn count(&self, state: MemberState) -> usize {
        self.members.iter().filter(|m| m.state == state).count()
    }
}
