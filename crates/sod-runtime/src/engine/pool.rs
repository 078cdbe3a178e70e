//! Elastic node pools: the declarative spec, the scaling decision, and
//! per-pool runtime state.
//!
//! A pool is a named group of nodes sharing one template [`NodeConfig`]
//! that grows and shrinks at runtime under a [`ScalePolicy`]. Every fact
//! about the policy lives here: [`PoolSpec::decide`] maps what the
//! controller tick in `engine/elastic.rs` observed to how many members to
//! spawn and drain, without touching the cluster, and the spec's
//! validation refuses the inputs `decide` cannot serve. Migration plans
//! target a pool by *sentinel destination* ([`POOL_DEST_BASE`]` + pool
//! index`), resolved to the least-loaded live member at *ship* time (when
//! the capture completes) — so placements see every member the controller
//! spawned while the stack was being frozen, deterministically.

use crate::metrics::percentile_nearest_rank;
use crate::node::NodeConfig;

/// Sentinel base for pool destinations in
/// [`crate::msg::SegmentSpec::dest`]: `POOL_DEST_BASE + pool_index` means
/// "any live member of that pool", resolved when the captured state
/// ships (capture-done time, not capture-start time). Far above
/// any realistic node count, far below [`usize::MAX / 2`] (the
/// whole-stack frame sentinel), so the two sentinels can never collide.
pub const POOL_DEST_BASE: usize = 1 << 20;

/// The controller tick period, 1 ms of virtual time: every pool decides
/// once per period, and [`ScalePolicy::P99Breach`] watches the finishes
/// of the last period.
pub const POOL_TICK_NS: u64 = 1_000_000;

/// Pluggable autoscaling policies. Each tick the controller computes the
/// policy's *target* size and steps the membership toward it: scale-out
/// covers the full gap in one tick (a burst that needs five members must
/// not wait five ticks); scale-in drains one member per tick under
/// `QueueDepth` and `P99Breach`, and straight to the target under
/// `StepLoad`. Every decision is attributable to one tick instant and
/// replays bit-identically from the seed.
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
    /// [`Cluster::add_pool`](super::Cluster::add_pool) rejects the spec.
    QueueDepth { high: u64, low: u64 },
    /// Latency-target policy: spawn one node when the p99 completion
    /// latency of programs that finished without error inside the last
    /// tick window (`now − POOL_TICK_NS < finished_at ≤ now`) exceeds
    /// `budget_ns`; drain one when the pool is over base size and load no
    /// longer covers every live member.
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
}

/// Why [`Cluster::add_pool`](super::Cluster::add_pool) refused a spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolSpecError {
    /// The size bounds break `1 ≤ base ≤ max`.
    Size,
    /// `QueueDepth` thresholds that flap (see [`ScalePolicy::QueueDepth`]).
    Flap,
}

/// What a controller tick sees of one pool before it decides.
#[derive(Clone, Copy, Debug)]
pub(super) struct Observation {
    /// Members accepting placements.
    pub(super) live: usize,
    /// Members spawned whose cold start has not elapsed.
    pub(super) provisioning: usize,
    /// Active sessions on live and draining members, plus captures staged
    /// toward the pool and not yet placed.
    pub(super) load: u64,
    /// Every program of the run is done.
    pub(super) all_done: bool,
    /// Nearest-rank p99 latency of the ok finishes in the tick window
    /// (`None` when there are none).
    pub(super) p99: Option<u64>,
}

/// What a controller tick does to one pool.
#[derive(Debug)]
pub(super) struct Decision {
    /// Members to spawn (each enters `Provisioning`).
    pub(super) spawn: usize,
    /// Newest live members to mark `Draining`.
    pub(super) drain: usize,
}

impl PoolSpec {
    /// The spec's checks: `1 ≤ base ≤ max`, and [`ScalePolicy::QueueDepth`]'s
    /// no-flap rule, under which [`PoolSpec::decide`] never reverses a
    /// decision on the next tick under constant load.
    pub(super) fn validate(&self) -> Result<(), PoolSpecError> {
        if self.base < 1 || self.max < self.base {
            return Err(PoolSpecError::Size);
        }
        if let ScalePolicy::QueueDepth { high, low } = self.policy {
            let flaps = (self.base + 1..=self.max).any(|live| {
                let live = live as u64;
                low * live > high.max(1) * (live - 1) + 1
            });
            if flaps {
                return Err(PoolSpecError::Flap);
            }
        }
        Ok(())
    }

    /// The tick's decision, a function of the spec and the observation
    /// alone. It first tops the pool back up to base (a crashed member is
    /// replaceable), then steps toward the policy's target: scale-out
    /// covers the full gap, scale-in drains the newest live members (LIFO
    /// keeps the stable base warm and the names predictable). Once every
    /// program is done the target is `base`, whatever the policy would
    /// say. Needs a spec [`PoolSpec::validate`] accepts.
    pub(super) fn decide(&self, obs: &Observation) -> Decision {
        let (base, max, live, load) = (self.base, self.max, obs.live, obs.load);
        let top_up = base.saturating_sub(live + obs.provisioning);
        let alive = live + obs.provisioning + top_up;
        // The member count asked for: a hold is the current live size, and
        // the policies with a one-member scale-in cadence ask `live − 1`.
        let target = match self.policy {
            _ if obs.all_done => base,
            ScalePolicy::QueueDepth { high, low } => {
                // Enough members that nobody hosts more than `high`
                // sessions; shrink by one once load falls under `low` per
                // live member (the hysteresis band).
                let desired = load.div_ceil(high.max(1)) as usize;
                if desired > alive {
                    desired.clamp(base, max)
                } else if live > base && load < low * live as u64 {
                    live - 1
                } else {
                    live
                }
            }
            ScalePolicy::P99Breach { budget_ns } => {
                // The breach signal is binary, not proportional: grow one
                // member per breaching tick.
                if obs.p99.is_some_and(|p99| p99 > budget_ns) {
                    (alive + 1).min(max)
                } else if live > base && load < live as u64 {
                    live - 1
                } else {
                    live
                }
            }
            ScalePolicy::StepLoad { per_node } => {
                (load.div_ceil(per_node.max(1)) as usize).clamp(base, max)
            }
        };
        Decision {
            spawn: top_up + target.min(max).saturating_sub(alive),
            drain: live.saturating_sub(target.max(base)),
        }
    }
}

/// The ok finishes `P99Breach` watches, shared by every pool (they all
/// tick with one period): `(finished_at, latency)` per program that
/// finished without error, kept until a tick finds it outside the window
/// `(now − POOL_TICK_NS, now]`. A finish may be stamped ahead of the
/// instant it is recorded (the slice's elapsed time), so the entries are
/// not in time order, and one stamped after a tick waits for a later one.
#[derive(Debug, Default)]
pub(super) struct FinishWindow(Vec<(u64, u64)>);

impl FinishWindow {
    pub(super) fn record(&mut self, finished_at: u64, latency: u64) {
        self.0.push((finished_at, latency));
    }

    /// Forget the finishes at or before `now − POOL_TICK_NS` (a later tick
    /// never sees them again), then the nearest-rank p99 latency of those
    /// in the window.
    pub(super) fn p99(&mut self, now: u64) -> Option<u64> {
        let from = now.saturating_sub(POOL_TICK_NS);
        self.0.retain(|&(at, _)| at > from);
        let mut lat: Vec<u64> = self
            .0
            .iter()
            .filter(|&&(at, _)| at <= now)
            .map(|&(_, latency)| latency)
            .collect();
        lat.sort_unstable();
        (!lat.is_empty()).then(|| percentile_nearest_rank(&lat, 99))
    }
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// The p99 budget of every `P99Breach` spec checked.
    const BUDGET: u64 = 1_000;
    /// Ticks per observation sequence.
    const DEPTH: usize = 4;

    impl FinishWindow {
        pub(in crate::engine) fn len(&self) -> usize {
            self.0.len()
        }
    }

    fn spec(base: usize, max: usize, policy: ScalePolicy) -> PoolSpec {
        PoolSpec {
            name: "p".into(),
            template: NodeConfig::cluster("p"),
            base,
            max,
            policy,
            cold_start_ns: 0,
        }
    }

    /// Every spec with `1 ≤ base ≤ max ≤ 6` under every policy with
    /// thresholds in 1..=4, each with the window p99s it is observed at.
    fn specs() -> Vec<(PoolSpec, Vec<Option<u64>>)> {
        let mut policies = vec![ScalePolicy::P99Breach { budget_ns: BUDGET }];
        for a in 1..=4 {
            policies.push(ScalePolicy::StepLoad { per_node: a });
            for b in 1..=4 {
                policies.push(ScalePolicy::QueueDepth { high: a, low: b });
            }
        }
        let mut specs = Vec::new();
        for max in 1..=6 {
            for base in 1..=max {
                for &policy in &policies {
                    let p99s = match policy {
                        ScalePolicy::P99Breach { .. } => {
                            vec![None, Some(BUDGET / 2), Some(BUDGET), Some(BUDGET + 1)]
                        }
                        _ => vec![None],
                    };
                    specs.push((spec(base, max, policy), p99s));
                }
            }
        }
        specs
    }

    /// The members the policy asks for, read off its docs: the gap a
    /// single tick must cover.
    fn demand(spec: &PoolSpec, obs: &Observation) -> usize {
        match spec.policy {
            ScalePolicy::QueueDepth { high, .. } => obs.load.div_ceil(high) as usize,
            ScalePolicy::StepLoad { per_node } => obs.load.div_ceil(per_node) as usize,
            ScalePolicy::P99Breach { budget_ns } => match obs.p99 {
                Some(p99) if p99 > budget_ns => obs.live + obs.provisioning + 1,
                _ => 0,
            },
        }
    }

    /// One decision with what it must satisfy on an accepted spec, and the
    /// (live, provisioning) it leaves (its draining members retire).
    fn tick(spec: &PoolSpec, obs: Observation) -> (Decision, usize, usize) {
        let d = spec.decide(&obs);
        let (base, max) = (spec.base, spec.max);
        let what = || format!("{:?} base {base} max {max} {obs:?} -> {d:?}", spec.policy);
        assert!(d.drain <= obs.live, "{}: drains more than live", what());
        let (live, prov) = (obs.live - d.drain, obs.provisioning + d.spawn);
        let alive = live + prov;
        assert!(
            (base..=max).contains(&alive),
            "{}: live + provisioning {alive} outside [base, max]",
            what()
        );
        if !obs.all_done {
            let want = demand(spec, &obs).min(max);
            assert!(
                alive >= want,
                "{}: {alive} alive, the policy asks {want}",
                what()
            );
        }
        (d, live, prov)
    }

    /// Whether the pool is at base within `max` ticks after `all_done`,
    /// provisioning members going live by each next tick.
    fn settles(spec: &PoolSpec, env: Observation, mut live: usize, mut prov: usize) -> bool {
        for _ in 0..spec.max {
            if live == spec.base && prov == 0 {
                return true;
            }
            let obs = Observation {
                live,
                provisioning: prov,
                all_done: true,
                ..env
            };
            let (_, l, p) = tick(spec, obs);
            (live, prov) = (l + p, 0);
        }
        live == spec.base && prov == 0
    }

    /// Walk every observation sequence of `DEPTH` ticks under constant
    /// load and p99, from every size in `[base, max]` the pool may have
    /// grown to before the load settled: between ticks any number of
    /// provisioning members go live, draining members retire, and one
    /// live or provisioning member may crash. On an accepted spec every
    /// decision is checked ([`tick`]) and so is settling after
    /// `all_done`. Returns the flap found, if any: a decision reversed on
    /// the next tick with no crash in between.
    fn first_flap(spec: &PoolSpec, env: Observation) -> Option<String> {
        let accepted = spec.validate().is_ok();
        // (live, provisioning, the previous decision unless a crash
        // followed it), deduplicated per depth.
        let mut frontier = BTreeSet::new();
        for alive in spec.base..=spec.max {
            for live in 0..=alive {
                frontier.insert((live, alive - live, None));
            }
        }
        for depth in 0..DEPTH {
            let mut next = BTreeSet::new();
            for (live, prov, prev) in frontier {
                let obs = Observation {
                    live,
                    provisioning: prov,
                    ..env
                };
                let d = if accepted {
                    let settled = settles(spec, env, live, prov);
                    assert!(settled, "{spec:?} {obs:?}: not at base in max ticks");
                    tick(spec, obs).0
                } else {
                    spec.decide(&obs)
                };
                if let Some((spawn, drain)) = prev {
                    if (spawn > 0 && d.drain > 0) || (drain > 0 && d.spawn > 0) {
                        return Some(format!(
                            "{:?} base {} max {} load {}: tick {depth} reverses \
                             spawn {spawn} drain {drain} with {d:?} at {obs:?}",
                            spec.policy, spec.base, spec.max, env.load
                        ));
                    }
                }
                let (live, prov) = (live - d.drain, prov + d.spawn);
                for up in 0..=prov {
                    let (live, prov) = (live + up, prov - up);
                    next.insert((live, prov, Some((d.spawn, d.drain))));
                    if live > 0 {
                        next.insert((live - 1, prov, None));
                    }
                    if prov > 0 {
                        next.insert((live, prov - 1, None));
                    }
                }
            }
            frontier = next;
        }
        None
    }

    /// The controller over every small input: every spec of [`specs`],
    /// every constant load up to `4·max` (past `low·max` for every `low`
    /// checked, so each flap band is reachable), every sequence of
    /// [`first_flap`]. Accepted specs never flap; a `QueueDepth` spec is
    /// refused exactly when the model finds a flap for it.
    #[test]
    fn decide_holds_its_bounds_and_never_flaps_over_every_small_input() {
        let mut checked = 0;
        for (spec, p99s) in specs() {
            let mut flap = None;
            for load in 0..=4 * spec.max as u64 {
                for &p99 in &p99s {
                    let env = Observation {
                        live: 0,
                        provisioning: 0,
                        load,
                        all_done: false,
                        p99,
                    };
                    flap = flap.or_else(|| first_flap(&spec, env));
                    checked += 1;
                }
            }
            let refused = spec.validate() == Err(PoolSpecError::Flap);
            match (&flap, refused) {
                (Some(f), false) => panic!("accepted spec flaps: {f}"),
                (None, true) => panic!(
                    "{:?} base {} max {}: refused, but the model finds no flap",
                    spec.policy, spec.base, spec.max
                ),
                _ => {}
            }
        }
        assert_eq!(checked, 9_240);
    }

    /// The window is `(now − POOL_TICK_NS, now]`: a finish at exactly
    /// `now − POOL_TICK_NS` is out (and forgotten), one at `now` is in,
    /// one stamped after `now` waits for a later tick.
    #[test]
    fn the_window_excludes_its_start_and_includes_now() {
        let now = 5 * POOL_TICK_NS;
        let mut w = FinishWindow::default();
        w.record(now - POOL_TICK_NS, 900);
        w.record(now, 10);
        w.record(now + 1, 800);
        assert_eq!(w.p99(now), Some(10));
        assert_eq!(w.len(), 2);
        assert_eq!(w.p99(now + 1), Some(800));
        assert_eq!(w.p99(now + POOL_TICK_NS + 1), None);
        assert_eq!(w.len(), 0);
    }
}
