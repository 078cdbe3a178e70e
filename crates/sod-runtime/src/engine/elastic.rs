//! The elastic-pool controller: periodic policy ticks, cold-start
//! provisioning, drain-by-migration scale-in, and crash replacement.
//!
//! Each pool runs a controller loop as a self-rescheduling
//! [`Msg::PoolTick`] timer on node 0, so every scaling decision happens at
//! a definite point in the `(time, seq)` delivery order, replayable
//! bit-for-bit from the seed. A tick, in order:
//!
//! 1. tops the pool back up to its base size (crash replacement);
//! 2. steps the membership toward the [`ScalePolicy`](super::pool::ScalePolicy)'s
//!    target size — scale-out covers the full gap in one tick (a burst
//!    that needs five members must not wait five ticks); each spawn
//!    enters `Provisioning` and becomes placeable only after its cold
//!    start elapses ([`Msg::PoolReady`]); scale-in marks the newest live
//!    members `Draining`;
//! 3. pushes each draining member's hosted stacks off via whole-stack
//!    roaming (the `engine/migrate.rs` machinery — each member's live
//!    sessions are walked in ascending id order so targets are
//!    deterministic) and retires members with nothing left;
//! 4. reschedules itself unless the pool is quiescent (all programs done,
//!    nothing provisioning or draining, size back at base).

use sod_net::SimCtx;

use crate::metrics::{percentile_nearest_rank, PoolReport};
use crate::msg::{Msg, SessionId};
use crate::node::Node;

use super::pool::{MemberState, PoolMember, PoolRuntime, PoolSpec, POOL_DEST_BASE};
use super::session::WorkerPhase;
use super::Cluster;

impl Cluster {
    /// Register an elastic pool and provision its base members
    /// immediately (they are live from t = 0; only later spawns pay the
    /// cold start). Must be called before the simulator is built, so the
    /// topology can be sized to `declared + Σ base`. Returns the pool
    /// index — plans target it via [`POOL_DEST_BASE`]` + index`.
    pub fn add_pool(&mut self, spec: PoolSpec) -> usize {
        let mut members = Vec::new();
        for i in 0..spec.base {
            let mut cfg = spec.template.clone();
            cfg.name = format!("{}-{}", spec.name, i);
            let node_id = self.nodes.len();
            self.nodes.push(Node::new(cfg));
            members.push(PoolMember {
                node: node_id,
                state: MemberState::Live,
            });
        }
        let base = spec.base as u64;
        self.pools.push(PoolRuntime {
            created: spec.base,
            spec,
            members,
            spawns: 0,
            drains: 0,
            pending: 0,
            peak: base,
            min: base,
        });
        self.pools.len() - 1
    }

    /// Whether a sentinel destination names a pool that can accept a
    /// placement at all (some member is live, or provisioning and soon
    /// will be). Capture-time check only — the actual member choice
    /// happens at ship time, via [`Cluster::resolve_pool_dest`].
    pub(super) fn pool_placeable(&self, dest: usize) -> bool {
        if dest < POOL_DEST_BASE {
            return true;
        }
        self.pools.get(dest - POOL_DEST_BASE).is_some_and(|p| {
            p.members
                .iter()
                .any(|m| matches!(m.state, MemberState::Live | MemberState::Provisioning))
        })
    }

    /// Whether a destination that may be a pool sentinel exposes JVMTI —
    /// judged by the pool's template (every member shares it), so the
    /// capture path is decided before the member is.
    pub(super) fn dest_has_jvmti(&self, dest: usize) -> bool {
        if dest < POOL_DEST_BASE {
            return self.nodes[dest].cfg.has_jvmti;
        }
        self.pools
            .get(dest - POOL_DEST_BASE)
            .is_some_and(|p| p.spec.template.has_jvmti)
    }

    /// Resolve a segment destination that may be a pool sentinel to a
    /// concrete node: the live member with the fewest active sessions
    /// (ties to the lowest node id). Called at *ship* time, once the
    /// capture has completed, so members spawned while the stack was
    /// freezing are already candidates. `None` when the sentinel names no
    /// pool or the pool has no member left to try.
    pub(super) fn resolve_pool_dest(&self, dest: usize) -> Option<usize> {
        if dest < POOL_DEST_BASE {
            return Some(dest);
        }
        let pool = self.pools.get(dest - POOL_DEST_BASE)?;
        pool.live_members()
            .map(|n| (self.active_sessions_on(n), n))
            .min()
            .map(|(_, n)| n)
            .or_else(|| {
                // Ship time can race a crash that took every live member:
                // fall back to a provisioning one — the node exists, and
                // the restore simply queues behind its cold start.
                pool.members
                    .iter()
                    .filter(|m| m.state == MemberState::Provisioning)
                    .map(|m| (self.active_sessions_on(m.node), m.node))
                    .min()
                    .map(|(_, n)| n)
            })
    }

    /// Active migrated sessions hosted on `node` (sessions of finished
    /// programs don't count — their cleanup may lag under chaos), plus
    /// sessions routed here whose restore is still in flight. The
    /// in-flight term is what spreads a burst: every capture in the burst
    /// resolves before the first restore lands, so the hosted count alone
    /// would place the entire burst on one member.
    fn active_sessions_on(&self, node: usize) -> u64 {
        debug_assert!(
            self.hosted_sessions(node)
                .eq(self.scan_hosted_sessions(node)),
            "node {node}'s live-session index drifted from the session map"
        );
        self.hosted_sessions(node).count() as u64 + self.nodes[node].inbound_sessions
    }

    /// `node`'s hosted sessions still executing for an unfinished program,
    /// in ascending id order: its live-session index (see
    /// [`Node::live_sessions`]) minus sessions whose program has finished.
    fn hosted_sessions(&self, node: usize) -> impl Iterator<Item = SessionId> + '_ {
        self.nodes[node]
            .live_sessions
            .iter()
            .filter(|(_, &program)| !self.programs[program as usize].done)
            .map(|(&sid, _)| sid)
    }

    /// The definition [`Cluster::hosted_sessions`] indexes, as a scan of
    /// the whole session map: the debug-build oracle, and nothing else.
    fn scan_hosted_sessions(&self, node: usize) -> impl Iterator<Item = SessionId> {
        let mut hosted: Vec<SessionId> = self.nodes[node]
            .sessions
            .iter()
            .filter(|(_, w)| !matches!(w.phase, WorkerPhase::Done))
            .filter(|(_, w)| !self.programs[w.program as usize].done)
            .map(|(sid, _)| *sid)
            .collect();
        hosted.sort_unstable();
        hosted.into_iter()
    }

    /// The pool's load: active sessions across its live and draining
    /// members, plus captures staged toward the pool whose placement has
    /// not resolved yet. The pending term is what makes a burst visible
    /// to the policy in time: every arrival spends the capture latency
    /// (milliseconds) frozen before placement, and the controller must
    /// see that backlog *during* the freeze, not after.
    fn pool_load(&self, pool: usize) -> u64 {
        self.pools[pool]
            .members
            .iter()
            .filter(|m| matches!(m.state, MemberState::Live | MemberState::Draining))
            .map(|m| self.active_sessions_on(m.node))
            .sum::<u64>()
            + self.pools[pool].pending
    }

    /// Spawn one member: grow the topology in lockstep with the node
    /// vector, mark it provisioning, and arm the cold-start timer.
    fn spawn_pool_member(&mut self, pool: usize, ctx: &mut SimCtx<'_, Msg>) {
        let node_id = ctx.topology().add_node();
        debug_assert_eq!(
            node_id,
            self.nodes.len(),
            "cluster and topology must grow in lockstep"
        );
        let p = &mut self.pools[pool];
        let mut cfg = p.spec.template.clone();
        cfg.name = format!("{}-{}", p.spec.name, p.created);
        p.created += 1;
        p.spawns += 1;
        let cold = p.spec.cold_start_ns;
        p.members.push(PoolMember {
            node: node_id,
            state: MemberState::Provisioning,
        });
        let mut n = Node::new(cfg);
        n.joined_at_ns = ctx.now();
        self.nodes.push(n);
        ctx.schedule(
            cold,
            node_id,
            Msg::PoolReady {
                pool,
                node: node_id,
            },
        );
    }

    /// Cold start elapsed: the member starts accepting placements.
    pub(super) fn pool_ready(&mut self, pool: usize, node: usize) {
        let p = &mut self.pools[pool];
        if let Some(m) = p.members.iter_mut().find(|m| m.node == node) {
            // A member crashed mid-provisioning is already retired; its
            // late ready-timer must not resurrect it.
            if m.state == MemberState::Provisioning {
                m.state = MemberState::Live;
            }
        }
        let alive = (p.count(MemberState::Live) + p.count(MemberState::Provisioning)) as u64;
        p.peak = p.peak.max(alive);
    }

    /// The controller tick (see the module docs for the step order).
    pub(super) fn pool_tick(&mut self, pool: usize, ctx: &mut SimCtx<'_, Msg>) {
        let now = ctx.now();
        let (base, max, tick_ns) = {
            let s = &self.pools[pool].spec;
            (s.base, s.max, s.tick_ns)
        };

        // 1. Top back up to base: a crashed member is replaceable.
        loop {
            let p = &self.pools[pool];
            let alive = p.count(MemberState::Live) + p.count(MemberState::Provisioning);
            if alive >= base || alive >= max {
                break;
            }
            self.spawn_pool_member(pool, ctx);
        }

        // 2. Step the membership toward the policy's target size. Scale-out
        // covers the full gap at once — a burst that needs five members
        // must not wait five ticks — while scale-in drains toward the
        // target (newest live member first: LIFO keeps the stable base
        // warm and the names predictable). Once every program is done the
        // target is `base`, whatever the policy would say.
        let live = self.pools[pool].count(MemberState::Live);
        let prov = self.pools[pool].count(MemberState::Provisioning);
        let load = self.pool_load(pool);
        let all_done = self.programs_done == self.programs.len();
        debug_assert_eq!(all_done, self.programs.iter().all(|p| p.done));
        let target = if all_done {
            base
        } else {
            self.policy_target(pool, live, prov, load, now)
        };
        let mut alive = live + prov;
        while alive < target.min(max) {
            self.spawn_pool_member(pool, ctx);
            alive += 1;
        }
        let mut live_now = live;
        while live_now > target.max(base) {
            match self.pools[pool]
                .members
                .iter_mut()
                .rev()
                .find(|m| m.state == MemberState::Live)
            {
                Some(m) => m.state = MemberState::Draining,
                None => break,
            }
            live_now -= 1;
        }

        // 3. Progress draining members: migrate hosted stacks off, retire
        // the empty ones.
        self.drain_pool_members(pool, now);

        // 4. Size extrema.
        {
            let p = &mut self.pools[pool];
            let live_now = p.count(MemberState::Live) as u64;
            let alive_now = live_now + p.count(MemberState::Provisioning) as u64;
            p.peak = p.peak.max(alive_now);
            p.min = p.min.min(live_now);
        }

        // 5. Reschedule until quiescent, so "drains back to base" is an
        // observable end state, not a promise.
        let p = &self.pools[pool];
        let quiescent = all_done
            && p.count(MemberState::Provisioning) == 0
            && p.count(MemberState::Draining) == 0
            && p.count(MemberState::Live) <= base;
        if !quiescent {
            ctx.schedule(tick_ns, 0, Msg::PoolTick { pool });
        }
    }

    /// The member count the pool's scale policy asks for right now (see
    /// [`super::pool::ScalePolicy`] for the semantics). A hold is
    /// expressed as the current live size; policies with a one-member
    /// scale-in cadence return `live - 1`.
    fn policy_target(&self, pool: usize, live: usize, prov: usize, load: u64, now: u64) -> usize {
        use super::pool::ScalePolicy::*;
        let (base, max) = (self.pools[pool].spec.base, self.pools[pool].spec.max);
        let alive = live + prov;
        match self.pools[pool].spec.policy {
            QueueDepth { high, low } => {
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
            P99Breach { budget_ns } => {
                let tick_ns = self.pools[pool].spec.tick_ns;
                let mut lat: Vec<u64> = self
                    .programs
                    .iter()
                    .filter(|p| p.done && p.error.is_none())
                    .filter(|p| {
                        p.report.finished_at_ns > now.saturating_sub(tick_ns)
                            && p.report.finished_at_ns <= now
                    })
                    .map(|p| p.report.latency_ns())
                    .collect();
                lat.sort_unstable();
                // The breach signal is binary, not proportional: grow one
                // member per breaching tick.
                if !lat.is_empty() && percentile_nearest_rank(&lat, 99) > budget_ns {
                    (alive + 1).min(max)
                } else if live > base && load < live as u64 {
                    live - 1
                } else {
                    live
                }
            }
            StepLoad { per_node } => (load.div_ceil(per_node.max(1)) as usize).clamp(base, max),
        }
    }

    /// Move every stack off each draining member (whole-stack roam to the
    /// least-loaded live sibling, falling back to the session's home
    /// node) and retire members with nothing active left.
    fn drain_pool_members(&mut self, pool: usize, now: u64) {
        let draining: Vec<usize> = self.pools[pool]
            .members
            .iter()
            .filter(|m| m.state == MemberState::Draining)
            .map(|m| m.node)
            .collect();
        for dn in draining {
            // Ascending session-id order (the index's own), so roam targets
            // are deterministic.
            let hosted: Vec<SessionId> = self.hosted_sessions(dn).collect();
            if hosted.is_empty() {
                let p = &mut self.pools[pool];
                if let Some(m) = p.members.iter_mut().find(|m| m.node == dn) {
                    m.state = MemberState::Retired;
                }
                p.drains += 1;
                self.nodes[dn].retired_at_ns = Some(now);
                continue;
            }
            let mut targets: Vec<(usize, u64)> = self.pools[pool]
                .live_members()
                .map(|n| (n, self.active_sessions_on(n)))
                .collect();
            for sid in hosted {
                let (armed, roamable, home) = {
                    let w = &self.nodes[dn].sessions[&sid];
                    (
                        w.pending_roam.is_some(),
                        matches!(w.phase, WorkerPhase::Running | WorkerPhase::Waiting),
                        w.home,
                    )
                };
                if armed || !roamable {
                    continue; // mid-protocol: a later tick re-arms it
                }
                let dest = targets
                    .iter()
                    .min_by_key(|&&(n, c)| (c, n))
                    .map(|&(n, _)| n)
                    .unwrap_or(home);
                if let Some(t) = targets.iter_mut().find(|(n, _)| *n == dest) {
                    t.1 += 1;
                }
                // The roamed stack is inbound at its target until the
                // restore lands (same in-flight accounting as pool
                // placement, balanced at session insert).
                self.nodes[dest].inbound_sessions += 1;
                self.nodes[dn].sessions.get_mut(&sid).unwrap().pending_roam = Some(dest);
            }
        }
    }

    /// A chaos crash took `node` down: if it is a pool member, retire it
    /// (the next tick spawns a replacement). Called from the chaos hook —
    /// pure state, no messages.
    pub(super) fn note_pool_member_crashed(&mut self, node: usize, now: u64) {
        let mut retired = false;
        for p in &mut self.pools {
            if let Some(m) = p.members.iter_mut().find(|m| m.node == node) {
                if m.state != MemberState::Retired {
                    m.state = MemberState::Retired;
                    retired = true;
                }
            }
        }
        if retired {
            self.nodes[node].retired_at_ns = Some(now);
        }
    }

    /// Per-pool scaling counters for the cluster report.
    pub(super) fn pool_reports(&self) -> Vec<PoolReport> {
        self.pools
            .iter()
            .map(|p| PoolReport {
                name: p.spec.name.clone(),
                spawns: p.spawns,
                drains: p.drains,
                peak: p.peak,
                min: p.min,
                final_size: p.count(MemberState::Live) as u64,
            })
            .collect()
    }
}
