//! The elastic-pool controller: periodic policy ticks, cold-start
//! provisioning, drain-by-migration scale-in, and crash replacement.
//!
//! Each pool runs a controller loop as a self-rescheduling
//! [`Msg::PoolTick`] timer on node 0, every [`POOL_TICK_NS`], so every
//! scaling decision happens at a definite point in the `(time, seq)`
//! delivery order, replayable bit-for-bit from the seed. A tick, in order:
//!
//! 1. **observes** the pool: live and provisioning members, load, whether
//!    every program is done, and the p99 of the window's ok finishes;
//! 2. **decides**, in [`PoolSpec::decide`] — a pure function of the spec
//!    and the observation (top up to base, then step toward the
//!    [`ScalePolicy`](super::pool::ScalePolicy)'s target);
//! 3. **applies** the decision: spawns enter `Provisioning` and become
//!    placeable only after their cold start elapses ([`Msg::PoolReady`]);
//!    the newest live members are marked `Draining`; each draining
//!    member's hosted stacks are pushed off via whole-stack roaming (the
//!    `engine/migrate.rs` machinery — each member's live sessions are
//!    walked in ascending id order so targets are deterministic) and
//!    members with nothing left retire;
//! 4. reschedules itself unless the pool is quiescent (all programs done,
//!    nothing provisioning or draining, size back at base).

use sod_net::SimCtx;

use crate::metrics::PoolReport;
use crate::msg::{Msg, SessionId};
use crate::node::Node;

use super::pool::{
    MemberState, Observation, PoolMember, PoolRuntime, PoolSpec, PoolSpecError, POOL_DEST_BASE,
    POOL_TICK_NS,
};
use super::protocol::{self, WorkerEffect, WorkerInput};
use super::{Cluster, Program};

impl Cluster {
    /// Register an elastic pool and provision its base members
    /// immediately (they are live from t = 0; only later spawns pay the
    /// cold start). Must be called before the simulator is built, so the
    /// topology can be sized to `declared + Σ base`. Returns the pool
    /// index — plans target it via [`POOL_DEST_BASE`]` + index` — or why
    /// the spec is refused (see [`PoolSpecError`]).
    pub fn add_pool(&mut self, spec: PoolSpec) -> Result<usize, PoolSpecError> {
        spec.validate()?;
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
        Ok(self.pools.len() - 1)
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

    /// Active migrated sessions hosted on `node`, plus sessions routed here
    /// whose restore is still in flight. The in-flight term is what
    /// spreads a burst: every capture in the burst resolves before the
    /// first restore lands, so the hosted count alone would place the
    /// entire burst on one member.
    fn active_sessions_on(&self, node: usize) -> u64 {
        self.hosted_sessions(node).count() as u64 + self.nodes[node].inbound_sessions
    }

    /// `node`'s hosted sessions. The session map holds only sessions in
    /// flight — and none of a finished program, whose end closed its
    /// episode — so this walks those alone.
    fn hosted_sessions(&self, node: usize) -> impl Iterator<Item = SessionId> + '_ {
        self.nodes[node].sessions.iter().map(|(&sid, w)| {
            debug_assert!(!self.programs[w.program as usize].is_done());
            sid
        })
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
        ctx.schedule(cold, node_id, Msg::PoolReady { pool });
    }

    /// Cold start elapsed: the member starts accepting placements.
    pub(super) fn pool_ready(&mut self, pool: usize, node: usize) {
        let members = &mut self.pools[pool].members;
        if let Some(m) = members.iter_mut().find(|m| m.node == node) {
            // A member crashed mid-provisioning is already retired; its
            // late ready-timer must not resurrect it.
            if m.state == MemberState::Provisioning {
                m.state = MemberState::Live;
            }
        }
    }

    /// The controller tick (see the module docs for the step order).
    pub(super) fn pool_tick(&mut self, pool: usize, ctx: &mut SimCtx<'_, Msg>) {
        let now = ctx.now();
        let all_done = self.programs_done == self.programs.len();
        debug_assert_eq!(all_done, self.programs.iter().all(Program::is_done));
        let p = &self.pools[pool];
        let obs = Observation {
            live: p.count(MemberState::Live),
            provisioning: p.count(MemberState::Provisioning),
            load: self.pool_load(pool),
            all_done,
            p99: self.finishes.p99(now),
        };
        let decision = p.spec.decide(&obs);

        for _ in 0..decision.spawn {
            self.spawn_pool_member(pool, ctx);
        }
        let live = self.pools[pool].members.iter_mut().rev();
        let live = live.filter(|m| m.state == MemberState::Live);
        for m in live.take(decision.drain) {
            m.state = MemberState::Draining;
        }
        self.drain_pool_members(pool, now);

        let p = &mut self.pools[pool];
        let live_now = p.count(MemberState::Live) as u64;
        let alive_now = live_now + p.count(MemberState::Provisioning) as u64;
        p.peak = p.peak.max(alive_now);
        p.min = p.min.min(live_now);

        // Reschedule until quiescent, so "drains back to base" is an
        // observable end state, not a promise.
        let quiescent = all_done
            && p.count(MemberState::Provisioning) == 0
            && p.count(MemberState::Draining) == 0
            && p.count(MemberState::Live) <= p.spec.base;
        if !quiescent {
            ctx.schedule(POOL_TICK_NS, 0, Msg::PoolTick { pool });
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
            // Ascending session-id order, so roam targets are
            // deterministic.
            let mut hosted: Vec<SessionId> = self.hosted_sessions(dn).collect();
            hosted.sort_unstable();
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
                let Some(w) = self.nodes[dn].sessions.get_mut(&sid) else {
                    continue;
                };
                let dest = targets
                    .iter()
                    .min_by_key(|&&(n, c)| (c, n))
                    .map_or(w.home, |&(n, _)| n);
                let WorkerEffect::Ok = protocol::worker(&mut w.phase, WorkerInput::Drain(dest))
                else {
                    continue; // mid-protocol or already roaming: a later tick re-arms it
                };
                if let Some(t) = targets.iter_mut().find(|(n, _)| *n == dest) {
                    t.1 += 1;
                }
                // The roamed stack is inbound at its target until the
                // restore lands (same in-flight accounting as pool
                // placement, balanced at session insert).
                self.nodes[dest].inbound_sessions += 1;
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
