//! The migration protocol, home side: capture at a migration-safe point,
//! stage the plan's segments, bundle code cache-awarely, ship — plus the
//! class-serving endpoint and worker-to-worker roaming hops.

use std::collections::BTreeSet;
use std::sync::Arc;

use sod_net::SimCtx;
use sod_vm::capture::{capture_segment, CapturedState, Frames};
use sod_vm::class::ClassDef;
use sod_vm::tooling::ToolingPath;
use sod_vm::wire::encode_state_pooled;

use crate::costs;
use crate::msg::{MigrationPlan, Msg, ProgramId, ReturnTarget, SegmentInfo, SessionId, StateMsg};

use super::pool::POOL_DEST_BASE;
use super::session::{BundleSeeds, HomeSide, Owner, StagedSegment, WorkerPhase};
use super::{Cluster, CodeShipping};

impl Cluster {
    // ------------------------------------------------------------------
    // Migration-safe point reached with a pending plan
    // ------------------------------------------------------------------

    pub(super) fn at_msp(
        &mut self,
        node: usize,
        tid: usize,
        elapsed: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        match self.nodes[node].thread_owner.get(&tid) {
            Some(Owner::Root(p)) => {
                let program = *p;
                let plan = self.programs[program as usize]
                    .side
                    .take_plan()
                    .expect("at_msp without plan");
                self.capture_and_stage(node, tid, program, &plan, elapsed, ctx);
            }
            Some(Owner::Worker(s)) => {
                let sid = *s;
                self.begin_roam(node, tid, sid, elapsed, ctx);
            }
            // A thread nobody owns is not the engine's; leave it parked.
            None => {}
        }
    }

    /// Home-side capture: one freeze, segments staged, `CaptureDone` timer.
    fn capture_and_stage(
        &mut self,
        node: usize,
        tid: usize,
        program: ProgramId,
        plan: &MigrationPlan,
        elapsed: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        // Pool-sentinel destinations stay symbolic through the freeze:
        // placement resolves at *ship* time (`capture_done`), so it sees
        // any members the controller spawned while the capture ran — a
        // burst's captures all start before the first scale-out tick, and
        // resolving here would place the whole burst on the pre-burst
        // membership. Here we only reject a dead plan (unknown pool, or a
        // pool with nothing live or provisioning): nothing migrates and
        // the thread resumes where it stopped.
        for seg in &plan.segments {
            if !self.pool_placeable(seg.dest) {
                ctx.schedule(elapsed, node, Msg::RunSlice { tid });
                return;
            }
        }
        let height = self.nodes[node].vm.thread(tid).unwrap().frames.len();
        let total: usize = plan.total_frames().min(height);
        if total == 0 {
            // Degenerate plan (every segment requests zero frames):
            // nothing migrates; resume the thread where it stopped. Must
            // be rejected before capture — `capture_segment` treats zero
            // frames as an error, and aborting the engine would break the
            // no-abort fleet semantics.
            ctx.schedule(elapsed, node, Msg::RunSlice { tid });
            return;
        }

        // Destination capability decides the capture path (Table VII) —
        // judged over the segments that will actually receive frames
        // (mirroring the split below), so the destination of an empty
        // tail segment cannot force the slower portable path. A pool
        // sentinel is judged by the pool's template: every member shares
        // it, so the capability is known before the member is.
        let all_jvmti = {
            let mut remaining = total;
            plan.segments.iter().all(|s| {
                let k = s.nframes.min(remaining);
                remaining -= k;
                k == 0 || self.dest_has_jvmti(s.dest)
            })
        };
        // A deployed class that was never preprocessed can stop with an
        // operand under a call's arguments, which a multi-frame plan then
        // cannot capture: that program fails, typed; the fleet runs on.
        let path = ToolingPath::Jvmti;
        let (full, tool_ns) = match capture_segment(&mut self.nodes[node].vm, tid, total, path) {
            Ok(captured) => captured,
            Err(e) => return self.fail_program(program, e.to_string(), ctx.now() + elapsed),
        };
        let capture_ns = if all_jvmti {
            self.nodes[node].cfg.scale(tool_ns)
        } else {
            // Portable path: JVMTI read + Java serialization into a
            // portable format restorable without JVMTI — priced on the
            // whole capture's wire size, counted only here, where it is
            // read.
            self.nodes[node]
                .cfg
                .scale(costs::PORTABLE_CAPTURE_FIXED_NS + costs::serialize_ns(full.wire_bytes()))
        };

        // Split bottom-up frames into the plan's segments (top first),
        // dropping specs the live stack is too short to populate. Empty
        // segments must be filtered *before* session ids are allocated and
        // return targets wired: a chain plan deeper than the stack would
        // otherwise point the last live segment at a session that is never
        // created, and its return would panic at the destination.
        let mut frames = full.frames;
        let statics = full.statics;
        let mut live: Vec<(usize, Frames)> = Vec::new();
        for spec in &plan.segments {
            let k = spec.nframes.min(frames.len());
            let seg = frames.split_off(frames.len() - k);
            if !seg.is_empty() {
                live.push((spec.dest, seg));
            }
        }
        if live.is_empty() {
            // Degenerate plan (every segment requested zero frames):
            // nothing migrates; resume the thread where it stopped.
            ctx.schedule(elapsed, node, Msg::RunSlice { tid });
            return;
        }

        // Pre-allocate session ids so return targets can chain; the last
        // live segment always returns `Home`.
        let sids: Vec<SessionId> = live.iter().map(|_| self.alloc_session(node)).collect();
        // Whoever ultimately returns home must discard *all* the frames
        // this capture froze there — the chain above the bottom segment
        // returns remotely and the home never replays it.
        let total_live: usize = live.iter().map(|(_, f)| f.len()).sum();
        let dests: Vec<usize> = live.iter().map(|(d, _)| *d).collect();
        self.programs[program as usize].staged.clear();
        for (i, (dest, seg_frames)) in live.into_iter().enumerate() {
            // A pool-routed segment is pending at the pool until its
            // placement resolves at ship time (`place_pool_segments`
            // moves the count onto the chosen member). The controller
            // counts pending into the pool's load, so the very next tick
            // sees this capture's demand while it is still freezing.
            if dest >= POOL_DEST_BASE {
                self.pools[dest - POOL_DEST_BASE].pending += 1;
            }
            let state = CapturedState {
                frames: seg_frames,
                statics: statics.clone(),
            };
            let seeds = BundleSeeds::of(&state);
            let return_to = if i + 1 < dests.len() {
                ReturnTarget::Session {
                    node: dests[i + 1],
                    session: sids[i + 1],
                }
            } else {
                ReturnTarget::Home { node }
            };
            // Code shipping: bundle per the cluster policy, skipping
            // classes the destination provably holds (peer cache). A
            // pool-routed segment bundles at ship time instead — the
            // member (and hence its peer cache) is unknown until then.
            let (bundled, class_bytes) = if dest >= POOL_DEST_BASE {
                (Vec::new(), 0)
            } else {
                self.bundle_for(node, node, dest, &seeds)
            };
            let info = SegmentInfo {
                program,
                session: sids[i],
                home: node,
                return_to,
                nframes: state.frames.len(),
                home_pop_frames: total_live,
                wait_for_return: i > 0,
            };
            // Encode-once: the state is serialized here and never again —
            // `frame.len()` is the byte metric at every later touch point
            // (ship accounting, transfer cost, loss credit, restore cost).
            let frame = match encode_state_pooled(&self.buf_pool, &state) {
                Ok(f) => f,
                Err(e) => {
                    // Unencodable capture (a name or sequence overflowed
                    // its length prefix): a typed program failure, not an
                    // engine abort.
                    self.fail_program(program, format!("segment encode failed: {e}"), ctx.now());
                    return;
                }
            };
            self.programs[program as usize].staged.push(StagedSegment {
                dest,
                info,
                frame,
                seeds,
                bundled,
                class_bytes,
                capture_ns,
            });
        }

        self.programs[program as usize].valid_sessions = dests.into_iter().zip(sids).collect();
        self.programs[program as usize].side = HomeSide::Frozen;
        ctx.schedule(elapsed + capture_ns, node, Msg::CaptureDone { program });
    }

    /// Freeze complete: ship every staged segment concurrently. Under
    /// fault injection this is also where the episode's end-to-end
    /// deadline is armed (and, under a retry policy, where the shipment
    /// is retained for deadline-driven re-ships) — chaos-free runs stay
    /// event-for-event identical.
    pub(super) fn capture_done(&mut self, program: ProgramId, ctx: &mut SimCtx<'_, Msg>) {
        let home = self.programs[program as usize].home;
        let staged = std::mem::take(&mut self.programs[program as usize].staged);
        let staged = self.place_pool_segments(home, staged);
        if self.chaos_enabled && !staged.is_empty() {
            let retain = matches!(self.retry_policy, super::RetryPolicy::Retry { .. });
            let p = &mut self.programs[program as usize];
            p.attempt += 1;
            p.episode_attempts = 1;
            if retain {
                p.shipped = staged.clone();
            }
            let attempt = p.attempt;
            ctx.schedule(
                self.migration_timeout_ns,
                home,
                Msg::MigrationTimeout { program, attempt },
            );
        }
        for seg in staged {
            self.ship_segment(home, 0, seg, ctx);
        }
    }

    /// Resolve pool-sentinel destinations in a freshly frozen plan to
    /// concrete members — at ship time, so placement sees every member
    /// the controller spawned while the capture ran. Each sentinel
    /// resolves once per plan (a whole-stack chain co-locates on one
    /// member), the in-flight accounting moves from the pool's pending
    /// counter onto the chosen member (balanced at session insert),
    /// chained return targets are rewritten to the same member, and the
    /// code bundle is selected now that the destination's peer cache is
    /// known. A pool that lost every member since capture (chaos) falls
    /// back to the home node: the stack is already frozen, so it
    /// restores where it came from and runs on as a local session.
    fn place_pool_segments(
        &mut self,
        home: usize,
        mut staged: Vec<StagedSegment>,
    ) -> Vec<StagedSegment> {
        if staged.iter().all(|s| s.dest < POOL_DEST_BASE) {
            return staged;
        }
        let mut chosen: Vec<(usize, usize)> = Vec::new(); // sentinel -> member
        for seg in &mut staged {
            if seg.dest < POOL_DEST_BASE {
                continue;
            }
            let member = match chosen.iter().find(|&&(s, _)| s == seg.dest) {
                Some(&(_, m)) => m,
                None => {
                    let m = self.resolve_pool_dest(seg.dest).unwrap_or(home);
                    chosen.push((seg.dest, m));
                    m
                }
            };
            let pool = &mut self.pools[seg.dest - POOL_DEST_BASE];
            pool.pending = pool.pending.saturating_sub(1);
            self.nodes[member].inbound_sessions += 1;
            seg.dest = member;
            let valid = &mut self.programs[seg.info.program as usize].valid_sessions;
            if let Some(v) = valid.iter_mut().find(|(_, s)| *s == seg.info.session) {
                v.0 = member;
            }
            (seg.bundled, seg.class_bytes) = self.bundle_for(home, home, member, &seg.seeds);
        }
        for seg in &mut staged {
            if let ReturnTarget::Session { node, .. } = &mut seg.info.return_to {
                if *node >= POOL_DEST_BASE {
                    if let Some(&(_, m)) = chosen.iter().find(|&&(s, _)| s == *node) {
                        *node = m;
                    }
                }
            }
        }
        staged
    }

    /// Ship one staged segment from `sender` after `delay` (the sender-side
    /// time already spent, excluding the migration handshake). Every byte
    /// counter the conservation suite pins is updated here, so home
    /// shipping and roaming hops cannot diverge. (Peer-cache crediting
    /// lives in [`Cluster::bundle_for`], at selection time.)
    pub(super) fn ship_segment(
        &mut self,
        sender: usize,
        delay: u64,
        seg: StagedSegment,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let state_bytes = seg.frame.len() as u64;
        self.nodes[sender].net_sent.state += state_bytes;
        self.nodes[sender].net_sent.class += seg.class_bytes;
        self.programs[seg.info.program as usize].report.class_bytes += seg.class_bytes;
        ctx.send_after(
            delay + costs::MIGRATION_HANDSHAKE_NS,
            sender,
            seg.dest,
            state_bytes + seg.class_bytes + costs::MIGRATION_MSG_FIXED_BYTES,
            Msg::State(Box::new(StateMsg {
                info: seg.info,
                state: seg.frame,
                bundled: seg.bundled,
                class_bytes: seg.class_bytes,
                capture_ns: seg.capture_ns,
                sent_at: ctx.now() + delay,
            })),
        );
    }

    // ------------------------------------------------------------------
    // Cache-aware code bundling
    // ------------------------------------------------------------------

    /// Class lookup for bundling: the sender's repository first, falling
    /// back to the program home's (roaming workers hold only what shipped
    /// to them).
    fn lookup_class(&self, sender: usize, home: usize, name: &str) -> Option<Arc<ClassDef>> {
        let repo = |node: usize| self.nodes[node].repo.get(name);
        repo(sender).or_else(|| repo(home)).cloned()
    }

    /// Select the classes to bundle with a segment shipped from `sender`
    /// to `dest`, per the cluster's [`CodeShipping`] policy, and credit
    /// them to the peer cache — here, at the single site both shipping
    /// paths go through, so a later segment of the same plan (or a later
    /// migration) never re-bundles them. Crediting at selection time is
    /// sound because every bundle is unconditionally shipped. Everything
    /// skipped still arrives via the on-demand path, so the peer-cache
    /// filter can never break a run — only shrink it. Returns the bundle
    /// with its wire size (the class bytes the segment will ship).
    fn bundle_for(
        &mut self,
        sender: usize,
        home: usize,
        dest: usize,
        seeds: &BundleSeeds,
    ) -> (Vec<Arc<ClassDef>>, u64) {
        let bundled = self.select_bundle(sender, home, dest, seeds);
        let mut class_bytes = 0;
        for c in &bundled {
            self.nodes[sender].note_peer_class(dest, &c.name);
            class_bytes += self.nodes[sender].class_size(c);
        }
        (bundled, class_bytes)
    }

    fn select_bundle(
        &mut self,
        sender: usize,
        home: usize,
        dest: usize,
        seeds: &BundleSeeds,
    ) -> Vec<Arc<ClassDef>> {
        match self.code_shipping {
            CodeShipping::Never => Vec::new(),
            CodeShipping::BundleAlways | CodeShipping::BundleTop => {
                // The top frame's class — under `BundleTop`, unless the
                // destination provably holds it.
                let always = matches!(self.code_shipping, CodeShipping::BundleAlways);
                let top = seeds.top.as_deref();
                let top = top.filter(|c| always || !self.nodes[sender].peer_has_class(dest, c));
                let class = top.and_then(|c| self.lookup_class(sender, home, c));
                class.into_iter().collect()
            }
            CodeShipping::BundleReachable => {
                // Transitive closure of static class references over the
                // shipped frames (and their statics), in sorted order for
                // cross-run determinism.
                let mut closed: BTreeSet<String> = BTreeSet::new();
                let mut work: Vec<String> = seeds.classes.iter().map(|c| c.to_string()).collect();
                while let Some(name) = work.pop() {
                    if !closed.insert(name.clone()) {
                        continue;
                    }
                    if let Some(def) = self.lookup_class(sender, home, &name) {
                        for r in self.nodes[sender].refs_of(&def) {
                            if !closed.contains(r) {
                                work.push(r.clone());
                            }
                        }
                    }
                }
                closed
                    .into_iter()
                    .filter(|name| !self.nodes[sender].peer_has_class(dest, name))
                    .filter_map(|name| self.lookup_class(sender, home, &name))
                    .collect()
            }
        }
    }

    // ------------------------------------------------------------------
    // Class serving (the class-file-load-hook endpoint)
    // ------------------------------------------------------------------

    /// A worker asked this node for a class file. A missing class is a
    /// typed program failure (recorded in `ProgramRun.error`), not an
    /// engine abort — fleet members keep running.
    pub(super) fn class_request(
        &mut self,
        dst: usize,
        session: SessionId,
        requester: usize,
        name: String,
        program: ProgramId,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let Some(class) = self.nodes[dst].repo.get(&name).cloned() else {
            // Retire the requesting session along with its program, so
            // stale events cannot wake the stranded worker state.
            self.retire_session(requester, session);
            self.fail_program(
                program,
                format!("home node {dst} missing class {name:?}"),
                ctx.now(),
            );
            return;
        };
        let bytes = self.nodes[dst].class_size(&class);
        let cost = self.nodes[dst].cfg.scale(costs::serialize_ns(bytes));
        self.nodes[dst].net_sent.class += bytes;
        self.nodes[dst].note_peer_class(requester, &name);
        self.programs[program as usize].report.class_bytes += bytes;
        ctx.send_after(
            cost,
            dst,
            requester,
            bytes,
            Msg::ClassReply {
                session,
                class,
                bytes,
            },
        );
    }

    /// Fail the program behind `session` and retire the session so the
    /// stranded worker state cannot be woken by stale events.
    pub(super) fn fail_session(&mut self, node: usize, session: SessionId, error: String, at: u64) {
        if let Some(w) = self.retire_session(node, session) {
            self.fail_program(w.program, error, at);
        }
    }

    // ------------------------------------------------------------------
    // Roaming (worker → worker hops)
    // ------------------------------------------------------------------

    fn begin_roam(
        &mut self,
        node: usize,
        tid: usize,
        sid: SessionId,
        elapsed: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let w = &self.nodes[node].sessions[&sid];
        let dest = w.pending_roam.expect("roam dest");
        let (program, home, origin) = (w.program, w.home, w.origin());
        let batch = match super::objects::collect_flush(
            &mut self.nodes[node].vm,
            origin,
            None,
            &self.buf_pool,
        ) {
            Ok(b) => b,
            Err(e) => {
                self.fail_session(
                    node,
                    sid,
                    format!("roam flush encode failed: {e}"),
                    ctx.now(),
                );
                return;
            }
        };
        if batch.is_empty() {
            // Nothing to reconcile: capture immediately.
            self.roam_capture_and_ship(node, tid, sid, dest, elapsed, ctx);
        } else {
            let flush_bytes = batch.payload_bytes();
            self.nodes[node].sessions.get_mut(&sid).unwrap().phase =
                WorkerPhase::AwaitRoamAck { dest };
            let ser = self.nodes[node].cfg.scale(costs::serialize_ns(flush_bytes));
            self.nodes[node].net_sent.object += flush_bytes;
            self.programs[program as usize].report.object_bytes += flush_bytes;
            ctx.send_after(
                elapsed + ser,
                node,
                home,
                flush_bytes + super::CONTROL_MSG_BYTES,
                Msg::Flush {
                    program,
                    batch,
                    ack_to: Some((node, sid)),
                },
            );
        }
    }

    pub(super) fn roam_capture_and_ship(
        &mut self,
        node: usize,
        tid: usize,
        sid: SessionId,
        dest: usize,
        elapsed: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        self.nodes[node]
            .sessions
            .get_mut(&sid)
            .unwrap()
            .pending_roam = None;
        let nframes = self.nodes[node].vm.thread(tid).unwrap().frames.len();
        let path = ToolingPath::Jvmti;
        let (state, tool_ns) = match capture_segment(&mut self.nodes[node].vm, tid, nframes, path) {
            Ok(captured) => captured,
            Err(e) => return self.fail_session(node, sid, e.to_string(), ctx.now() + elapsed),
        };
        let dest_jvmti = self.nodes[dest].cfg.has_jvmti;
        let capture_ns = if dest_jvmti {
            self.nodes[node].cfg.scale(tool_ns)
        } else {
            self.nodes[node]
                .cfg
                .scale(costs::PORTABLE_CAPTURE_FIXED_NS + costs::serialize_ns(state.wire_bytes()))
        };

        let (program, home, return_to, home_pop_frames) = {
            let w = &self.nodes[node].sessions[&sid];
            (w.program, w.home, w.return_to, w.home_pop_frames)
        };
        let new_sid = self.alloc_session(node);
        let seeds = BundleSeeds::of(&state);
        let (bundled, class_bytes) = self.bundle_for(node, home, dest, &seeds);
        let info = SegmentInfo {
            program,
            session: new_sid,
            home,
            return_to,
            nframes: state.frames.len(),
            // The home's stale-frame count is fixed at the original
            // capture; the roamed stack's own height is irrelevant to it.
            home_pop_frames,
            wait_for_return: false,
        };
        let frame = match encode_state_pooled(&self.buf_pool, &state) {
            Ok(f) => f,
            Err(e) => {
                self.fail_session(
                    node,
                    sid,
                    format!("roam state encode failed: {e}"),
                    ctx.now(),
                );
                return;
            }
        };
        // Retire the old session and its thread. The roamed session
        // inherits the old one's slot in the episode's valid set, so its
        // arrival and eventual home return pass the chaos staleness guards.
        self.retire_session(node, sid);
        let valid = &mut self.programs[program as usize].valid_sessions;
        if let Some(slot) = valid.iter_mut().find(|(_, s)| *s == sid) {
            *slot = (dest, new_sid);
        }

        self.ship_segment(
            node,
            elapsed + capture_ns,
            StagedSegment {
                dest,
                info,
                frame,
                seeds,
                bundled,
                class_bytes,
                capture_ns,
            },
            ctx,
        );
    }
}

/// Split a transfer window between its state and class portions,
/// proportionally to their byte counts. Integer division rounds the class
/// share down and the remainder goes to the state share, so the two
/// portions always sum to the exact window and
/// [`crate::metrics::MigrationTimings::latency_ns`] is conserved.
pub(super) fn split_transfer_window(window: u64, state_bytes: u64, class_bytes: u64) -> (u64, u64) {
    let total_b = (state_bytes + class_bytes).max(1);
    let class_ns = window * class_bytes / total_b;
    (window - class_ns, class_ns)
}

#[cfg(test)]
mod tests {
    use super::split_transfer_window;

    #[test]
    fn transfer_window_split_is_conserved() {
        // Odd byte ratios used to leave up to 1 ns unaccounted.
        for (window, state, class) in [
            (1_000_003u64, 7u64, 3u64),
            (999_999, 1, 2),
            (5, 3, 3),
            (17, 0, 9),
            (17, 9, 0),
            (0, 4, 4),
            (123_456_789, 1_000_000, 333_333),
        ] {
            let (s, c) = split_transfer_window(window, state, class);
            assert_eq!(s + c, window, "window={window} state={state} class={class}");
        }
        // Degenerate zero-byte message: the whole window is state time.
        assert_eq!(split_transfer_window(42, 0, 0), (42, 0));
    }
}
