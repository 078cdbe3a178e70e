//! The migration protocol, home side: capture at a migration-safe point,
//! stage the plan's segments in a new episode, bundle code cache-awarely,
//! ship the episode — plus the class-serving endpoint and worker-to-worker
//! roaming hops, which stage their one segment through the same helpers.

use std::collections::BTreeSet;
use std::sync::Arc;

use sod_net::SimCtx;
use sod_vm::capture::{capture_segment, CapturedState};
use sod_vm::class::ClassDef;
use sod_vm::costs;
use sod_vm::error::VmResult;
use sod_vm::tooling::ToolingPath;
use sod_vm::wire::encode_state_pooled;

use crate::msg::{MigrationPlan, Msg, ProgramId, ReturnTarget, SegmentInfo, SessionId, StateMsg};

use super::pool::POOL_DEST_BASE;
use super::protocol::{self, HomeEffect, HomeInput, Shipment, WorkerEffect, WorkerInput};
use super::session::{BundleSeeds, Owner, StagedSegment};
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
                match self.home_step(program, HomeInput::Msp) {
                    HomeEffect::Capture(plan) => {
                        self.capture_and_stage(node, tid, program, &plan, elapsed, ctx)
                    }
                    // Stopped with no plan to follow: run on.
                    _ => ctx.schedule(elapsed, node, Msg::RunSlice { tid }),
                }
            }
            Some(Owner::Worker(s)) => {
                let sid = *s;
                self.begin_roam(node, tid, sid, elapsed, ctx);
            }
            // A thread nobody owns is not the engine's; leave it parked.
            None => {}
        }
    }

    /// Home-side capture: one freeze, segments staged in a new episode,
    /// `CaptureDone` timer.
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
        // placement resolves at *ship* time (`ship_episode`), so it sees
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
        let vm = &self.nodes[node].vm;
        let height = vm.thread(tid).map_or(0, |t| t.frames.len());
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
        let path = ToolingPath::for_destination(all_jvmti);
        let (full, capture_ns) = match self.capture(node, tid, total, path) {
            Ok(captured) => captured,
            Err(e) => return self.end_program(program, Err(e.to_string()), ctx.now() + elapsed),
        };

        // Split bottom-up frames into the plan's segments (top first),
        // skipping specs the live stack is too short to populate. Ids are
        // minted here, in segment order; returns are wired at ship time.
        let mut frames = full.frames;
        let mut segments: Vec<StagedSegment> = Vec::new();
        for spec in &plan.segments {
            let k = spec.nframes.min(frames.len());
            if k == 0 {
                continue;
            }
            // Pending at the pool until placement resolves at ship time,
            // so the controller's next tick sees this demand mid-freeze.
            if spec.dest >= POOL_DEST_BASE {
                self.pools[spec.dest - POOL_DEST_BASE].pending += 1;
            }
            let state = CapturedState {
                frames: frames.split_off(frames.len() - k),
                statics: full.statics.clone(),
            };
            let info = SegmentInfo {
                program,
                session: self.alloc_session(node),
                home: node,
                return_to: ReturnTarget::Home,
                nframes: k,
                // Whoever ultimately returns home discards *all* the frames
                // this capture froze there — the chain above the bottom
                // segment returns remotely and the home never replays it.
                home_pop_frames: total,
                wait_for_return: !segments.is_empty(),
            };
            match self.stage(node, spec.dest, state, info, capture_ns) {
                Ok(seg) => segments.push(seg),
                Err(e) => {
                    let error = format!("segment encode failed: {e}");
                    return self.end_program(program, Err(error), ctx.now());
                }
            }
        }

        self.home_step(program, HomeInput::Froze(segments));
        ctx.schedule(elapsed + capture_ns, node, Msg::CaptureDone { program });
    }

    /// Capture the top `nframes` of `tid` on `node` and price the freeze on
    /// `path`: JVMTI when every receiving destination has it, else the
    /// portable path, priced on the capture's wire size.
    fn capture(
        &mut self,
        node: usize,
        tid: usize,
        nframes: usize,
        path: ToolingPath,
    ) -> VmResult<(CapturedState, u64)> {
        let (state, ns) = capture_segment(&mut self.nodes[node].vm, tid, nframes, path)?;
        Ok((state, self.nodes[node].cfg.scale(ns)))
    }

    /// Stage one segment for `dest` from `sender`, for a home capture and a
    /// roaming hop alike: bundle code per the policy and the peer cache (a
    /// pool-routed segment bundles at ship time, once its member is known),
    /// and encode the state once — `frame.len()` is the byte metric at
    /// every later touch point. An unencodable state (a name or sequence
    /// overflowing its length prefix) is the caller's typed failure.
    fn stage(
        &mut self,
        sender: usize,
        dest: usize,
        state: CapturedState,
        info: SegmentInfo,
        capture_ns: u64,
    ) -> VmResult<StagedSegment> {
        let seeds = BundleSeeds::of(&state);
        let (bundled, class_bytes) = match dest >= POOL_DEST_BASE {
            true => (Vec::new(), 0),
            false => self.bundle_for(sender, info.home, dest, &seeds),
        };
        let frame = encode_state_pooled(&self.buf_pool, &state)?;
        Ok(StagedSegment {
            dest,
            info,
            frame,
            seeds,
            bundled,
            class_bytes,
            capture_ns,
        })
    }

    /// Apply [`HomeEffect::Ship`] for `program`'s open episode: at
    /// `CaptureDone`, and again on each deadline-driven re-ship, which
    /// retires the superseded sessions and mints fresh ids. Pool sentinels
    /// resolve here, so placement sees every member spawned while the
    /// capture ran: once per sentinel (a whole-stack chain co-locates), the
    /// in-flight count moving from the pool's pending to the member, the
    /// bundle chosen for the member's peer cache; a pool with no member left
    /// falls back to the home node. Then each return target is wired to the
    /// placed segment below (the last returns home) and the episode records
    /// its sessions.
    pub(super) fn ship_episode(
        &mut self,
        program: ProgramId,
        shipment: Shipment<StagedSegment>,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let home = self.programs[program as usize].home;
        for (node, sid) in shipment.retire {
            self.retire_session(node, sid);
        }
        let mut segs = shipment.segments;
        let mut chosen: Vec<(usize, usize)> = Vec::new(); // sentinel -> member
        for seg in &mut segs {
            if shipment.fresh_ids {
                seg.info.session = self.alloc_session(home);
            }
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
            (seg.bundled, seg.class_bytes) = self.bundle_for(home, home, member, &seg.seeds);
        }
        let mut return_to = ReturnTarget::Home;
        for seg in segs.iter_mut().rev() {
            seg.info.return_to = return_to;
            let (node, session) = (seg.dest, seg.info.session);
            return_to = ReturnTarget::Session { node, session };
        }
        let sessions = segs.iter().map(|s| (s.dest, s.info.session)).collect();
        let kept = if shipment.keep {
            segs.clone()
        } else {
            Vec::new()
        };
        self.home_step(program, HomeInput::Shipped(sessions, kept));
        self.recovery.arm(home, program, shipment.deadline, ctx);
        for seg in segs {
            self.ship_segment(home, 0, seg, ctx);
        }
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
            delay + costs::HANDSHAKE.fixed,
            sender,
            seg.dest,
            state_bytes + seg.class_bytes + costs::MIGRATION_MSG.fixed,
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

    /// A worker asked this node, its program's home, for a class file. A
    /// missing class is a typed program failure (recorded in
    /// `ProgramRun.error`), not an engine abort — fleet members keep
    /// running. The program's end closes its episode, which retires the
    /// requesting session with every other it lists.
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
            let error = format!("home node {dst} missing class {name:?}");
            self.end_program(program, Err(error), ctx.now());
            return;
        };
        let bytes = self.nodes[dst].class_size(&class);
        let cost = self.nodes[dst].cfg.scale(costs::SERIALIZE.of(bytes));
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
            self.end_program(w.program, Err(error), at);
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
        let Some(w) = self.nodes[node].sessions.get_mut(&sid) else {
            return;
        };
        let WorkerEffect::Roam(dest) = protocol::worker(&mut w.phase, WorkerInput::Msp) else {
            // Stopped with nowhere to roam: run on.
            return ctx.schedule(elapsed, node, Msg::RunSlice { tid });
        };
        let (program, home, origin) = (w.program, w.home, w.origin());
        let vm = &mut self.nodes[node].vm;
        let batch = match super::objects::collect_flush(vm, origin, None, &self.buf_pool) {
            Ok(b) => b,
            Err(e) => {
                let error = format!("roam flush encode failed: {e}");
                return self.fail_session(node, sid, error, ctx.now());
            }
        };
        if batch.is_empty() {
            // Nothing to reconcile: capture immediately.
            self.roam_capture_and_ship(node, tid, sid, dest, elapsed, ctx);
        } else {
            let flush_bytes = batch.payload_bytes();
            let ser = self.nodes[node].cfg.scale(costs::SERIALIZE.of(flush_bytes));
            self.nodes[node].net_sent.object += flush_bytes;
            self.programs[program as usize].report.object_bytes += flush_bytes;
            let flush = Msg::Flush {
                program,
                batch,
                ack_to: Some((node, sid)),
            };
            let bytes = flush_bytes + costs::CONTROL_MSG.fixed;
            ctx.send_after(elapsed + ser, node, home, bytes, flush);
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
        let Some(w) = self.nodes[node].sessions.get(&sid) else {
            return;
        };
        let (program, home, return_to, home_pop_frames) =
            (w.program, w.home, w.return_to, w.home_pop_frames);
        let vm = &self.nodes[node].vm;
        let nframes = vm.thread(tid).map_or(0, |t| t.frames.len());
        let path = ToolingPath::for_destination(self.nodes[dest].cfg.has_jvmti);
        let (state, capture_ns) = match self.capture(node, tid, nframes, path) {
            Ok(captured) => captured,
            Err(e) => return self.fail_session(node, sid, e.to_string(), ctx.now() + elapsed),
        };
        let info = SegmentInfo {
            program,
            session: self.alloc_session(node),
            home,
            return_to,
            nframes,
            // The home's stale-frame count is fixed at the original
            // capture; the roamed stack's own height is irrelevant to it.
            home_pop_frames,
            wait_for_return: false,
        };
        let seg = match self.stage(node, dest, state, info, capture_ns) {
            Ok(seg) => seg,
            Err(e) => {
                let error = format!("roam state encode failed: {e}");
                return self.fail_session(node, sid, error, ctx.now());
            }
        };
        // Retire the old session and its thread. The roamed session takes
        // the old one's entry in its episode, so its arrival and eventual
        // home return are not stale.
        self.retire_session(node, sid);
        let to = (dest, seg.info.session);
        self.home_step(program, HomeInput::Roamed(sid, to));
        self.ship_segment(node, elapsed + capture_ns, seg, ctx);
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
