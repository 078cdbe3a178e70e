//! The migration protocol, destination side: segment arrival, bundled and
//! on-demand class loading, and both frame re-establishment protocols —
//! the breakpoint + `InvalidStateException` handler path (JVMTI nodes) and
//! the exact direct restore (workflow restore-ahead, no-JVMTI devices).

use std::sync::Arc;

use sod_net::SimCtx;
use sod_vm::capture::{begin_handler_restore, restore_segment_direct};
use sod_vm::class::{ClassDef, ExKind};
use sod_vm::costs;
use sod_vm::interp::{ParkReason, ThreadState};
use sod_vm::wire::decode_state;

use crate::metrics::MigrationTimings;
use crate::msg::{Msg, SessionId, StateMsg};

use super::migrate::split_transfer_window;
use super::protocol::{self, HomeEffect, HomeInput, WorkerEffect, WorkerInput, WorkerPhase};
use super::session::{Owner, WorkerSession};
use super::Cluster;

impl Cluster {
    // ------------------------------------------------------------------
    // Segment arrival & restore
    // ------------------------------------------------------------------

    pub(super) fn state_arrived(&mut self, node: usize, msg: StateMsg, ctx: &mut SimCtx<'_, Msg>) {
        let StateMsg {
            info,
            state,
            bundled,
            class_bytes,
            capture_ns,
            sent_at,
        } = msg;
        let arrived = ctx.now();
        // The state arrives as its wire frame, encoded once at capture:
        // the frame length is the state byte metric.
        let state_bytes = state.len() as u64;
        // A duplicate for a session living here is dropped by its phase;
        // otherwise the episode decides: a session it does not list here
        // is stale (the home re-shipped, fell back or ended while the
        // state was in flight, or sent it elsewhere). Either never restores: credit the bytes where
        // they landed so conservation closes.
        let sid = info.session;
        let duplicate = match self.nodes[node].sessions.get_mut(&sid) {
            Some(w) => protocol::worker(&mut w.phase, WorkerInput::State),
            None => WorkerEffect::Ok,
        };
        let landed = HomeInput::Arrived(node, sid);
        if matches!(duplicate, WorkerEffect::Drop)
            || !matches!(self.home_step(info.program, landed), HomeEffect::Ok)
        {
            self.nodes[node].net_lost.state += state_bytes;
            return;
        }
        let state = match decode_state(state.clone()) {
            Ok(decoded) => {
                // The frame's sole owner now: hand the buffer back to the
                // pool for the next capture.
                self.buf_pool.recycle(state);
                decoded
            }
            Err(e) => {
                // Malformed frame: typed rejection, never a panic. The
                // shipped bytes die here, like a stale arrival.
                let error = format!("state decode failed: {e}");
                self.end_program(info.program, Err(error), arrived);
                self.nodes[node].net_lost.state += state_bytes;
                return;
            }
        };
        let window = arrived.saturating_sub(sent_at);
        let (transfer_state_ns, transfer_class_ns) =
            split_transfer_window(window, state_bytes, class_bytes);
        let timings = MigrationTimings {
            capture_ns,
            transfer_state_ns,
            transfer_class_ns,
            restore_ns: 0,
            state_bytes,
            class_bytes,
        };

        // Bundled classes load immediately (charged into the prep time).
        // Each load links a fresh pre-resolved operand form (empty inline
        // caches, dispatch rows) on the destination: migrated stacks always
        // start cold and rewarm by executing — cache state is deliberately
        // never part of the wire image.
        let mut prep = self.nodes[node]
            .cfg
            .scale(costs::DESERIALIZE.of(state_bytes));
        for c in &bundled {
            if !self.nodes[node].vm.has_class(&c.name) {
                let cb = self.nodes[node].class_size(c);
                prep += self.nodes[node].cfg.scale(costs::CLASS_LOAD.of(cb));
                if let Err(e) = self.nodes[node].vm.load_class(c) {
                    let error = format!("bundled class {:?} failed to load: {e:?}", c.name);
                    self.end_program(info.program, Err(error), arrived);
                    // No session was created: the shipped state dies here.
                    self.nodes[node].net_lost.state += state_bytes;
                    return;
                }
            }
            self.nodes[node].repo.insert(c.name.clone(), c.clone());
        }

        // Remaining classes referenced by the segment ship on demand,
        // requested in sorted order: request order decides event sequence
        // numbers — the determinism the fleet suite pins.
        let vm = &self.nodes[node].vm;
        let mut missing: Vec<&str> = state.class_names().map(|c| &**c).collect();
        missing.retain(|c| !vm.has_class(c));
        missing.sort_unstable();
        missing.dedup();
        let missing: Vec<String> = missing.into_iter().map(str::to_owned).collect();

        let requests = missing.clone();
        let session = WorkerSession {
            program: info.program,
            home: info.home,
            tid: usize::MAX,
            return_to: info.return_to,
            nframes: info.nframes,
            home_pop_frames: info.home_pop_frames,
            wait_for_return: info.wait_for_return,
            phase: WorkerPhase::arrived(missing, Box::new(state)),
            timings,
            arrived_at: arrived,
            class_wait_ns: 0,
            recorded: false,
        };
        self.nodes[node].sessions.insert(sid, session);
        // The shipped stack arrived: it is no longer in flight toward this
        // node (saturating — restores can land here via paths that never
        // counted, e.g. an explicit plan naming a member directly).
        self.nodes[node].inbound_sessions = self.nodes[node].inbound_sessions.saturating_sub(1);

        if requests.is_empty() {
            ctx.schedule(prep, node, Msg::BeginRestore { session: sid });
        } else {
            let home = info.home;
            for name in requests {
                self.programs[info.program as usize].report.classes_shipped += 1;
                ctx.send_after(
                    prep,
                    node,
                    home,
                    costs::CONTROL_MSG.fixed,
                    Msg::ClassRequest {
                        session: sid,
                        requester: node,
                        name,
                        program: info.program,
                    },
                );
            }
        }
    }

    /// A requested class file arrived: load it, publish it in the local
    /// repository, and either count down the restore wait or resume the
    /// running thread that missed it.
    pub(super) fn class_reply(
        &mut self,
        dst: usize,
        session: SessionId,
        class: Arc<ClassDef>,
        bytes: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let load = self.nodes[dst].cfg.scale(costs::CLASS_LOAD.of(bytes));
        if !self.nodes[dst].vm.has_class(&class.name) {
            if let Err(e) = self.nodes[dst].vm.load_class(&class) {
                self.fail_session(
                    dst,
                    session,
                    format!("class {:?} failed to load: {e:?}", class.name),
                    ctx.now(),
                );
                return;
            }
        }
        self.nodes[dst]
            .repo
            .insert(class.name.clone(), class.clone());
        let n = &mut self.nodes[dst];
        let Some(w) = n.sessions.get_mut(&session) else {
            return; // session retired (its program failed, or it finished)
        };
        let parked = n.vm.thread(w.tid).is_ok_and(|t| {
            matches!(&t.state, ThreadState::Parked(ParkReason::ClassMiss(c)) if *c == class.name)
        });
        let name = &class.name;
        match protocol::worker(&mut w.phase, WorkerInput::Class { name, parked }) {
            WorkerEffect::AllClasses => {
                let wait = ctx.now().saturating_sub(w.arrived_at);
                w.timings.transfer_class_ns += wait;
                w.class_wait_ns += wait;
                ctx.schedule(load, dst, Msg::BeginRestore { session });
            }
            WorkerEffect::Resume => {
                // On-demand class during execution.
                let tid = w.tid;
                if let Err(e) = n.vm.resume_class_loaded(tid) {
                    self.fail_session(
                        dst,
                        session,
                        format!("class-load resume failed: {e:?}"),
                        ctx.now(),
                    );
                    return;
                }
                ctx.schedule(load, dst, Msg::RunSlice { tid });
            }
            // A class counted down already, or one nobody is parked on
            // (a duplicate reply): nothing to do.
            _ => {}
        }
    }

    pub(super) fn begin_restore(&mut self, node: usize, sid: SessionId, ctx: &mut SimCtx<'_, Msg>) {
        let n = &mut self.nodes[node];
        let Some(w) = n.sessions.get_mut(&sid) else {
            return; // retired first (its program failed), or never here
        };
        let wait = w.wait_for_return;
        let has_jvmti = n.cfg.has_jvmti;
        // The paper's portable protocol: JNI-invoke the bottom method, arm
        // a breakpoint, and let InvalidStateException handlers rebuild the
        // frames (costs accrue through interpreted-mode execution plus
        // per-frame tooling charges). Otherwise an exact direct restore:
        // restore-ahead workflow segments (must not re-execute invokes) and
        // no-JVMTI devices (Java-level reflective restore). Either call is
        // the decoded stack's last reader.
        let handler = has_jvmti && !wait;
        // Restore begins once, out of the arrival phase: a session already
        // restoring is past it.
        let input = WorkerInput::BeginRestore { handler, wait };
        let WorkerEffect::Restore(state) = protocol::worker(&mut w.phase, input) else {
            return;
        };
        let restored = if handler {
            begin_handler_restore(&mut n.vm, &state)
        } else {
            restore_segment_direct(&mut n.vm, &state)
        };
        drop(state);
        // A well-formed frame can still name a method this node's class
        // lacks, or carry the wrong locals count: the segment cannot run
        // here, which fails its program — typed — and nothing else.
        let tid = match restored {
            Ok(tid) => tid,
            Err(e) => return self.fail_session(node, sid, e.to_string(), ctx.now()),
        };
        if let Ok(t) = n.vm.thread_mut(tid) {
            t.interp_mode = handler;
            t.origin = Some(w.origin());
        }
        n.thread_owner.insert(tid, Owner::Worker(sid));
        w.tid = tid;
        if handler {
            let fixed = n
                .cfg
                .scale(costs::RESTORE_ENTRY.fixed + costs::JNI_INVOKE.fixed);
            ctx.schedule(fixed, node, Msg::RunSlice { tid });
            return;
        }
        let per_frame = costs::RESTORE_FRAME.of(w.nframes as u64);
        let base = match has_jvmti {
            true => costs::RESTORE_ENTRY.fixed + per_frame,
            false => costs::PORTABLE_RESTORE.of(w.timings.state_bytes) + per_frame,
        };
        let cost = n.cfg.scale(base);
        w.timings.restore_ns = (ctx.now() + cost)
            .saturating_sub(w.arrived_at)
            .saturating_sub(w.class_wait_ns);
        w.recorded = true;
        if !wait {
            ctx.schedule(cost, node, Msg::RunSlice { tid });
        }
        let report = &mut self.programs[w.program as usize].report;
        report.migrations.push(w.timings);
    }

    pub(super) fn restore_breakpoint(
        &mut self,
        node: usize,
        tid: usize,
        elapsed: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        // Only a restoring worker thread arms breakpoints, but anyone
        // holding the VM can (`Vm::set_breakpoint` is public tooling API):
        // a breakpoint tripped by any other thread, or outside a restore,
        // fails that thread's owner, typed, and nothing else.
        let at = ctx.now() + elapsed;
        let stray = |what: &str| format!("stray breakpoint: {what}");
        let n = &mut self.nodes[node];
        let Some(&Owner::Worker(sid)) = n.thread_owner.get(&tid) else {
            return self.fail_thread_owner(node, tid, stray("not a worker thread"), at);
        };
        let Some(w) = n.sessions.get_mut(&sid) else {
            return self.fail_session(node, sid, stray("owner names no session"), at);
        };
        let nframes = w.nframes;
        let WorkerEffect::Reestablish(cursor) =
            protocol::worker(&mut w.phase, WorkerInput::Breakpoint)
        else {
            return self.fail_session(node, sid, stray("session is not restoring"), at);
        };
        // cbBreakpoint (paper Fig. 4b): set the next frame's breakpoint,
        // point the restore cursor at this frame, throw the restoration
        // exception, resume.
        let vm = &mut n.vm;
        let session = vm.thread_mut(tid).ok();
        let Some(session) = session.and_then(|t| t.restore_session.as_deref_mut()) else {
            return self.fail_session(node, sid, stray("thread has no restore session"), at);
        };
        session.cursor = cursor;
        // Resolving reads the whole VM, so the segment is looked up again,
        // shared this time.
        let session = vm
            .thread(tid)
            .ok()
            .and_then(|t| t.restore_session.as_deref());
        let next = session.and_then(|s| s.frames.get(cursor + 1));
        let next = next.filter(|_| cursor + 1 < nframes);
        if let Some(next) = next.map(|f| f.resolve_in(vm)) {
            match next {
                Ok((ci, mi)) => vm.set_breakpoint(tid, ci, mi, 0),
                Err(e) => return self.fail_session(node, sid, e.to_string(), at),
            }
        }
        if let Err(e) = vm.throw_into(tid, ExKind::InvalidState, "restore", false) {
            return self.fail_session(node, sid, format!("restore throw failed: {e}"), at);
        }
        let charge = n.cfg.scale(
            costs::SET_BREAKPOINT.fixed + costs::THROW_INTO.fixed + costs::RESTORE_FRAME.of(1),
        );
        ctx.schedule(elapsed + charge, node, Msg::RunSlice { tid });
    }

    /// Handler-protocol restore finishes when every frame has been
    /// re-established and the thread executes a normal slice. That slice
    /// may have ended inside the top frame's handler, which goes on
    /// reading the thread's own `restore_session`; the VM drops it at the
    /// handler's last read.
    pub(super) fn maybe_finish_restore(
        &mut self,
        node: usize,
        tid: usize,
        elapsed: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let n = &mut self.nodes[node];
        let Some(Owner::Worker(sid)) = n.thread_owner.get(&tid) else {
            return;
        };
        let Some(w) = n.sessions.get_mut(sid) else {
            return;
        };
        let input = WorkerInput::SliceEnded(w.nframes);
        let WorkerEffect::Ok = protocol::worker(&mut w.phase, input) else {
            return;
        };
        if let Ok(t) = n.vm.thread_mut(tid) {
            t.interp_mode = false;
        }
        w.timings.restore_ns = (ctx.now() + elapsed)
            .saturating_sub(w.arrived_at)
            .saturating_sub(w.class_wait_ns);
        w.recorded = true;
        let report = &mut self.programs[w.program as usize].report;
        report.migrations.push(w.timings);
    }
}
