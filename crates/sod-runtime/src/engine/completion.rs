//! Segment completion: write-back flush, return-value routing to the next
//! workflow segment or back home, and `ForceEarlyReturn` resumption.

use sod_net::SimCtx;
use sod_vm::capture::CapturedValue;
use sod_vm::costs;
use sod_vm::error::{VmError, VmResult};
use sod_vm::interp::{ThreadState, Vm};
use sod_vm::value::Value;

use crate::msg::{Msg, ProgramId, ReturnTarget, SessionId};

use super::objects::{collect_flush, export_with_temps};
use super::protocol::{self, HomeInput, WorkerEffect, WorkerInput};
use super::{Cluster, TEMP_ID_BASE};

impl Cluster {
    // ------------------------------------------------------------------
    // Segment completion: flush + return routing
    // ------------------------------------------------------------------

    pub(super) fn segment_completed(
        &mut self,
        node: usize,
        sid: SessionId,
        retval: Option<Value>,
        elapsed: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let Some(w) = self.nodes[node].sessions.get(&sid) else {
            return;
        };
        let (program, home, origin) = (w.program, w.home, w.origin());
        let batch = match collect_flush(&mut self.nodes[node].vm, origin, retval, &self.buf_pool) {
            Ok(b) => b,
            Err(e) => {
                let error = format!("completion flush encode failed: {e}");
                return self.fail_session(node, sid, error, ctx.now());
            }
        };
        let flush_bytes = batch.payload_bytes();
        let n = &mut self.nodes[node];
        let retval = retval.map(|v| export_with_temps(&n.vm, v));
        let ack = matches!(retval, Some(CapturedValue::HomeRef(h)) if h >= TEMP_ID_BASE);
        let ser = costs::SERIALIZE.of(flush_bytes.max(1));
        let cost = elapsed + n.cfg.scale(ser);
        n.net_sent.object += flush_bytes;
        self.programs[program as usize].report.object_bytes += flush_bytes;

        // A returned worker-created object needs its master id first: the
        // flush is acknowledged, and the value travels at the ack.
        let effect = match n.sessions.get_mut(&sid) {
            Some(w) => protocol::worker(&mut w.phase, WorkerInput::Finished { retval, ack }),
            None => return,
        };
        let ack_to = matches!(effect, WorkerEffect::Ok).then_some((node, sid));
        if ack_to.is_some() || !batch.is_empty() {
            let flush = Msg::Flush {
                program,
                batch,
                ack_to,
            };
            ctx.send_after(
                cost,
                node,
                home,
                flush_bytes + costs::CONTROL_MSG.fixed,
                flush,
            );
        }
        if let WorkerEffect::Return(retval) = effect {
            self.send_segment_return(node, sid, retval, cost, ctx);
        }
    }

    pub(super) fn send_segment_return(
        &mut self,
        node: usize,
        sid: SessionId,
        retval: Option<CapturedValue>,
        delay: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let Some(w) = self.retire_session(node, sid) else {
            return;
        };
        let (program, target, pop_frames) = (w.program, w.return_to, w.home_pop_frames);
        let dest = match target {
            ReturnTarget::Home => self.programs[program as usize].home,
            ReturnTarget::Session { node, .. } => node,
        };
        let returned = Msg::SegmentReturn {
            program,
            session: sid,
            target,
            retval,
            pop_frames,
        };
        ctx.send_after(delay, node, dest, costs::CONTROL_MSG.fixed, returned);
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn segment_return(
        &mut self,
        node: usize,
        program: ProgramId,
        session: SessionId,
        target: ReturnTarget,
        retval: Option<CapturedValue>,
        pop_frames: usize,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        match target {
            ReturnTarget::Home => {
                let returned = self.home_step(program, HomeInput::Returned(session));
                if !self.close_episode(returned) {
                    // Stale return: the program ended (a home crash, a
                    // rejected flush) and its home thread is released, or
                    // a deadline-driven retry/fallback superseded the
                    // session before this value arrived. The home stack no
                    // longer expects it — drop it.
                    return;
                }
                // An episode is captured from the program's thread.
                let Some(tid) = self.programs[program as usize].thread else {
                    return;
                };
                let val = retval.map(|cv| match cv {
                    CapturedValue::Int(i) => Value::Int(i),
                    CapturedValue::Num(n) => Value::Num(n),
                    CapturedValue::Null => Value::Null,
                    CapturedValue::HomeRef(h) => Value::Ref(h),
                });
                // The value lands in the frame below the `pop_frames` the
                // segment replaced; a return that pops the whole home stack
                // (only a forged one can) has nowhere to land.
                let vm = &mut self.nodes[node].vm;
                if let Ok(t) = vm.thread_mut(tid) {
                    let keep = t.frames.len().saturating_sub(pop_frames.saturating_sub(1));
                    t.truncate_frames(keep);
                }
                let landed = vm.force_early_return(tid, val);
                let finished = match landed.and_then(|()| vm.thread(tid)) {
                    Ok(t) => match t.state {
                        ThreadState::Finished(v) => Some(v),
                        _ => None,
                    },
                    Err(e) => {
                        let error = format!("segment return failed: {e}");
                        return self.end_program(program, Err(error), ctx.now());
                    }
                };
                match finished {
                    Some(v) => self.end_program(program, Ok(v), ctx.now()),
                    None => ctx.schedule(
                        self.nodes[node].cfg.scale(costs::FORCE_EARLY_RETURN.fixed),
                        node,
                        Msg::RunSlice { tid },
                    ),
                }
            }
            ReturnTarget::Session { session, .. } => {
                // A chain whose lower segment failed (typed program
                // failure: arrival rejected, or its class request came up
                // empty) has nowhere to deliver: the session was retired
                // or never created, the program already carries the
                // error, and the stranded value is dropped.
                let Some(w) = self.nodes[node].sessions.get_mut(&session) else {
                    return;
                };
                let WorkerEffect::Ok = protocol::worker(&mut w.phase, WorkerInput::Return) else {
                    return;
                };
                let tid = w.tid;
                let origin = w.origin();
                let heap = &self.nodes[node].vm.heap;
                let val = retval.map(|cv| match cv {
                    CapturedValue::Int(i) => Value::Int(i),
                    CapturedValue::Num(n) => Value::Num(n),
                    CapturedValue::Null => Value::Null,
                    CapturedValue::HomeRef(h) => match heap.find_cached_from(origin, h) {
                        Some(local) => Value::Ref(local),
                        None => Value::NulledRef(h),
                    },
                });
                if let Err(e) = deliver_return(&mut self.nodes[node].vm, tid, val) {
                    let error = format!("segment return failed: {e}");
                    return self.fail_session(node, session, error, ctx.now());
                }
                ctx.schedule(costs::RETURN_RESUME.fixed, node, Msg::RunSlice { tid });
            }
        }
    }
}

/// Deliver a return value to a thread whose top frame is parked at the
/// invoke of a remotely executed method (workflow restore-ahead). A thread
/// with no frame to deliver to (a restored segment of none) is refused.
fn deliver_return(vm: &mut Vm, tid: usize, val: Option<Value>) -> VmResult<()> {
    let t = vm.thread_mut(tid)?;
    let Some(waiting) = t.frames.last_mut() else {
        return Err(VmError::BadThread(tid));
    };
    waiting.pc += 1;
    if let Some(v) = val {
        t.push_operand(v);
    }
    t.state = ThreadState::Runnable;
    Ok(())
}
