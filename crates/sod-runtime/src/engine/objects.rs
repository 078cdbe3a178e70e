//! The object manager: on-demand object fetches (heap-on-demand), dirty
//! write-back flushes with temp-id assignment, and flush acks.
//!
//! Objects cross the wire without an intermediate form (the codec is
//! `sod_vm::wire`, "Objects"):
//!
//! * a fault reply is written from the home's heap entry into a pooled
//!   buffer — a `Deep` fetch walks the closure's *ids* and writes each
//!   object the same way, all into that one buffer;
//! * the worker installs a reply from its frames straight into its heap's
//!   slot arena, under the loaded class's own name `Arc`;
//! * a completion flush is written object after object into one pooled
//!   buffer, and the home writes the slots of each frame straight into its
//!   masters.
//!
//! Both receiving sides walk **every** frame of the batch with the codec's
//! validating reader before the first heap write. The walk allocates
//! nothing; what it buys is that a reply or a flush with a malformed frame
//! anywhere in it fails its program with the heap exactly as it was —
//! never half a closure installed, never half a flush applied. A frame that
//! decodes but cannot be what it claims — an instance without its loaded
//! class's slot count, a refresh that would change a cached copy's shape, a
//! flush frame whose slot count is not its target's — fails the program
//! typed too: a flush before any of it is written, a reply with the heap
//! as that frame found it (a forged `Deep` reply keeps the frames ahead of
//! the bad one, as clean copies of what was sent). Every batch, installed
//! or not, ends in [`Cluster::retire_batch`], which is what keeps the
//! buffer pool full on lossy and hostile runs too.
//!
//! The codec also has a decoded, owned view of an object frame, for tests,
//! replays and tools. The engine never builds one, and CI greps this
//! directory for the type's name to keep it that way.

use std::iter;

use sod_net::SimCtx;
use sod_vm::capture::CapturedValue;
use sod_vm::error::{VmError, VmResult};
use sod_vm::heap::{HeapObj, Home, ObjKind};
use sod_vm::idhash::{IdMap, IdSet};
use sod_vm::interp::{ParkReason, ThreadState, Vm};
use sod_vm::value::{ObjId, OriginId, Value};
use sod_vm::wire::{
    closure_ids, put_dirty_object, put_home_object, BatchWriter, BufferPool, FrameBatch, FrameBody,
    ObjectFrame, Slots,
};

use crate::costs;
use crate::msg::{Msg, ProgramId, SessionId};

use super::protocol::{self, WorkerEffect, WorkerInput};
use super::{Cluster, FetchPolicy, CONTROL_MSG_BYTES, TEMP_ID_BASE};

impl Cluster {
    pub(super) fn object_request(
        &mut self,
        home: usize,
        sid: SessionId,
        requester: usize,
        home_id: ObjId,
        program: ProgramId,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let policy = self.programs[program as usize].fetch_policy;
        // Encode once on the home side: the root frame first, then any
        // prefetched objects (the closure in BFS order), batched into one
        // delivery frame. The batch's payload length is the object byte
        // metric at both ends.
        let heap = &self.nodes[home].vm.heap;
        let batch = match encode_reply(heap, home_id, policy, &self.buf_pool) {
            Ok(batch) => batch,
            Err(e @ VmError::Encode(_)) => {
                let error = format!("object encode failed: {e}");
                self.end_program(program, Err(error), ctx.now());
                return;
            }
            Err(e) => {
                // A request for an object this heap never allocated: fail
                // the program, whose end retires the session parked on the
                // fault with every other its episode lists.
                let error = format!("object request for home object {home_id} failed: {e}");
                self.end_program(program, Err(error), ctx.now());
                return;
            }
        };
        let bytes = batch.payload_bytes();
        let cost = costs::OBJ_LOOKUP_NS + costs::serialize_ns(bytes);
        self.nodes[home].net_sent.object += bytes;
        ctx.send_after(
            self.nodes[home].cfg.scale(cost),
            home,
            requester,
            bytes,
            Msg::ObjectReply {
                session: sid,
                batch,
            },
        );
    }

    pub(super) fn object_reply(
        &mut self,
        node: usize,
        sid: SessionId,
        batch: FrameBatch,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let bytes = batch.payload_bytes();
        let Some(w) = self.nodes[node].sessions.get(&sid) else {
            // The session retired while the reply was in flight (killed by
            // a crash or a superseding retry), or never lived here.
            return self.drop_reply(node, batch);
        };
        let (tid, program, origin) = (w.tid, w.program, w.origin());
        let vm = &self.nodes[node].vm;
        // Vet every frame before touching the heap so a malformed reply
        // fails the program without half-installing the closure.
        let installed = match validate_batch(&batch) {
            // A reply answers the one fault it was fetched for. A duplicate,
            // a late copy, or a reply reaching a thread parked on a host
            // call or on another fault finds no thread waiting for its
            // root, and is dropped like a reply to a retired session.
            Ok(())
                if batch
                    .frames()
                    .first()
                    .is_some_and(|root| !awaits(vm, tid, root)) =>
            {
                return self.drop_reply(node, batch);
            }
            // An empty reply, or one that does not fit its classes, fails
            // the program — typed.
            Ok(()) => install_reply(&mut self.nodes[node].vm, tid, origin, &batch)
                .map_err(|e| format!("object reply rejected: {e}")),
            Err(e) => Err(format!("object reply decode failed: {e}")),
        };
        self.retire_batch(batch);
        if let Err(error) = installed {
            // Nobody accounts a refused reply: its bytes are lost here.
            self.nodes[node].net_lost.object += bytes;
            self.fail_session(node, sid, error, ctx.now());
            return;
        }
        let report = &mut self.programs[program as usize].report;
        report.object_faults += 1;
        report.object_bytes += bytes;
        let cost = self.nodes[node].cfg.scale(costs::deserialize_ns(bytes));
        ctx.schedule(cost, node, Msg::RunSlice { tid });
    }

    /// Drop an object reply nobody waits for: nobody is left to resume,
    /// and nobody's report will account its bytes — credit them as lost.
    fn drop_reply(&mut self, node: usize, batch: FrameBatch) {
        self.nodes[node].net_lost.object += batch.payload_bytes();
        self.retire_batch(batch);
    }

    pub(super) fn apply_flush(
        &mut self,
        home: usize,
        program: ProgramId,
        batch: FrameBatch,
        ack_to: Option<(usize, SessionId)>,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let total_bytes = batch.payload_bytes();
        let applied = write_back(&mut self.nodes[home].vm, &batch);
        self.retire_batch(batch);
        let assigned = match applied {
            Ok(assigned) => assigned,
            Err(e) => {
                self.end_program(program, Err(format!("flush decode failed: {e}")), ctx.now());
                return;
            }
        };
        if let Some((node, sid)) = ack_to {
            let cost = costs::deserialize_ns(total_bytes);
            ctx.send_after(
                self.nodes[home].cfg.scale(cost),
                home,
                node,
                CONTROL_MSG_BYTES,
                Msg::FlushAck {
                    session: sid,
                    assigned,
                },
            );
        }
    }

    pub(super) fn flush_ack(
        &mut self,
        node: usize,
        sid: SessionId,
        assigned: Vec<(ObjId, ObjId)>,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let n = &mut self.nodes[node];
        // An ack for a session that never lived here (a forgery), or for
        // one already retired (a duplicate, or the ack of a flush whose
        // session a deadline killed): nothing to resume — as for a reply.
        let Some(w) = n.sessions.get_mut(&sid) else {
            return;
        };
        // Record master ids on the local copies (a temp id naming no
        // local object is ignored, as a stale ack's would be).
        let (origin, tid) = (w.origin(), w.tid);
        for (temp, home_id) in &assigned {
            let local = temp.wrapping_sub(TEMP_ID_BASE);
            let _ = n.vm.heap.set_home(local, origin, *home_id);
        }
        match protocol::worker(&mut w.phase, WorkerInput::FlushAck) {
            WorkerEffect::Roam(dest) => {
                self.roam_capture_and_ship(node, tid, sid, dest, 0, ctx);
            }
            WorkerEffect::Return(retval) => {
                let mapped = retval.map(|cv| match cv {
                    CapturedValue::HomeRef(h) if h >= TEMP_ID_BASE => {
                        let home_id = assigned
                            .iter()
                            .find(|(t, _)| *t == h)
                            .map(|(_, n)| *n)
                            .unwrap_or(h);
                        CapturedValue::HomeRef(home_id)
                    }
                    other => other,
                });
                self.send_segment_return(node, sid, mapped, 0, ctx);
            }
            _ => {}
        }
    }
}

/// Write the reply to a fault on `root`: that object alone, or under
/// [`FetchPolicy::Deep`] its whole closure, root first — every frame into
/// one pooled buffer.
fn encode_reply(
    heap: &sod_vm::heap::Heap,
    root: ObjId,
    policy: FetchPolicy,
    pool: &BufferPool,
) -> VmResult<FrameBatch> {
    let mut reply = BatchWriter::new(pool);
    match policy {
        FetchPolicy::Shallow => reply.frame(|buf| put_home_object(buf, heap, root))?,
        FetchPolicy::Deep => {
            for id in closure_ids(heap, root)? {
                reply.frame(|buf| put_home_object(buf, heap, id))?;
            }
        }
    }
    Ok(reply.finish())
}

/// Walk every frame of `batch` with the validating reader (no allocation,
/// no heap access): `Ok` exactly when all of them decode.
fn validate_batch(batch: &FrameBatch) -> VmResult<()> {
    batch.into_iter().try_for_each(|f| ObjectFrame::validate(f))
}

/// Whether thread `tid` is parked on the fault a reply rooted at `root`
/// answers: its object query names the root's home id.
fn awaits(vm: &Vm, tid: usize, root: &[u8]) -> bool {
    let parked = vm.thread(tid).map(|t| &t.state);
    matches!(
        (parked, ObjectFrame::read(root)),
        (Ok(ThreadState::Parked(ParkReason::ObjectFault(q))), Ok(frame)) if q.home_id == frame.home_id
    )
}

/// Install a vetted object reply from node `origin` — the faulted root
/// first, prefetched objects after — and resume the thread parked on it.
fn install_reply(vm: &mut Vm, tid: usize, origin: OriginId, batch: &FrameBatch) -> VmResult<()> {
    let Some((root, prefetched)) = batch.frames().split_first() else {
        return Err(VmError::RestoreProtocol(
            "object reply without the faulted root",
        ));
    };
    let local = vm.install_fetched(origin, root)?;
    for frame in prefetched {
        vm.install_fetched(origin, frame)?;
    }
    vm.resume_fetched(tid, local)
}

/// The slots `body` writes into an entry of kind `kind`: an instance's
/// into an instance, an array's into an array, nothing otherwise.
fn slots_for<'a>(kind: &ObjKind, body: FrameBody<'a>) -> Option<Slots<'a>> {
    match (kind, body) {
        (ObjKind::Obj { .. }, FrameBody::Obj { fields: slots, .. })
        | (ObjKind::Arr { .. }, FrameBody::Arr { elems: slots }) => Some(slots),
        _ => None,
    }
}

/// Apply a write-back flush to the home heap, straight from its frames;
/// returns the masters assigned to worker-created (temp-id) objects, in
/// frame order. Nothing is written unless every frame decodes and writes
/// the slots its target has: a master's own count, or for a
/// worker-created instance its loaded class's layout.
fn write_back(vm: &mut Vm, batch: &FrameBatch) -> VmResult<Vec<(ObjId, ObjId)>> {
    validate_batch(batch)?;
    // Pass 0: every frame fits what it writes, before anything is written.
    for frame in batch {
        let obj = ObjectFrame::read(frame)?;
        if obj.home_id >= TEMP_ID_BASE {
            if let FrameBody::Obj { class, fields } = obj.body {
                vm.instance_class(class, fields.len())?;
            }
        } else if let Ok((master, own)) = vm.heap.view(obj.home_id) {
            if slots_for(&master.kind, obj.body).is_some_and(|new| new.len() != own.len()) {
                return Err(VmError::Decode(
                    "flush frame's slot count differs from its master's",
                ));
            }
        }
    }
    // Pass 1: allocate masters for worker-created (temp-id) objects.
    vm.heap.mint_for(None);
    let mut assigned: Vec<(ObjId, ObjId)> = Vec::new();
    let mut masters: IdMap<ObjId, ObjId> = IdMap::default();
    for frame in batch {
        let obj = ObjectFrame::read(frame)?;
        if obj.home_id < TEMP_ID_BASE {
            continue;
        }
        let master = match obj.body {
            FrameBody::Obj { class, fields } => {
                let class = vm.instance_class(class, fields.len())?;
                vm.heap
                    .alloc_obj(class, iter::repeat_n(Value::Null, fields.len()))?
            }
            FrameBody::Arr { elems } => vm.heap.alloc_arr(elems.len())?,
            FrameBody::Str(s) => vm.heap.alloc_str(s),
        };
        masters.insert(obj.home_id, master);
        assigned.push((obj.home_id, master));
    }
    // Only temp ids are ever remapped, so a home id skips the lookup.
    let resolve = |id: ObjId| match id >= TEMP_ID_BASE {
        true => masters.get(&id).copied().unwrap_or(id),
        false => id,
    };
    // Pass 2: write bodies with refs resolved.
    for frame in batch {
        let obj = ObjectFrame::read(frame)?;
        let Ok(mut entry) = vm.heap.get_mut(resolve(obj.home_id)) else {
            continue;
        };
        if let Some(new) = slots_for(&entry.kind, obj.body) {
            for (slot, new) in entry.slots_mut().iter_mut().zip(new) {
                *slot = new?.to_mapped_value(|h| Some(resolve(h)))?;
            }
        }
        entry.dirty = false;
    }
    Ok(assigned)
}

/// Export a return value, assigning temp ids to worker-created objects.
pub(super) fn export_with_temps(vm: &Vm, v: Value) -> CapturedValue {
    match v {
        Value::Ref(id) => match vm.heap.get(id).ok().and_then(|o| o.home_id()) {
            Some(h) => CapturedValue::HomeRef(h),
            None => CapturedValue::HomeRef(TEMP_ID_BASE + id),
        },
        other => CapturedValue::from_value(other),
    }
}

/// Collect the write-back set of a session homed at `origin` from its
/// worker VM: dirty cached copies of that home's objects, dirty objects
/// that home's segments created here, plus every such creation reachable
/// from them or from the return value. Other homes' copies and creations
/// (several homes may share one worker) stay for their own sessions'
/// flushes, and this node's own masters — it may be a home too — are no
/// session's to flush. Each object (temp ids for worker-created ones) is
/// written exactly once, all of them into one pooled buffer; the returned
/// batch's payload length is the flush byte metric, and a flush of nothing
/// takes no buffer. Clears the flushed objects' dirty bits on success.
///
/// The set is the *home's*, not the finishing session's: a copy another of
/// the home's sessions dirtied here flushes with whichever ends first. That
/// is the model, so which program's `object_bytes` a flush credits is
/// arbitrary; the totals are conserved, and `SodSim::check_idle` checks
/// them per byte category.
pub(super) fn collect_flush(
    vm: &mut Vm,
    origin: OriginId,
    retval: Option<Value>,
    pool: &BufferPool,
) -> VmResult<FrameBatch> {
    let ours =
        |o: &HeapObj| matches!(o.home(), Home::Cached(g, _) | Home::Created(g) if g == origin);
    let heap = &vm.heap;
    // Ascending local-id order: it fixes the batch's frame order, and with
    // it the temp-id masters the home allocates.
    let mut queue: Vec<ObjId> = heap
        .dirty_objects()
        .filter(|(_, o)| ours(o))
        .map(|(id, _)| id)
        .collect();
    let mut seen: IdSet<ObjId> = queue.iter().copied().collect();
    if let Some(Value::Ref(id)) = retval {
        if seen.insert(id) {
            queue.push(id);
        }
    }
    let mut flush = BatchWriter::new(pool);
    while let Some(id) = queue.pop() {
        let Ok((obj, slots)) = heap.view(id) else {
            continue;
        };
        let include = ours(obj) && (obj.dirty || obj.home_id().is_none());
        if !include {
            continue;
        }
        flush.frame(|buf| put_dirty_object(buf, heap, id, TEMP_ID_BASE))?;
        // Traverse refs: worker-created neighbours must flush too.
        for slot in slots {
            if let Value::Ref(n) = *slot {
                if seen.insert(n) {
                    queue.push(n);
                }
            }
        }
    }
    let batch = flush.finish();
    vm.heap.clear_dirty_where(ours);
    Ok(batch)
}
