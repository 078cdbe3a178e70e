//! The object manager: on-demand object fetches (heap-on-demand), dirty
//! write-back flushes with temp-id assignment, and flush acks.

use std::collections::{HashMap, HashSet};

use sod_net::SimCtx;
use sod_vm::capture::CapturedValue;
use sod_vm::error::{VmError, VmResult};
use sod_vm::heap::HeapObj;
use sod_vm::interp::{ParkReason, ThreadState};
use sod_vm::value::{ObjId, OriginId, Value};
use sod_vm::wire::{
    decode_object, encode_object_pooled, extract_closure, extract_dirty, extract_object,
    install_object_from, BufferPool, FrameBatch, WireObject,
};

use crate::costs;
use crate::msg::{Msg, ProgramId, SessionId};

use super::session::WorkerPhase;
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
        let heap = &self.nodes[home].vm.heap;
        let extracted = match policy {
            FetchPolicy::Shallow => extract_object(heap, home_id).map(|root| (root, Vec::new())),
            // The closure comes back in BFS order, root first.
            FetchPolicy::Deep => extract_closure(heap, home_id).map(|mut closure| {
                let root = closure.remove(0);
                (root, closure)
            }),
        };
        let (root, prefetched) = match extracted {
            Ok(x) => x,
            Err(e) => {
                // A request for an object this heap never allocated: fail
                // the program and retire the session parked on the fault.
                self.mark_done(requester, sid);
                self.fail_program(
                    program,
                    format!("object request for home object {home_id} failed: {e}"),
                    ctx.now(),
                );
                return;
            }
        };
        // Encode once on the home side: the root frame first, then any
        // prefetched objects, batched into one delivery frame. The batch's
        // payload length is the object byte metric at both ends.
        let mut batch = FrameBatch::new();
        for obj in std::iter::once(&root).chain(prefetched.iter()) {
            match encode_object_pooled(&self.buf_pool, obj) {
                Ok(f) => batch.push(f),
                Err(e) => {
                    self.fail_program(program, format!("object encode failed: {e}"), ctx.now());
                    return;
                }
            }
        }
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
            // No session ever lived here (arrival raced a retirement that
            // also dropped the map entry): nothing to resume, and nobody's
            // report will account the bytes — credit them as lost.
            self.nodes[node].net_lost.object += bytes;
            return;
        };
        let tid = w.tid;
        let program = w.program;
        let origin = w.origin();
        if matches!(w.phase, WorkerPhase::Done) || tid == usize::MAX {
            // Session retired (killed by a crash or a superseding retry)
            // while the reply was in flight. The bytes still arrived on
            // this program's behalf; account them on its report so the
            // object ledger stays balanced, but leave the dead thread be.
            let report = &mut self.programs[program as usize].report;
            report.object_faults += 1;
            report.object_bytes += bytes;
            return;
        }
        // Decode every frame before touching the heap so a malformed reply
        // fails the program without half-installing the closure.
        let mut objects: Vec<WireObject> = Vec::with_capacity(batch.len());
        for f in batch.frames() {
            match decode_object(f.clone()) {
                Ok(o) => objects.push(o),
                Err(e) => {
                    self.fail_session(
                        node,
                        sid,
                        format!("object reply decode failed: {e}"),
                        ctx.now(),
                    );
                    return;
                }
            }
        }
        for f in batch.into_frames() {
            self.buf_pool.recycle(f);
        }
        // A reply that is empty, or that reaches a thread no longer parked
        // on a fault (a duplicate, a forgery), fails the program — typed.
        if let Err(e) = install_reply(&mut self.nodes[node].vm, tid, origin, &objects) {
            self.fail_session(node, sid, format!("object reply rejected: {e}"), ctx.now());
            return;
        }
        let report = &mut self.programs[program as usize].report;
        report.object_faults += 1;
        report.object_bytes += bytes;
        let cost = self.nodes[node].cfg.scale(costs::deserialize_ns(bytes));
        ctx.schedule(cost, node, Msg::RunSlice { tid });
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
        // Decode the whole batch before touching the heap so a malformed
        // frame fails the program without a half-applied flush.
        let mut objects: Vec<WireObject> = Vec::with_capacity(batch.len());
        for f in batch.frames() {
            match decode_object(f.clone()) {
                Ok(o) => objects.push(o),
                Err(e) => {
                    self.fail_program(program, format!("flush decode failed: {e}"), ctx.now());
                    return;
                }
            }
        }
        for f in batch.into_frames() {
            self.buf_pool.recycle(f);
        }
        let objects = &objects[..];
        let vm = &mut self.nodes[home].vm;
        // Pass 1: allocate masters for worker-created (temp-id) objects.
        let mut assigned: Vec<(ObjId, ObjId)> = Vec::new();
        let mut map: HashMap<ObjId, ObjId> = HashMap::new();
        for obj in objects {
            if obj.home_id >= TEMP_ID_BASE {
                let new_id = match &obj.body {
                    sod_vm::wire::WireObjBody::Obj { class, fields } => vm
                        .heap
                        .alloc_obj(class.clone(), vec![Value::Null; fields.len()]),
                    sod_vm::wire::WireObjBody::Arr { elems } => vm.heap.alloc_arr(elems.len()),
                    sod_vm::wire::WireObjBody::Str(s) => vm.heap.alloc_str(s.clone()),
                };
                map.insert(obj.home_id, new_id);
                assigned.push((obj.home_id, new_id));
            }
        }
        // Pass 2: write bodies with refs resolved.
        let resolve = |cv: &CapturedValue, map: &HashMap<ObjId, ObjId>| -> Value {
            match cv {
                CapturedValue::Int(i) => Value::Int(*i),
                CapturedValue::Num(n) => Value::Num(*n),
                CapturedValue::Null => Value::Null,
                CapturedValue::HomeRef(h) => Value::Ref(map.get(h).copied().unwrap_or(*h)),
            }
        };
        for obj in objects {
            let target = map.get(&obj.home_id).copied().unwrap_or(obj.home_id);
            let mut entry = match vm.heap.get_mut(target) {
                Ok(e) => e,
                Err(_) => continue,
            };
            match (&mut entry.kind, &obj.body) {
                (
                    sod_vm::heap::ObjKind::Obj { fields, .. },
                    sod_vm::wire::WireObjBody::Obj { fields: new, .. },
                ) => {
                    for (i, cv) in new.iter().enumerate() {
                        if i < fields.len() {
                            fields[i] = resolve(cv, &map);
                        }
                    }
                }
                (
                    sod_vm::heap::ObjKind::Arr { elems },
                    sod_vm::wire::WireObjBody::Arr { elems: new },
                ) => {
                    for (i, cv) in new.iter().enumerate() {
                        if i < elems.len() {
                            elems[i] = resolve(cv, &map);
                        }
                    }
                }
                _ => {}
            }
            entry.dirty = false;
        }
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
        // Record master ids on the local copies (a temp id naming no
        // local object is ignored, as a stale ack's would be).
        let origin = self.nodes[node].sessions[&sid].origin();
        for (temp, home_id) in &assigned {
            let local = temp.wrapping_sub(TEMP_ID_BASE);
            let _ = self.nodes[node].vm.heap.set_home(local, origin, *home_id);
        }
        let phase = std::mem::replace(
            &mut self.nodes[node].sessions.get_mut(&sid).unwrap().phase,
            WorkerPhase::Done,
        );
        match phase {
            WorkerPhase::AwaitRoamAck { dest } => {
                let w = self.nodes[node].sessions.get_mut(&sid).unwrap();
                w.phase = WorkerPhase::Running;
                let tid = w.tid;
                self.roam_capture_and_ship(node, tid, sid, dest, 0, ctx);
            }
            WorkerPhase::AwaitCompleteAck { retval } => {
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
            other => {
                self.nodes[node].sessions.get_mut(&sid).unwrap().phase = other;
            }
        }
    }
}

/// Install a decoded object reply from node `origin` — the faulted root
/// first, prefetched objects after — and resume the thread parked on it.
/// A reply nobody is parked for is rejected before it touches the heap.
fn install_reply(
    vm: &mut sod_vm::interp::Vm,
    tid: usize,
    origin: OriginId,
    objects: &[WireObject],
) -> VmResult<()> {
    let (root, prefetched) = objects.split_first().ok_or(VmError::RestoreProtocol(
        "object reply without the faulted root",
    ))?;
    if !matches!(
        vm.thread(tid)?.state,
        ThreadState::Parked(ParkReason::ObjectFault(_))
    ) {
        return Err(VmError::ThreadParked(tid));
    }
    let local = install_object_from(&mut vm.heap, origin, root)?;
    for p in prefetched {
        install_object_from(&mut vm.heap, origin, p)?;
    }
    vm.resume_fetched(tid, local)
}

/// Export a return value, assigning temp ids to worker-created objects.
pub(super) fn export_with_temps(vm: &sod_vm::interp::Vm, v: Value) -> CapturedValue {
    match v {
        Value::Ref(id) => match vm.heap.get(id).ok().and_then(|o| o.home_id()) {
            Some(h) => CapturedValue::HomeRef(h),
            None => CapturedValue::HomeRef(TEMP_ID_BASE + id),
        },
        other => CapturedValue::from_value(other),
    }
}

/// Collect the write-back set of a session homed at `origin` from its
/// worker VM: dirty cached copies of that home's objects, dirty
/// worker-created objects, plus all worker-created objects reachable from
/// them or from the return value. Other homes' dirty copies (several homes
/// may share one worker) stay dirty for their own sessions' flushes. Each
/// object (temp ids for worker-created ones) is encoded exactly once into
/// a pooled frame; the returned batch's payload length is the flush byte
/// metric. Clears the flushed objects' dirty bits on success.
pub(super) fn collect_flush(
    vm: &mut sod_vm::interp::Vm,
    origin: OriginId,
    retval: Option<Value>,
    pool: &BufferPool,
) -> VmResult<FrameBatch> {
    let ours = |o: &HeapObj| o.origin().is_none_or(|g| g == origin);
    // Ascending local-id order: it fixes the batch's frame order, and with
    // it the temp-id masters the home allocates.
    let mut roots: Vec<ObjId> = vm
        .heap
        .dirty_objects()
        .filter(|(_, o)| ours(o))
        .map(|(id, _)| id)
        .collect();
    if let Some(Value::Ref(id)) = retval {
        roots.push(id);
    }
    let mut seen: HashSet<ObjId> = HashSet::new();
    let mut queue: Vec<ObjId> = Vec::new();
    for r in roots {
        if seen.insert(r) {
            queue.push(r);
        }
    }
    let mut batch = FrameBatch::new();
    while let Some(id) = queue.pop() {
        let obj = match vm.heap.get(id) {
            Ok(o) => o,
            Err(_) => continue,
        };
        let include = ours(obj) && (obj.dirty || obj.home_id().is_none());
        if !include {
            continue;
        }
        // Traverse refs: worker-created neighbours must flush too.
        let neighbours: Vec<ObjId> = match &obj.kind {
            sod_vm::heap::ObjKind::Obj { fields, .. } => fields
                .iter()
                .filter_map(|v| match v {
                    Value::Ref(r) => Some(*r),
                    _ => None,
                })
                .collect(),
            sod_vm::heap::ObjKind::Arr { elems } => elems
                .iter()
                .filter_map(|v| match v {
                    Value::Ref(r) => Some(*r),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        let obj = extract_dirty(&vm.heap, id, TEMP_ID_BASE)?;
        batch.push(encode_object_pooled(pool, &obj)?);
        for n in neighbours {
            if seen.insert(n) {
                queue.push(n);
            }
        }
    }
    vm.heap.clear_dirty_where(ours);
    Ok(batch)
}
