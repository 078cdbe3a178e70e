//! Partial-stack capture and restore — the heart of stack-on-demand.
//!
//! [`capture_segment`] exports the **topmost `nframes` frames** of a
//! suspended thread as a [`CapturedState`]: per frame the class/method
//! names, the pc, and the local-variable values; plus the static fields of
//! all loaded classes. References are captured as [`CapturedValue::HomeRef`]
//! (the home object identity) and are **nulled on restore** — the object
//! fault machinery then fetches them on demand, which is exactly the
//! paper's heap-on-demand co-design.
//!
//! Restore comes in two fidelity levels:
//!
//! * [`restore_segment_direct`] — in-VM re-establishment (what JESSICA2
//!   does inside the JVM kernel, and what a production Rust runtime would
//!   do). One call, frames pushed bottom-up.
//! * handler-based restore (see `begin_handler_restore`) — the paper's
//!   portable protocol: invoke the bottom method, arm a breakpoint at its
//!   entry, throw `InvalidStateException`, and let the preprocessor-injected
//!   *restoration handler* rebuild locals and `lookupswitch`-jump to the
//!   saved pc, re-invoking the next method up. The two must agree — a
//!   property test in `sod-preprocess` verifies it.
//!
//! **What is deliberately *not* captured:** the interpreter's pre-resolved
//! operand form — inline-cache slots, canonical class-name `Arc`s, and
//! dispatch rows (see `sod_vm::fastpath`). Those are node-local
//! acceleration state rebuilt at link time and rewarmed by execution; a
//! migrated segment restores *cold* at the destination and must behave (and
//! meter) identically to one restored warm, which
//! `tests/interp_equivalence.rs` pins.
//!
//! **In memory a segment shares what the wire repeats.** Frame and statics
//! names are `Arc<str>`: capture clones the linked class's own name `Arc`s
//! (no string is copied per frame), and `wire::decode_state` hands every
//! repeat of a name within one message the same `Arc`. A segment's locals
//! are one value array that each frame's [`Locals`] is a window into, so
//! cloning or splitting a segment moves refcounts, never values. None of
//! this reaches the wire — every frame still ships its names and values in
//! full, by value — and a *decoded* name is a fresh `Arc`, never one of the
//! destination's `LoadedClass` canonical ones, so the interpreter's
//! pointer-compared inline caches cannot be satisfied (or confused) by it.

use std::ops::Deref;
use std::sync::Arc;

use crate::error::{VmError, VmResult};
use crate::interp::{RestoreSession, Vm, VmThread};
use crate::tooling::{Tooling, ToolingPath};
use crate::value::{ObjId, Value};

/// A captured value: primitives travel by value, references by home
/// identity (to be nulled or remapped at the destination).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CapturedValue {
    Int(i64),
    Num(f64),
    Null,
    /// A reference, recorded as the home VM's object id.
    HomeRef(ObjId),
}

impl CapturedValue {
    /// Capture a value from a VM that *is* the home node: local refs export
    /// their own ids. (For worker-side re-export, use
    /// [`crate::interp::Vm::export_value`], which maps cached copies back to
    /// their master identity.)
    pub fn from_value(v: Value) -> Self {
        match v {
            Value::Int(i) => CapturedValue::Int(i),
            Value::Num(n) => CapturedValue::Num(n),
            Value::Null => CapturedValue::Null,
            Value::Ref(id) => CapturedValue::HomeRef(id),
            Value::NulledRef(h) => CapturedValue::HomeRef(h),
        }
    }

    /// SOD restore semantics: references become transfer-nulled values —
    /// indistinguishable from `null` to the guest, but carrying the home
    /// identity for the object-fault machinery.
    pub fn to_nulled_value(self) -> Value {
        match self {
            CapturedValue::Int(i) => Value::Int(i),
            CapturedValue::Num(n) => Value::Num(n),
            CapturedValue::Null => Value::Null,
            CapturedValue::HomeRef(h) => Value::NulledRef(h),
        }
    }

    /// Eager-copy restore semantics: references remap through a home→local
    /// object id table (process-migration baseline).
    pub fn to_mapped_value(self, map: impl Fn(ObjId) -> Option<ObjId>) -> VmResult<Value> {
        Ok(match self {
            CapturedValue::Int(i) => Value::Int(i),
            CapturedValue::Num(n) => Value::Num(n),
            CapturedValue::Null => Value::Null,
            CapturedValue::HomeRef(h) => Value::Ref(map(h).ok_or_else(|| VmError::BadRef(h))?),
        })
    }
}

/// A frame's captured locals: a window into the value array its whole
/// segment shares. Reads as a slice; clones and moves with its frame
/// (`frames.split_off(..)`) by refcount; compares by contents.
#[derive(Clone)]
pub struct Locals {
    values: Arc<[CapturedValue]>,
    start: usize,
    len: usize,
}

impl Deref for Locals {
    type Target = [CapturedValue];
    fn deref(&self) -> &[CapturedValue] {
        &self.values[self.start..self.start + self.len]
    }
}

/// A window over an array of its own (frames built one at a time).
impl From<Vec<CapturedValue>> for Locals {
    fn from(values: Vec<CapturedValue>) -> Self {
        Locals {
            len: values.len(),
            values: values.into(),
            start: 0,
        }
    }
}

impl PartialEq for Locals {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Locals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// One captured frame.
#[derive(Clone, Debug, PartialEq)]
pub struct CapturedFrame {
    pub class: Arc<str>,
    pub method: Arc<str>,
    pub pc: u32,
    pub locals: Locals,
}

impl CapturedFrame {
    /// Whether `other` names its class and method through the *same*
    /// `Arc`s — true of consecutive frames of one method as captured or
    /// decoded, so a consumer resolving names frame by frame can reuse the
    /// previous frame's answer. `false` proves nothing: equal names may
    /// sit behind distinct `Arc`s.
    pub fn shares_names_with(&self, other: &CapturedFrame) -> bool {
        Arc::ptr_eq(&self.class, &other.class) && Arc::ptr_eq(&self.method, &other.method)
    }

    /// `(class_idx, method_idx)` of the method this frame names, in `vm`.
    pub fn resolve_in(&self, vm: &Vm) -> VmResult<(usize, usize)> {
        let ci = vm
            .class_idx(&self.class)
            .ok_or_else(|| VmError::ClassNotFound(self.class.to_string()))?;
        let mi =
            vm.classes[ci]
                .method_idx(&self.method)
                .ok_or_else(|| VmError::MethodNotFound {
                    class: self.class.to_string(),
                    method: self.method.to_string(),
                })?;
        Ok((ci, mi))
    }
}

/// Fills one segment's frames bottom-up over a single value array: push a
/// frame's values, close it with [`SegmentBuilder::end_frame`], and
/// [`SegmentBuilder::finish`] freezes the array and cuts it into the
/// frames' windows. The array grows only as values arrive.
pub(crate) struct SegmentBuilder {
    /// Per closed frame: its names, its pc, and where its values end.
    heads: Vec<(Arc<str>, Arc<str>, u32, usize)>,
    values: Vec<CapturedValue>,
}

impl SegmentBuilder {
    /// Both capacities must already be bounded by what the source holds.
    pub(crate) fn with_capacity(nframes: usize, nvalues: usize) -> Self {
        SegmentBuilder {
            heads: Vec::with_capacity(nframes),
            values: Vec::with_capacity(nvalues),
        }
    }

    pub(crate) fn push_value(&mut self, v: CapturedValue) {
        self.values.push(v);
    }

    /// Close the frame owning every value pushed since the last close.
    pub(crate) fn end_frame(&mut self, class: Arc<str>, method: Arc<str>, pc: u32) {
        self.heads.push((class, method, pc, self.values.len()));
    }

    pub(crate) fn finish(self) -> Vec<CapturedFrame> {
        let values: Arc<[CapturedValue]> = self.values.into();
        let mut start = 0;
        let frame = |(class, method, pc, end)| {
            let locals = Locals {
                values: values.clone(),
                start,
                len: end - start,
            };
            start = end;
            CapturedFrame {
                class,
                method,
                pc,
                locals,
            }
        };
        self.heads.into_iter().map(frame).collect()
    }
}

/// Captured statics of one class.
#[derive(Clone, Debug, PartialEq)]
pub struct CapturedStatics {
    pub class: Arc<str>,
    pub values: Vec<CapturedValue>,
}

/// The unit SOD ships: a segment of frames (bottom-up) plus class statics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CapturedState {
    /// Frames bottom-up: `frames[0]` is the oldest frame of the segment.
    pub frames: Vec<CapturedFrame>,
    pub statics: Vec<CapturedStatics>,
}

impl CapturedState {
    /// The class of every frame, then of every statics entry — minus each
    /// name that sits behind the same `Arc` as the one before it, which is
    /// most of them (a deep recursion names one class through one `Arc`).
    /// A cheap pre-filter for per-class work, not a set: a class can still
    /// appear more than once.
    pub fn class_names(&self) -> impl Iterator<Item = &Arc<str>> {
        let frames = self.frames.iter().map(|f| &f.class);
        let statics = self.statics.iter().map(|s| &s.class);
        let mut prev: Option<&Arc<str>> = None;
        frames.chain(statics).filter(move |&class| {
            let repeat = prev.is_some_and(|p| Arc::ptr_eq(p, class));
            prev = Some(class);
            !repeat
        })
    }

    /// Accumulated size of local and static fields — the paper's Table I
    /// `F` column.
    pub fn field_bytes(&self) -> u64 {
        let locals: u64 = self
            .frames
            .iter()
            .map(|f| f.locals.len() as u64 * Value::SLOT_BYTES)
            .sum();
        let statics: u64 = self
            .statics
            .iter()
            .map(|s| s.values.len() as u64 * Value::SLOT_BYTES)
            .sum();
        locals + statics
    }
}

/// Capture the top `nframes` frames of thread `tid` through the given
/// tooling path, charging the returned meter total.
///
/// Requirements (mirroring the paper's migration-safe points):
/// * the top frame must sit at an MSP (line start, empty operand stack);
/// * every other captured frame must have an empty operand stack (true at
///   call sites by construction after preprocessing);
/// * no captured frame may be pinned.
pub fn capture_segment(
    vm: &mut Vm,
    tid: usize,
    nframes: usize,
    path: ToolingPath,
) -> VmResult<(CapturedState, u64)> {
    // Validate the migration point first (no tooling charges for errors).
    {
        let t = vm.thread(tid)?;
        let height = t.frames.len();
        if nframes == 0 || nframes > height {
            return Err(VmError::BadThread(tid));
        }
        let top = t.top().expect("frames");
        let summary = &vm.classes[top.class_idx].summaries[top.method_idx];
        if !t.operands(height - 1).is_empty() || !summary.is_msp(top.pc) {
            let m = &vm.classes[top.class_idx].def.methods[top.method_idx];
            return Err(VmError::NotAtMigrationSafePoint {
                method: m.name.clone(),
                pc: top.pc,
            });
        }
        for fi in height - nframes..height {
            let f = &t.frames[fi];
            if f.pinned {
                return Err(VmError::NotAtMigrationSafePoint {
                    method: "pinned frame in segment".into(),
                    pc: f.pc,
                });
            }
            if !t.operands(fi).is_empty() {
                // Call-site frames must have empty operand stacks; this is
                // guaranteed by preprocessing, so a violation is an error.
                return Err(VmError::NotAtMigrationSafePoint {
                    method: "non-empty operand stack below top".into(),
                    pc: f.pc,
                });
            }
        }
    }

    // Operand stacks are empty (checked above), so the segment's locals
    // are exactly the value stack from its bottom frame's base up.
    let t = &vm.threads[tid];
    let nvalues = t.stack.len() - t.frames[t.frames.len() - nframes].base;

    let mut tool = Tooling::new(vm, path);
    tool.suspend_thread(tid);

    let mut segment = SegmentBuilder::with_capacity(nframes, nvalues);
    // JVMTI depth 0 = top; we want bottom-up order in the segment.
    for depth in (0..nframes).rev() {
        let (class, method, pc) = tool.get_frame_location(tid, depth)?;
        let nlocals = tool.get_local_count(tid, depth)?;
        for slot in 0..nlocals {
            segment.push_value(tool.get_local(tid, depth, slot)?);
        }
        segment.end_frame(class, method, pc);
    }
    let frames = segment.finish();

    // Statics of all loaded classes ("the information and static fields of
    // loaded classes are saved").
    let nclasses = tool.vm().classes.len();
    let mut statics = Vec::new();
    for ci in 0..nclasses {
        let n = tool.vm().classes[ci].statics.len();
        if n == 0 {
            continue;
        }
        let mut values = Vec::with_capacity(n);
        for si in 0..n {
            values.push(tool.get_static(ci, si)?);
        }
        let class = tool.vm().classes[ci].name_arc().clone();
        statics.push(CapturedStatics { class, values });
    }

    let cost = tool.meter.ns;
    Ok((CapturedState { frames, statics }, cost))
}

/// Re-establish a captured segment in `vm` directly (in-kernel restore):
/// spawn a fresh thread whose frames are the captured ones, references
/// nulled, statics installed. Returns the new thread id.
///
/// All referenced classes must already be loaded (the runtime's class
/// shipping handles misses before calling this).
pub fn restore_segment_direct(vm: &mut Vm, state: &CapturedState) -> VmResult<usize> {
    install_statics(vm, state, true)?;

    let mut frames = Vec::with_capacity(state.frames.len());
    // The frame resolved last, with its answer: a deep recursion names one
    // method through the same two `Arc`s in every frame.
    let mut prev: Option<(&CapturedFrame, usize, usize)> = None;
    for cf in &state.frames {
        let (ci, mi) = match prev {
            Some((p, ci, mi)) if cf.shares_names_with(p) => (ci, mi),
            _ => cf.resolve_in(vm)?,
        };
        prev = Some((cf, ci, mi));
        let nlocals = vm.classes[ci].def.methods[mi].nlocals;
        if cf.locals.len() != nlocals as usize {
            return Err(VmError::Verify {
                method: cf.method.to_string(),
                reason: "locals layout mismatch".into(),
            });
        }
        let locals = cf.locals.iter().map(|v| v.to_nulled_value());
        frames.push((ci, mi, cf.pc, locals));
    }

    let mut t = VmThread::new_restored(frames);
    t.seg_frames = state.frames.len();
    vm.threads.push(t);
    Ok(vm.threads.len() - 1)
}

/// Install captured statics into `vm`, nulling references and recording
/// restored-null flags. `strict` demands exact layout agreement.
fn install_statics(vm: &mut Vm, state: &CapturedState, strict: bool) -> VmResult<()> {
    for s in &state.statics {
        let Some(ci) = vm.class_idx(&s.class) else {
            return Err(VmError::ClassNotFound(s.class.to_string()));
        };
        if strict && vm.classes[ci].statics.len() != s.values.len() {
            return Err(VmError::Verify {
                method: s.class.to_string(),
                reason: "statics layout mismatch".into(),
            });
        }
        let n = vm.classes[ci].statics.len();
        for (i, v) in s.values.iter().enumerate() {
            if i < n {
                vm.classes[ci].statics[i] = v.to_nulled_value();
            }
        }
    }
    Ok(())
}

/// Begin the paper's handler-based restore protocol: install the restore
/// session, spawn the bottom method with captured (nulled) arguments, and
/// arm a breakpoint at its entry. The caller then drives the
/// breakpoint → `InvalidStateException` → restoration-handler cycle (see
/// `sod-runtime`'s worker session) until all frames are re-established.
///
/// Returns the new thread id.
pub fn begin_handler_restore(vm: &mut Vm, state: &CapturedState) -> VmResult<usize> {
    if state.frames.is_empty() {
        return Err(VmError::RestoreProtocol("empty segment"));
    }
    install_statics(vm, state, false)?;

    let bottom = &state.frames[0];
    let (ci, mi) = bottom.resolve_in(vm)?;
    let nargs = vm.classes[ci].def.methods[mi].nargs as usize;
    let args: Vec<Value> = bottom
        .locals
        .iter()
        .take(nargs)
        .map(|v| v.to_nulled_value())
        .collect();

    let tid = vm.spawn(&bottom.class, &bottom.method, &args)?;
    vm.threads[tid].seg_frames = state.frames.len();
    // Session and breakpoint are thread-scoped: concurrent restores on a
    // shared destination node must not clobber each other.
    vm.threads[tid].restore_session = Some(RestoreSession {
        frames: state
            .frames
            .iter()
            .map(|f| (f.locals.clone(), f.pc))
            .collect(),
        cursor: 0,
    });
    vm.set_breakpoint(tid, ci, mi, 0);
    Ok(tid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassDef, FieldDef, MethodDef};
    use crate::instr::{Cmp, Instr};
    use crate::interp::{RunMode, StepOutcome};
    use crate::value::TypeOf;

    /// Main.main: x=10; y=f(x); return y+1  /  f(n): loop forever at line 2.
    fn looping_vm() -> (Vm, usize) {
        let mut c = ClassDef::new("Main").with_field(FieldDef::stat("s", TypeOf::Int));
        let main_n = c.intern("Main");
        let f = c.intern("f");
        let s = c.intern("s");
        c.methods.push(MethodDef::new("main", 0, 2).with_code(
            vec![
                Instr::PushI(10),                  // 0 line 1
                Instr::Store(0),                   // 1
                Instr::PushI(77),                  // 2 line 2
                Instr::PutStatic(main_n, s),       // 3
                Instr::Load(0),                    // 4 line 3
                Instr::InvokeStatic(main_n, f, 1), // 5
                Instr::Store(1),                   // 6
                Instr::Load(1),                    // 7 line 4
                Instr::PushI(1),                   // 8
                Instr::Add,                        // 9
                Instr::RetV,                       // 10
            ],
            vec![1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 4],
        ));
        c.methods.push(MethodDef::new("f", 1, 1).with_code(
            vec![
                Instr::PushI(5),        // 0 line 1
                Instr::Store(1),        // 1
                Instr::Load(1),         // 2 line 2 (MSP), loop here
                Instr::IfZ(Cmp::Ge, 2), // 3  (5 >= 0 always)
                Instr::Load(0),         // 4 line 3
                Instr::RetV,            // 5
            ],
            vec![1, 1, 2, 2, 3, 3],
        ));
        let mut vm = Vm::new();
        vm.load_class(&c).unwrap();
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        // Run until inside f's loop.
        vm.run(tid, 400, RunMode::Normal).unwrap();
        assert_eq!(vm.thread(tid).unwrap().frames.len(), 2);
        (vm, tid)
    }

    fn stop_at_msp(vm: &mut Vm, tid: usize) {
        let (out, _) = vm.run(tid, u64::MAX, RunMode::StopAtMsp).unwrap();
        assert!(matches!(out, StepOutcome::AtMsp { .. }), "got {out:?}");
    }

    #[test]
    fn capture_top_frame_shape() {
        let (mut vm, tid) = looping_vm();
        stop_at_msp(&mut vm, tid);
        let (state, cost) = capture_segment(&mut vm, tid, 1, ToolingPath::Jvmti).unwrap();
        assert_eq!(state.frames.len(), 1);
        let f = &state.frames[0];
        assert_eq!(&*f.method, "f");
        assert_eq!(f.locals.len(), 2);
        assert_eq!(f.locals[0], CapturedValue::Int(10)); // arg n
                                                         // Statics captured.
        assert_eq!(state.statics.len(), 1);
        assert_eq!(state.statics[0].values, vec![CapturedValue::Int(77)]);
        // JVMTI costs: suspend + per-frame + 2 locals ≥ 60us.
        assert!(cost > 60_000, "cost {cost}");
        assert!(state.wire_bytes() > 0);
    }

    #[test]
    fn capture_two_frames_bottom_up() {
        let (mut vm, tid) = looping_vm();
        stop_at_msp(&mut vm, tid);
        let (state, _) = capture_segment(&mut vm, tid, 2, ToolingPath::Jvmti).unwrap();
        assert_eq!(state.frames.len(), 2);
        assert_eq!(&*state.frames[0].method, "main"); // bottom first
        assert_eq!(&*state.frames[1].method, "f");
        assert_eq!(state.frames[0].pc, 5); // parked at the invoke
    }

    #[test]
    fn capture_shares_names_and_one_value_array() {
        let (mut vm, tid) = looping_vm();
        stop_at_msp(&mut vm, tid);
        let (state, _) = capture_segment(&mut vm, tid, 2, ToolingPath::Jvmti).unwrap();
        let [main, f] = &state.frames[..] else {
            panic!("two frames")
        };
        // Names are the linked class's own `Arc`s, not copies.
        assert!(Arc::ptr_eq(&main.class, vm.classes[0].name_arc()));
        assert!(Arc::ptr_eq(&main.class, &f.class));
        assert!(Arc::ptr_eq(&f.method, vm.classes[0].method_name_arc(1)));
        assert!(Arc::ptr_eq(&state.statics[0].class, &f.class));
        assert!(!main.shares_names_with(f) && f.shares_names_with(&f.clone()));
        assert_eq!(state.class_names().count(), 1, "one Arc names all three");
        // Both frames are windows into the same array, back to back.
        assert!(Arc::ptr_eq(&main.locals.values, &f.locals.values));
        assert_eq!((main.locals.start, main.locals.len), (0, 2));
        assert_eq!((f.locals.start, f.locals.len), (2, 2));
        assert_eq!(*f.locals, [CapturedValue::Int(10), CapturedValue::Int(5)]);
        // A window compares by what it shows, wherever it sits.
        assert_eq!(f.locals, Locals::from(f.locals.to_vec()));
        assert_ne!(f.locals, main.locals);
        // Splitting the frames (as a migration plan does) keeps each
        // frame's own window.
        let mut rest = state.frames.clone();
        let top = rest.split_off(1);
        assert_eq!(*top[0].locals, *f.locals);
        assert_eq!(*rest[0].locals, *main.locals);
    }

    #[test]
    fn internal_path_is_cheaper() {
        let (mut vm, tid) = looping_vm();
        stop_at_msp(&mut vm, tid);
        let (_, jvmti_cost) = capture_segment(&mut vm, tid, 2, ToolingPath::Jvmti).unwrap();
        let (_, internal_cost) = capture_segment(&mut vm, tid, 2, ToolingPath::Internal).unwrap();
        assert!(jvmti_cost > 5 * internal_cost);
    }

    #[test]
    fn capture_requires_msp() {
        let (mut vm, tid) = looping_vm();
        // Step to a non-MSP point: pc 3 of f (mid line 2).
        loop {
            let f = vm.thread(tid).unwrap().top().unwrap();
            if f.pc == 3 && vm.classes[f.class_idx].def.methods[f.method_idx].name == "f" {
                break;
            }
            vm.step(tid).unwrap();
        }
        let err = capture_segment(&mut vm, tid, 1, ToolingPath::Jvmti).unwrap_err();
        assert!(matches!(err, VmError::NotAtMigrationSafePoint { .. }));
    }

    #[test]
    fn pinned_frames_refuse_capture() {
        let (mut vm, tid) = looping_vm();
        stop_at_msp(&mut vm, tid);
        vm.thread_mut(tid).unwrap().frames[0].pinned = true;
        // Top frame alone is fine...
        assert!(capture_segment(&mut vm, tid, 1, ToolingPath::Jvmti).is_ok());
        // ...but a segment including the pinned frame is not.
        assert!(capture_segment(&mut vm, tid, 2, ToolingPath::Jvmti).is_err());
    }

    #[test]
    fn direct_restore_resumes_identically() {
        let (mut vm, tid) = looping_vm();
        stop_at_msp(&mut vm, tid);
        let (state, _) = capture_segment(&mut vm, tid, 2, ToolingPath::Internal).unwrap();

        // Fresh "worker" VM with the same class.
        let mut worker = Vm::new();
        let def = vm.classes[0].def.clone();
        worker.load_class(&def).unwrap();
        let wtid = restore_segment_direct(&mut worker, &state).unwrap();
        assert_eq!(worker.thread(wtid).unwrap().frames.len(), 2);
        assert_eq!(worker.thread(wtid).unwrap().seg_frames, 2);
        // Statics came across.
        assert_eq!(worker.classes[0].statics, vec![Value::Int(77)]);
        // The restored thread continues: f loops forever, so force the loop
        // exit by zeroing its loop counter, then run to completion.
        worker.threads[wtid].stack[3] = Value::Int(-1); // f's local 1
        let (out, _) = worker.run(wtid, u64::MAX, RunMode::Normal).unwrap();
        // f returns n (=10), main returns 11.
        assert_eq!(out, StepOutcome::Returned(Some(Value::Int(11))));
    }

    #[test]
    fn direct_restore_lays_frames_out_contiguously() {
        let (mut vm, tid) = looping_vm();
        stop_at_msp(&mut vm, tid);
        let (mut state, _) = capture_segment(&mut vm, tid, 2, ToolingPath::Internal).unwrap();
        let mut worker = Vm::new();
        worker.load_class(&vm.classes[0].def).unwrap();
        let wtid = restore_segment_direct(&mut worker, &state).unwrap();
        // main's two locals, then f's two, back to back and nothing else.
        let t = worker.thread(wtid).unwrap();
        let windows: Vec<_> = t.frames.iter().map(|f| (f.base, f.nlocals)).collect();
        assert_eq!(windows, [(0, 2), (2, 2)]);
        assert_eq!(t.locals(0), [Value::Int(10), Value::Int(0)]);
        assert_eq!(t.locals(1), [Value::Int(10), Value::Int(5)]);
        assert!(t.operands(0).is_empty() && t.operands(1).is_empty());
        assert_eq!(t.stack_state_bytes(), 2 * (2 * 8 + 16));
        assert_eq!(t.max_height, 2);

        // A captured frame whose locals do not match the method's layout
        // is rejected before any thread is created.
        let mut longer = state.frames[1].locals.to_vec();
        longer.push(CapturedValue::Int(0));
        state.frames[1].locals = longer.into();
        let before = worker.threads.len();
        let err = restore_segment_direct(&mut worker, &state).unwrap_err();
        assert!(matches!(err, VmError::Verify { .. }));
        assert_eq!(worker.threads.len(), before);
    }

    #[test]
    fn deep_stack_state_bytes_and_segment_lengths() {
        // The repo benchmark's `stack-churn` guest as deployed: `Deep.down(d,
        // spin)` with five local slots recurses to depth 128 and spins at
        // the bottom, so a whole-stack capture takes 129 frames.
        let mut c = ClassDef::new("Deep");
        let (deep, down) = (c.intern("Deep"), c.intern("down"));
        c.methods.push(MethodDef::new("down", 2, 3).with_code(
            vec![
                Instr::Load(0),                     // 0 line 1
                Instr::IfZ(Cmp::Le, 12),            // 1
                Instr::Load(0),                     // 2 line 2
                Instr::PushI(1),                    // 3
                Instr::Sub,                         // 4
                Instr::Load(1),                     // 5
                Instr::InvokeStatic(deep, down, 2), // 6
                Instr::Store(2),                    // 7
                Instr::Load(2),                     // 8 line 3
                Instr::PushI(1),                    // 9
                Instr::Add,                         // 10
                Instr::RetV,                        // 11
                Instr::PushI(0),                    // 12 line 4
                Instr::Store(3),                    // 13
                Instr::Load(3),                     // 14 line 5
                Instr::Load(1),                     // 15
                Instr::If(Cmp::Ge, 22),             // 16
                Instr::Load(3),                     // 17 line 6
                Instr::PushI(1),                    // 18
                Instr::Add,                         // 19
                Instr::Store(3),                    // 20
                Instr::Goto(14),                    // 21
                Instr::PushI(1),                    // 22 line 7
                Instr::RetV,                        // 23
            ],
            vec![
                1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7,
            ],
        ));
        let mut vm = Vm::new();
        vm.load_class(&c).unwrap();
        let args = [Value::Int(128), Value::Int(1 << 40)];
        let tid = vm.spawn("Deep", "down", &args).unwrap();
        while vm.thread(tid).unwrap().frames.len() < 129 {
            vm.run(tid, 100, RunMode::Normal).unwrap();
        }
        stop_at_msp(&mut vm, tid);

        // One formula over the whole value stack equals the per-frame sum
        // (locals + operands, 16-byte header) the paper's sizing defines.
        let t = vm.thread(tid).unwrap();
        let per_frame: u64 = (0..t.frames.len())
            .map(|fi| (t.locals(fi).len() + t.operands(fi).len()) as u64 * 8 + 16)
            .sum();
        assert_eq!(t.stack_state_bytes(), per_frame);
        assert_eq!(per_frame, 129 * (5 * 8 + 16));

        // Split as a whole-stack plan ships it: the top frame, then the
        // rest. The wire lengths are the benchmark README's.
        let (full, _) = capture_segment(&mut vm, tid, 129, ToolingPath::Jvmti).unwrap();
        let mut rest = full.frames;
        let top = rest.split_off(128);
        let segment = |frames| CapturedState {
            frames,
            statics: Vec::new(),
        };
        assert_eq!(segment(top).wire_bytes(), 81);
        assert_eq!(segment(rest).wire_bytes(), 8_336);
    }

    #[test]
    fn captured_state_sizes() {
        let (mut vm, tid) = looping_vm();
        stop_at_msp(&mut vm, tid);
        let (s1, _) = capture_segment(&mut vm, tid, 1, ToolingPath::Internal).unwrap();
        let (s2, _) = capture_segment(&mut vm, tid, 2, ToolingPath::Internal).unwrap();
        assert!(s2.wire_bytes() > s1.wire_bytes());
        assert!(s1.field_bytes() >= 2 * 8);
    }

    #[test]
    fn captured_value_roundtrips() {
        assert_eq!(
            CapturedValue::from_value(Value::Int(3)).to_nulled_value(),
            Value::Int(3)
        );
        assert_eq!(
            CapturedValue::from_value(Value::Ref(9)).to_nulled_value(),
            Value::NulledRef(9)
        );
        // A transfer-nulled ref is NOT guest-null (it denotes a live home
        // object); only dereferencing it faults.
        assert!(!Value::NulledRef(9).is_null());
        assert!(Value::NulledRef(9).as_ref_id().is_err());
        assert_eq!(Value::NulledRef(9).nulled_home(), Some(9));
        let mapped = CapturedValue::HomeRef(9)
            .to_mapped_value(|h| (h == 9).then_some(4))
            .unwrap();
        assert_eq!(mapped, Value::Ref(4));
        assert!(CapturedValue::HomeRef(9).to_mapped_value(|_| None).is_err());
    }
}
