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
//! `tests/corpus/interp_equivalence.rs` pins.
//!
//! **In memory a segment is three arrays, not a list of frames.**
//! [`Frames`] holds *one value array* for every local of the segment, *one
//! 12-byte head per frame* (its run, its pc, where its values end) and *one
//! `(class, method)` name pair per run* of consecutive frames of the same
//! method — a 129-deep recursion is one run. Capture and decode build that
//! shape directly, so building, cloning, splitting and dropping a segment
//! touches a refcount per run, never per frame, and readers borrow a frame
//! as a [`FrameRef`]. [`CapturedFrame`] is the owned one-frame value tests
//! and tools push in. What is *not* shared: nothing of this reaches the
//! wire — every frame still ships its names and values in full, by value —
//! and while capture clones the linked class's own name `Arc`s, a *decoded*
//! name is a fresh `Arc`, never one of the destination's `LoadedClass`
//! canonical ones, so the interpreter's pointer-compared inline caches
//! cannot be satisfied (or confused) by it.

use std::sync::Arc;

use crate::costs::PORTABLE_CAPTURE;
use crate::error::{VmError, VmResult};
use crate::interp::{RestoreSession, Vm};
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

/// One captured frame, owned: what tests and tools build a segment from
/// ([`Frames::push`], [`Frames::from_frames`]). A segment does not store
/// its frames in this form — see [`Frames`].
#[derive(Clone, Debug, PartialEq)]
pub struct CapturedFrame {
    pub class: Arc<str>,
    pub method: Arc<str>,
    pub pc: u32,
    pub locals: Vec<CapturedValue>,
}

impl CapturedFrame {
    /// This frame as readers of a segment see one.
    pub fn view(&self) -> FrameRef<'_> {
        FrameRef {
            class: &self.class,
            method: &self.method,
            pc: self.pc,
            locals: &self.locals,
        }
    }
}

/// One frame of a [`Frames`], borrowed. Compares by contents.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameRef<'a> {
    pub class: &'a str,
    pub method: &'a str,
    pub pc: u32,
    pub locals: &'a [CapturedValue],
}

impl FrameRef<'_> {
    /// Whether `other` names its class and method through the *same*
    /// strings in memory — true of two frames of one run, so a consumer
    /// resolving names frame by frame can reuse the previous frame's
    /// answer. `false` proves nothing: equal names may sit in distinct
    /// strings.
    pub fn same_run_as(&self, other: &FrameRef<'_>) -> bool {
        std::ptr::eq(self.class, other.class) && std::ptr::eq(self.method, other.method)
    }

    /// `(class_idx, method_idx)` of the method this frame names, in `vm`.
    pub fn resolve_in(&self, vm: &Vm) -> VmResult<(usize, usize)> {
        let ci = vm
            .class_idx(self.class)
            .ok_or_else(|| VmError::ClassNotFound(self.class.to_string()))?;
        let mi = vm.classes[ci]
            .method_idx(self.method)
            .ok_or_else(|| VmError::MethodNotFound {
                class: self.class.to_string(),
                method: self.method.to_string(),
            })?;
        Ok((ci, mi))
    }
}

/// What a segment records per frame, beside its values: which run names
/// it, its pc, and where in the value array its locals end (they begin
/// where the frame below ends).
#[derive(Clone, Copy)]
struct Head {
    run: u32,
    pc: u32,
    end: u32,
}

/// A segment's frames, bottom-up, as three arrays (see the module docs).
/// Reads like a list of [`FrameRef`]s and compares like one — by contents,
/// however the frames are partitioned into runs.
#[derive(Clone, Default)]
pub struct Frames {
    /// `(class, method)` of each run of consecutive same-method frames.
    runs: Vec<(Arc<str>, Arc<str>)>,
    heads: Vec<Head>,
    /// Every frame's locals, back to back.
    values: Vec<CapturedValue>,
}

impl Frames {
    pub fn new() -> Self {
        Self::default()
    }

    /// Room for `nframes` frames holding `nvalues` locals between them.
    /// Both must already be bounded by what the source holds.
    pub(crate) fn with_capacity(nframes: usize, nvalues: usize) -> Self {
        Frames {
            runs: Vec::new(),
            heads: Vec::with_capacity(nframes),
            values: Vec::with_capacity(nvalues),
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Number of locals over all frames.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// The `(class, method)` name pair of each run, bottom-up.
    pub fn runs(&self) -> &[(Arc<str>, Arc<str>)] {
        &self.runs
    }

    fn view(&self, head: &Head, start: usize) -> FrameRef<'_> {
        let (class, method) = &self.runs[head.run as usize];
        FrameRef {
            class,
            method,
            pc: head.pc,
            locals: &self.values[start..head.end as usize],
        }
    }

    /// Frame `i`, bottom-up.
    pub fn get(&self, i: usize) -> Option<FrameRef<'_>> {
        let head = self.heads.get(i)?;
        let below = i.checked_sub(1).map_or(0, |b| self.heads[b].end as usize);
        Some(self.view(head, below))
    }

    /// The segment's bottom (oldest) frame.
    pub fn first(&self) -> Option<FrameRef<'_>> {
        self.get(0)
    }

    /// Every frame, bottom-up.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = FrameRef<'_>> {
        let mut start = 0;
        self.heads.iter().map(move |head| {
            let frame = self.view(head, start);
            start = head.end as usize;
            frame
        })
    }

    /// Open a run: the frames closed from here on are `class.method`'s.
    pub(crate) fn open_run(&mut self, class: Arc<str>, method: Arc<str>) {
        self.runs.push((class, method));
    }

    /// Make room for `n` more values. `n` must already be bounded by what
    /// the source holds.
    pub(crate) fn reserve_values(&mut self, n: usize) {
        self.values.reserve(n);
    }

    pub(crate) fn push_value(&mut self, v: CapturedValue) {
        self.values.push(v);
    }

    /// Close a frame of the open run, owning every value pushed since the
    /// last close.
    pub(crate) fn end_frame(&mut self, pc: u32) -> VmResult<()> {
        let run = self.runs.len().checked_sub(1);
        let run = run.and_then(|r| u32::try_from(r).ok());
        let end = u32::try_from(self.values.len()).ok();
        let (Some(run), Some(end)) = (run, end) else {
            return Err(VmError::Encode("segment outgrew its u32 indexes"));
        };
        self.heads.push(Head { run, pc, end });
        Ok(())
    }

    /// Append one frame on top, joining the top run if it names the same
    /// method. Fails only when the segment outgrows its `u32` indexes.
    pub fn push(&mut self, frame: CapturedFrame) -> VmResult<()> {
        let top = self.runs.last();
        if !top.is_some_and(|(c, m)| **c == *frame.class && **m == *frame.method) {
            self.open_run(frame.class, frame.method);
        }
        self.values.extend(frame.locals);
        self.end_frame(frame.pc)
    }

    /// The segment of `frames`, bottom-up, each one [`push`](Self::push)ed.
    pub fn from_frames(frames: impl IntoIterator<Item = CapturedFrame>) -> VmResult<Frames> {
        let mut out = Frames::new();
        for frame in frames {
            out.push(frame)?;
        }
        Ok(out)
    }

    /// Split the segment at frame `at`: `self` keeps the frames below it,
    /// the frames from `at` up are returned (like `Vec::split_off`, and
    /// like it panics if `at > len`). A run the cut goes through is named
    /// by both halves.
    pub fn split_off(&mut self, at: usize) -> Frames {
        let Some(below) = at.checked_sub(1) else {
            return std::mem::take(self);
        };
        let mut heads = self.heads.split_off(at);
        let (Some(first), Some(kept)) = (heads.first(), self.heads.get(below)) else {
            return Frames::default(); // `at == len`: nothing above the cut
        };
        let (run0, end0) = (first.run, kept.end);
        let runs = self.runs[run0 as usize..].to_vec();
        self.runs.truncate(kept.run as usize + 1);
        let values = self.values.split_off(end0 as usize);
        for head in &mut heads {
            head.run -= run0;
            head.end -= end0;
        }
        Frames {
            runs,
            heads,
            values,
        }
    }
}

impl PartialEq for Frames {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Frames {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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
    /// Frames bottom-up: the first is the oldest frame of the segment.
    pub frames: Frames,
    pub statics: Vec<CapturedStatics>,
}

impl CapturedState {
    /// The class of every run of frames, then of every statics entry —
    /// minus each name that sits behind the same `Arc` as the one before
    /// it (a capture names a class through its one linked `Arc`). A cheap
    /// pre-filter for per-class work, not a set: a class can still appear
    /// more than once.
    pub fn class_names(&self) -> impl Iterator<Item = &Arc<str>> {
        let frames = self.frames.runs().iter().map(|(class, _)| class);
        let statics = self.statics.iter().map(|s| &s.class);
        let mut prev: Option<&Arc<str>> = None;
        frames.chain(statics).filter(move |&class| {
            let repeat = prev.is_some_and(|p| Arc::ptr_eq(p, class));
            prev = Some(class);
            !repeat
        })
    }
}

/// Capture the top `nframes` frames of thread `tid`, priced by `path`:
/// the JVMTI calls' meter total, or the `PORTABLE_CAPTURE` row on the
/// state's wire size.
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
    let t = vm.thread(tid)?;
    let height = t.frames.len();
    let bottom = height.checked_sub(nframes).filter(|_| nframes > 0);
    let (Some(bottom), Some(top)) = (bottom, t.top()) else {
        return Err(VmError::BadThread(tid));
    };
    let summary = &vm.classes[top.class_idx].summaries[top.method_idx];
    if !t.operands(height - 1).is_empty() || !summary.is_msp(top.pc) {
        let m = &vm.classes[top.class_idx].def.methods[top.method_idx];
        return Err(VmError::NotAtMigrationSafePoint {
            method: m.name.clone(),
            pc: top.pc,
        });
    }
    for fi in bottom..height {
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

    let mut tool = Tooling::new(vm);
    tool.suspend_thread(tid);
    let frames = tool.get_frames(tid, bottom)?;

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

    let state = CapturedState { frames, statics };
    let cost = match path {
        ToolingPath::Jvmti => tool.meter.ns,
        ToolingPath::Portable => PORTABLE_CAPTURE.of(state.wire_bytes()),
    };
    Ok((state, cost))
}

/// Re-establish a captured segment in `vm` directly (in-kernel restore):
/// spawn a fresh thread whose frames are the captured ones, references
/// nulled, statics installed. Returns the new thread id.
///
/// All referenced classes must already be loaded (the runtime's class
/// shipping handles misses before calling this).
pub fn restore_segment_direct(vm: &mut Vm, state: &CapturedState) -> VmResult<usize> {
    install_statics(vm, state, true)?;

    // Both sizes are known, so the thread is built in one pass — in a
    // released thread's buffers when the VM has one — and joins the VM
    // only once every frame has resolved and matched its layout.
    let mut t = vm.vacant_thread(state.frames.len(), state.frames.value_count());
    // The frame resolved last, with its answer: every frame of a run names
    // the run's one method.
    let mut prev: Option<(FrameRef<'_>, usize, usize)> = None;
    for cf in state.frames.iter() {
        let (ci, mi) = match prev {
            Some((p, ci, mi)) if cf.same_run_as(&p) => (ci, mi),
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
        t.push_restored(ci, mi, cf.pc, locals);
    }

    t.seg_frames = state.frames.len();
    Ok(vm.admit(t))
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
    let Some(bottom) = state.frames.first() else {
        return Err(VmError::RestoreProtocol("empty segment"));
    };
    install_statics(vm, state, false)?;

    let (ci, mi) = bottom.resolve_in(vm)?;
    let nargs = vm.classes[ci].def.methods[mi].nargs as usize;
    let args: Vec<Value> = bottom
        .locals
        .iter()
        .take(nargs)
        .map(|v| v.to_nulled_value())
        .collect();

    let tid = vm.spawn(bottom.class, bottom.method, &args)?;
    let t = vm.thread_mut(tid)?;
    t.seg_frames = state.frames.len();
    // Session and breakpoint are thread-scoped: concurrent restores on a
    // shared destination node must not clobber each other.
    t.restore_session = Some(Box::new(RestoreSession {
        frames: state.frames.clone(),
        cursor: 0,
    }));
    vm.set_breakpoint(tid, ci, mi, 0);
    Ok(tid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassDef, FieldDef, MethodDef};
    use crate::costs::{JESSICA2_CAPTURE, JVMTI_FRAME, JVMTI_GET_LOCAL, JVMTI_SUSPEND};
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
        let f = state.frames.get(0).unwrap();
        assert_eq!(f.method, "f");
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
        let (main, f) = (state.frames.get(0).unwrap(), state.frames.get(1).unwrap());
        assert_eq!(main.method, "main"); // bottom first
        assert_eq!(f.method, "f");
        assert_eq!(main.pc, 5); // parked at the invoke
    }

    #[test]
    fn capture_shares_names_and_one_value_array() {
        let (mut vm, tid) = looping_vm();
        stop_at_msp(&mut vm, tid);
        let (state, _) = capture_segment(&mut vm, tid, 2, ToolingPath::Jvmti).unwrap();
        let frames = &state.frames;
        let (main, f) = (frames.get(0).unwrap(), frames.get(1).unwrap());
        // Two methods, two runs; names are the linked class's own `Arc`s,
        // not copies.
        let [(main_class, _), (f_class, f_method)] = frames.runs() else {
            panic!("two runs")
        };
        assert!(Arc::ptr_eq(main_class, vm.classes[0].name_arc()));
        assert!(Arc::ptr_eq(main_class, f_class));
        assert!(Arc::ptr_eq(f_method, vm.classes[0].method_name_arc(1)));
        assert!(Arc::ptr_eq(&state.statics[0].class, f_class));
        assert!(!main.same_run_as(&f) && f.same_run_as(&frames.get(1).unwrap()));
        assert_eq!(state.class_names().count(), 1, "one Arc names all three");
        // Both frames' locals sit in the one array, back to back.
        assert_eq!(frames.value_count(), 4);
        assert_eq!((frames.heads[0].end, frames.heads[1].end), (2, 4));
        assert_eq!(f.locals, [CapturedValue::Int(10), CapturedValue::Int(5)]);
        assert_eq!(f.locals.as_ptr(), frames.values[2..].as_ptr());
        // A frame compares by what it shows, wherever it sits.
        let owned = CapturedFrame {
            class: "Main".into(),
            method: "f".into(),
            pc: f.pc,
            locals: f.locals.to_vec(),
        };
        assert_eq!(f, owned.view());
        assert_ne!(f, main);
        // Splitting the frames (as a migration plan does) rebases the top
        // half onto arrays of its own; each frame keeps its contents.
        let mut rest = frames.clone();
        let top = rest.split_off(1);
        assert_eq!((top.len(), rest.len()), (1, 1));
        assert_eq!((top.runs().len(), rest.runs().len()), (1, 1));
        assert_eq!(top.get(0).unwrap(), f);
        assert_eq!(rest.get(0).unwrap(), main);
        assert_eq!(top, Frames::from_frames([owned]).unwrap());
    }

    #[test]
    fn internal_path_is_cheaper() {
        let (mut vm, tid) = looping_vm();
        stop_at_msp(&mut vm, tid);
        let (_, jvmti_cost) = capture_segment(&mut vm, tid, 2, ToolingPath::Jvmti).unwrap();
        // Suspend, two frames, four slots and one static.
        assert_eq!(jvmti_cost, 250_000 + 2 * 2_000 + 4 * 30_000 + 2_000);
        // JESSICA2 reads the same two frames from inside the JVM.
        assert!(jvmti_cost > 5 * JESSICA2_CAPTURE.of(2));
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
        let (state, _) = capture_segment(&mut vm, tid, 2, ToolingPath::Jvmti).unwrap();

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
        let (mut state, _) = capture_segment(&mut vm, tid, 2, ToolingPath::Jvmti).unwrap();
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
        let top = state.frames.split_off(1);
        let f = top.get(0).unwrap();
        let mut longer = f.locals.to_vec();
        longer.push(CapturedValue::Int(0));
        state
            .frames
            .push(CapturedFrame {
                class: f.class.into(),
                method: f.method.into(),
                pc: f.pc,
                locals: longer,
            })
            .unwrap();
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
        let (full, cost) = capture_segment(&mut vm, tid, 129, ToolingPath::Jvmti).unwrap();
        // The one frame walk charges what JVMTI's calls cost one by one:
        // per frame a `GetFrameLocation` and the `GetLocalVariableTable`
        // step, per slot a `GetLocal<Type>` (`Deep` has no statics).
        assert_eq!(cost, 19_858_000);
        assert_eq!(
            cost,
            JVMTI_SUSPEND.fixed + JVMTI_FRAME.of(129) + JVMTI_GET_LOCAL.of(129 * 5)
        );
        // The portable path reads the same frames and is priced on their
        // wire size: fixed, then Java serialization per byte.
        let (again, cost) = capture_segment(&mut vm, tid, 129, ToolingPath::Portable).unwrap();
        assert_eq!(cost, PORTABLE_CAPTURE.of(full.wire_bytes()));
        assert_eq!(cost, 12_000_000 + 20_000 + 7 * full.wire_bytes());
        assert_eq!(again, full);
        assert_eq!(full.frames.runs().len(), 1, "one method, one run");
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
        let (s1, _) = capture_segment(&mut vm, tid, 1, ToolingPath::Jvmti).unwrap();
        let (s2, _) = capture_segment(&mut vm, tid, 2, ToolingPath::Jvmti).unwrap();
        assert!(s2.wire_bytes() > s1.wire_bytes());
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
