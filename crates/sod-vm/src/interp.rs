//! The interpreter: a pure, steppable state machine over frames.
//!
//! Design principles:
//!
//! * **Everything suspends.** Each [`Vm::step`] executes exactly one
//!   instruction; [`Vm::run`] executes until a virtual-time budget runs out
//!   or the thread blocks. Blocking conditions — host intrinsics, object
//!   faults, missing classes, breakpoints, unhandled exceptions — are
//!   returned as [`StepOutcome`] values, never handled with callbacks. This
//!   keeps the VM deterministic and lets the discrete-event runtime
//!   interleave many VMs on one virtual clock.
//! * **Costs are explicit.** Every instruction charges virtual nanoseconds
//!   from [`crate::costs`]; allocations charge per byte. The meter is the
//!   source of execution time for every experiment in the paper
//!   reproduction.
//! * **Migration hooks are first-class.** The interpreter understands
//!   migration-safe points (line starts with empty operand stacks), tracks
//!   the last-passed safe point of every frame (for exception-driven
//!   offload), and exposes run modes that stop at the next safe point when a
//!   migration request is pending.
//! * **One resolve-and-cache path.** A name-bearing instruction reads its
//!   inline-cache cell unconditionally; on a miss it resolves by name and
//!   hands the result to the single cache writer (`fill_ic`). The reference
//!   semantics the differential suites compare against are this same code
//!   in a VM whose writer refuses to fill ([`Vm::reference`]), so every
//!   site misses forever — the cold state every migrated stack *arrives* in
//!   (see [`crate::fastpath`]).
//! * **One executing arm per instruction, two ways to reach it.** The
//!   instructions that touch only the running frame's window of the value
//!   stack — pushes, locals, arithmetic, branches — execute in
//!   [`window_op`]. [`Vm::run`] hands a slice to the *window loop*, a
//!   function of its own that holds nothing but the frame (stack slice,
//!   `sp`, `pc`, the method's rows) and the slice's meters, calls
//!   `window_op` per instruction, and takes warm static calls and returns
//!   to a caller without leaving: they move the window, through the one
//!   `push_callee_frame` / `pop_frame` pair the full path calls too, and
//!   grow the stack in place when the next frame does not fit. Whether a
//!   slice watches for safe points or a breakpoint of its thread is fixed
//!   at compile time (two instantiations of the one loop), so the loop
//!   most slices run tests neither; that unwatched loop alone also retires
//!   a row's fused run of cost-1 window instructions in one dispatch
//!   ([`fused_op`]), exactly as they would retire one by one, when the
//!   budget cannot end inside it. Everything else, and *any anomaly* in
//!   the above (a slot or operand outside the window, mixed operand types,
//!   division by zero, an unfilled call site, a bad arity, the root frame's
//!   return), leaves the loop uncharged and executes once on the full
//!   path, `exec_instr`, which delegates window instructions to the same
//!   `window_op` and is the only place an error or a guest throw is built.
//!   The full path is compiled once and deliberately *not* inlined into the
//!   loop: that is what keeps the loop's state in registers. The
//!   instructions only preprocessor-injected code executes live further out
//!   of line in `exec_protocol`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use crate::analysis::{class_summaries, MethodSummary};
use crate::capture::{FrameRef, Frames};
use crate::class::{ClassDef, ExKind};
use crate::costs::{alloc_cost, INTERP_MODE_FACTOR};
use crate::error::{VmError, VmResult};
use crate::fastpath::{build_ic_row, fused_op, link_rows, window_op, Exit, IcCell, Row, Window};
use crate::frame::Frame;
use crate::heap::{Heap, ObjKind};
use crate::instr::Instr;
use crate::intrinsics::{self, IntrinsicEval};
use crate::value::{ObjId, OriginId, Value};

/// A class loaded (linked) into a VM.
///
/// Besides the verified definition this carries the *pre-resolved operand
/// form* the interpreter fast path runs on: name→index maps built once at
/// link time, the canonical class-name `Arc` that instances share, one
/// inline-cache row per method, and the per-pc dispatch rows.
/// None of this is serialized — `capture`/`wire` ship only the `ClassDef`
/// and name-based frame state, so a migrated stack rebuilds (rewarms) all
/// of it at the destination.
#[derive(Clone, Debug)]
pub struct LoadedClass {
    pub def: ClassDef,
    pub summaries: Vec<MethodSummary>,
    pub statics: Vec<Value>,
    method_map: HashMap<String, usize>,
    instance_field_map: HashMap<String, usize>,
    static_field_map: HashMap<String, usize>,
    /// Canonical shared name: every instance allocated by `New` clones this
    /// `Arc`, so receiver-keyed inline caches validate with a pointer
    /// comparison and allocation never copies the string.
    name_arc: Arc<str>,
    /// Each method's name behind a shared `Arc`, by method index: what a
    /// captured frame of that method clones instead of copying the string.
    method_names: Vec<Arc<str>>,
    /// What the interpreter reads per method, by method index.
    linked: Vec<LinkedMethod>,
}

/// One method's linked form: everything the run loop reads to open a window
/// on it, side by side.
#[derive(Clone, Debug)]
struct LinkedMethod {
    /// Dispatch rows, `rows[pc]` (see [`Row`]). Immutable once linked.
    rows: Vec<Row>,
    /// Inline-cache slots, `ics[pc]` (see [`IcCell`]). Node-local,
    /// positive-only, mutated during execution, never serialized.
    ics: Vec<IcCell>,
    nargs: u16,
    nlocals: u16,
    /// The verified operand-stack peak: the spare room a window needs.
    max_stack: u32,
}

impl LoadedClass {
    /// Verify and link `def`.
    fn link(def: ClassDef) -> VmResult<Self> {
        let summaries = class_summaries(&def)?;
        let method_map = def
            .methods
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.clone(), i))
            .collect();
        let instance_field_map = def
            .fields
            .iter()
            .filter(|f| !f.is_static)
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        let static_field_map = def
            .fields
            .iter()
            .filter(|f| f.is_static)
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        let statics = def.default_static_values();
        let name_arc: Arc<str> = Arc::from(def.name.as_str());
        let method_names = def
            .methods
            .iter()
            .map(|m| Arc::from(m.name.as_str()))
            .collect();
        let linked = def
            .methods
            .iter()
            .zip(&summaries)
            .map(|(m, summary)| LinkedMethod {
                rows: link_rows(m, summary),
                ics: build_ic_row(m),
                nargs: m.nargs,
                nlocals: m.nlocals,
                max_stack: summary.max_stack,
            })
            .collect();
        Ok(LoadedClass {
            def,
            summaries,
            statics,
            method_map,
            instance_field_map,
            static_field_map,
            name_arc,
            method_names,
            linked,
        })
    }

    /// The class's canonical shared name.
    pub fn name_arc(&self) -> &Arc<str> {
        &self.name_arc
    }

    /// Method `mi`'s shared name.
    pub fn method_name_arc(&self, mi: usize) -> &Arc<str> {
        &self.method_names[mi]
    }

    /// Number of inline-cache slots this class has filled (warm sites).
    pub fn ic_warm_count(&self) -> usize {
        let cells = self.linked.iter().flat_map(|m| &m.ics);
        cells.filter(|c| c.is_filled()).count()
    }

    pub fn method_idx(&self, name: &str) -> Option<usize> {
        self.method_map.get(name).copied()
    }

    /// Slots every instance of this class has: one per instance field.
    fn instance_slots(&self) -> usize {
        self.def.instance_fields().count()
    }

    pub fn instance_field_idx(&self, name: &str) -> Option<usize> {
        self.instance_field_map.get(name).copied()
    }

    pub fn static_field_idx(&self, name: &str) -> Option<usize> {
        self.static_field_map.get(name).copied()
    }
}

/// [`Vm::instance_class`] over the VM's fields, so a caller holding the
/// heap mutably can still ask. `last` remembers the class found last: a
/// segment faults in many objects of few classes, and comparing the next
/// name with that one first saves hashing it on every fault.
fn instance_class(
    classes: &[LoadedClass],
    index: &HashMap<String, usize>,
    last: &mut Option<usize>,
    name: &str,
    slots: usize,
) -> VmResult<Arc<str>> {
    let known = match *last {
        Some(ci) if classes[ci].def.name == name => Some(ci),
        _ => index.get(name).copied(),
    };
    let Some(ci) = known else {
        return Ok(Arc::from(name));
    };
    *last = Some(ci);
    if classes[ci].instance_slots() != slots {
        return Err(VmError::Decode(
            "instance slot count differs from its class's layout",
        ));
    }
    Ok(classes[ci].name_arc.clone())
}

/// Why a thread is parked.
#[derive(Clone, Debug, PartialEq)]
pub enum ParkReason {
    /// Waiting for a host intrinsic reply.
    HostCall { name: String, args: Vec<Value> },
    /// Waiting for a remote object (SOD object fault).
    ObjectFault(ObjectQuery),
    /// Waiting for a class to be loaded (on-demand code shipping).
    ClassMiss(String),
}

/// Scheduling state of a thread.
#[derive(Clone, Debug, PartialEq)]
pub enum ThreadState {
    Runnable,
    Parked(ParkReason),
    /// Finished normally with an optional return value of the root frame.
    Finished(Option<Value>),
    /// A guest exception escaped; frames are preserved at the throw point so
    /// a migration policy can inspect or retry (exception-driven offload).
    Faulted(ExceptionInfo),
}

/// Description of an escaped guest exception.
#[derive(Clone, Debug, PartialEq)]
pub struct ExceptionInfo {
    pub kind: ExKind,
    pub message: String,
    /// pc of the faulting instruction in the top frame.
    pub pc: u32,
}

/// What the home node must resolve to satisfy an object fault: the master
/// copy of a home object. Because every transfer-nulled reference carries
/// its home identity ([`Value::NulledRef`]), all fault resolution is
/// fetch-by-home-id against the home heap — the same home-based protocol
/// the paper's object manager implements via JVMTI lookups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectQuery {
    /// Identity of the master copy in the home VM's heap.
    pub home_id: ObjId,
}

/// Where to install a fetched object (mirrors the `Bring*` instruction that
/// faulted).
#[derive(Clone, Debug, PartialEq)]
enum FaultBind {
    Local {
        slot: u16,
    },
    Field {
        base: ObjId,
        field_idx: usize,
    },
    StaticTo {
        class_idx: usize,
        static_idx: usize,
        dest_slot: u16,
    },
    ElemTo {
        base: ObjId,
        index: i64,
        dest_slot: u16,
    },
    /// Status-checking baseline: the runtime filled the stub in place; no
    /// binding beyond unparking is required.
    Stub,
}

/// A protocol-family instruction as [`Vm::exec_instr`] matched it:
/// `Captured` is `ReadCaptured` (`push`) or `RestoreLocal`; the last four
/// are the `BringObj*` family.
#[derive(Clone, Copy)]
enum Protocol {
    Captured { slot: u16, push: bool },
    CapturedPc,
    RethrowAppNpe,
    CheckStatus(u8),
    Local(u16),
    Field(u16, u16),
    StaticTo(u16, u16, u16),
    ElemTo(u16, u16, u16),
}

/// A parked object fault: what was asked and where the answer goes.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingFault {
    pub query: ObjectQuery,
    bind: FaultBind,
}

/// Most slots one thread's stack may hold, counting two per frame for its
/// header as [`VmThread::stack_state_bytes`] does (so a frame without
/// locals still counts). Checked where a frame is pushed: unbounded guest
/// recursion ends in [`VmError::StackOverflow`], not a host allocation
/// failure. A frame's operands add at most its verified `max_stack`.
pub const MAX_STACK_SLOTS: usize = 1 << 20;

/// One guest thread.
#[derive(Clone, Debug)]
pub struct VmThread {
    /// Activation records, bottom-up: contiguous windows into `stack` (see
    /// [`Frame`]). Change them through the methods below, which move the
    /// value stack with them.
    pub frames: Vec<Frame>,
    /// The thread's one value stack: every frame's locals and operands.
    pub(crate) stack: Vec<Value>,
    pub state: ThreadState,
    /// Pending fault metadata while parked on `ObjectFault`.
    pub pending_fault: Option<PendingFault>,
    /// pc the active NPE fault handler should treat as the fault origin
    /// (for application-level NPE rethrow).
    npe_origin_pc: Option<u32>,
    /// Highest frame count ever reached (the paper's Table I `h`).
    pub max_height: usize,
    /// Number of the bottom frames restored from a migrated segment; frames
    /// `0..seg_frames` correspond to home segment frames 0..n (bottom-up).
    pub seg_frames: usize,
    /// Active restoration session, if any. Per-thread: concurrent
    /// handler-protocol restores (multi-tenant destinations) each carry
    /// their own cursor and captured frames.
    pub restore_session: Option<Box<RestoreSession>>,
    /// When true, this thread's instruction costs are multiplied by
    /// [`INTERP_MODE_FACTOR`] (debugger active → interpreted mode during
    /// a handler-protocol restore).
    pub interp_mode: bool,
    /// Home node of the program this thread executes a migrated segment
    /// of: the node its transfer-nulled references name masters on, and
    /// the home what it allocates is created for. Set by whoever restores
    /// the segment; `None` for a thread running at its program's home,
    /// whose allocations are masters (set by whoever spawns it); `Some(0)`
    /// (the only home a standalone VM has) otherwise.
    pub origin: Option<OriginId>,
    /// How many tenants this slot of [`Vm::threads`] had before this one:
    /// the high half of the thread's id (see [`Vm::release`]).
    generation: u32,
    /// Host calls the thread has parked on: the one a reply names must be
    /// the latest, so it answers only the call it was made for.
    pub host_calls: u32,
    /// The slot is released and waits for its next tenant.
    vacant: bool,
}

// Every thread a node holds at once pays every byte of this struct, and a
// slot stays allocated at the size of the most threads the node ever ran
// together: 48 bytes more here moved the 2000-program reference fleet's
// peak RSS by 7 % when slots were never reused. State that only some
// threads carry (a restore session) goes in a box.
const _: () = assert!(std::mem::size_of::<VmThread>() <= 192);

/// Room a spawned thread starts with: frames, and value-stack slots.
const SPAWN_FRAMES: usize = 16;
const SPAWN_SLOTS: usize = 64;

/// Bits of a thread id that name its slot in [`Vm::threads`]; the bits
/// above them hold the slot's generation.
const SLOT_BITS: u32 = usize::BITS / 2;

/// The slot of [`Vm::threads`] that thread id `tid` names.
#[inline]
pub fn slot_of(tid: usize) -> usize {
    tid & ((1 << SLOT_BITS) - 1)
}

/// The id of the tenant of `slot` let under `generation`. A slot's first
/// tenant's id is the slot itself.
#[inline]
fn thread_id(slot: usize, generation: u32) -> usize {
    slot | (generation as usize) << SLOT_BITS
}

impl VmThread {
    /// An empty thread built in `frames` and `stack` — a released
    /// thread's buffers, or new ones — with room for at least `nframes`
    /// frames and `nslots` values.
    fn in_buffers(
        mut frames: Vec<Frame>,
        mut stack: Vec<Value>,
        nframes: usize,
        nslots: usize,
    ) -> Self {
        frames.clear();
        frames.reserve(nframes);
        stack.clear();
        stack.reserve(nslots);
        VmThread {
            frames,
            stack,
            state: ThreadState::Runnable,
            pending_fault: None,
            npe_origin_pc: None,
            max_height: 0,
            seg_frames: 0,
            restore_session: None,
            interp_mode: false,
            origin: Some(0),
            generation: 0,
            host_calls: 0,
            vacant: false,
        }
    }

    /// Whether this thread, in slot `slot`, is the one `tid` names.
    #[inline]
    fn answers_to(&self, slot: usize, tid: usize) -> bool {
        !self.vacant && thread_id(slot, self.generation) == tid
    }

    /// Push one pre-established frame (direct restore of a migrated
    /// segment, or a spawn's entry frame) holding `locals`, its operand
    /// stack empty.
    pub(crate) fn push_restored(
        &mut self,
        class_idx: usize,
        method_idx: usize,
        pc: u32,
        locals: impl IntoIterator<Item = Value>,
    ) {
        let base = self.stack.len();
        self.stack.extend(locals);
        self.frames.push(Frame {
            class_idx,
            method_idx,
            pc,
            base,
            nlocals: (self.stack.len() - base) as u16,
            pinned: false,
        });
        self.max_height = self.frames.len();
    }

    pub fn top(&self) -> Option<&Frame> {
        self.frames.last()
    }

    pub fn top_mut(&mut self) -> Option<&mut Frame> {
        self.frames.last_mut()
    }

    /// Local slots of frame `fi` (bottom-up index; arguments first).
    pub fn locals(&self, fi: usize) -> &[Value] {
        let f = &self.frames[fi];
        &self.stack[f.base..f.floor()]
    }

    /// Operand stack of frame `fi`: above its locals, up to the next
    /// frame's first argument (the top frame's run to the stack's end).
    pub fn operands(&self, fi: usize) -> &[Value] {
        let end = self.frames.get(fi + 1).map_or(self.stack.len(), |f| f.base);
        &self.stack[self.frames[fi].floor()..end]
    }

    /// Push `v` on the top frame's operand stack.
    pub fn push_operand(&mut self, v: Value) {
        self.stack.push(v);
    }

    /// Empty the top frame's operand stack.
    pub fn clear_operands(&mut self) {
        if let Some(f) = self.frames.last() {
            self.stack.truncate(f.floor());
        }
    }

    /// Drop every frame above the bottom `keep`, values included: the new
    /// top frame keeps its locals and the operands it held below the
    /// dropped callee's arguments.
    pub fn truncate_frames(&mut self, keep: usize) {
        if let Some(f) = self.frames.get(keep) {
            self.stack.truncate(f.base);
            self.frames.truncate(keep);
            self.seg_frames = self.seg_frames.min(keep);
        }
    }

    pub fn is_runnable(&self) -> bool {
        matches!(self.state, ThreadState::Runnable)
    }

    pub fn is_finished(&self) -> bool {
        matches!(
            self.state,
            ThreadState::Finished(_) | ThreadState::Faulted(_)
        )
    }

    /// Total state bytes across frames (paper's captured-state sizing):
    /// every local and operand slot plus a 16-byte header per frame.
    pub fn stack_state_bytes(&self) -> u64 {
        self.stack.len() as u64 * Value::SLOT_BYTES + self.frames.len() as u64 * 16
    }
}

/// Result of one [`Vm::step`] or a [`Vm::run`] slice.
#[derive(Clone, Debug, PartialEq)]
pub enum StepOutcome {
    /// Instruction executed; thread still runnable.
    Continue,
    /// An armed breakpoint at (class_idx, method_idx, pc) was hit *before*
    /// executing that pc; the breakpoint is disarmed. Used by the
    /// restoration driver (the paper's `cbBreakpoint`).
    Breakpoint {
        class_idx: usize,
        method_idx: usize,
        pc: u32,
    },
    /// Thread parked on a host intrinsic.
    HostCall { name: String, args: Vec<Value> },
    /// Thread parked on a remote-object fault.
    ObjectFault(ObjectQuery),
    /// Thread parked awaiting a class definition.
    ClassMiss(String),
    /// Stopped at a migration-safe point (only in [`RunMode::StopAtMsp`]).
    AtMsp { pc: u32 },
    /// Thread finished; root return value.
    Returned(Option<Value>),
    /// A guest exception escaped the outermost frame; frames preserved.
    Unhandled(ExceptionInfo),
}

/// How [`Vm::run`] decides to stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Run until budget exhaustion or a blocking outcome.
    Normal,
    /// Additionally stop when the *top frame* reaches a migration-safe point
    /// (used when a migration request is pending).
    StopAtMsp,
}

/// Restoration session state: the captured frames being re-established by
/// the breakpoint + `InvalidStateException` protocol. The thread drops it
/// when the top frame's handler reads its captured pc — the last read.
#[derive(Clone, Debug)]
pub struct RestoreSession {
    /// The captured segment: per frame (bottom-up) its locals and pc, and
    /// the method the next breakpoint goes on.
    pub frames: Frames,
    /// Frame currently being restored.
    pub cursor: usize,
}

/// The virtual machine: loaded classes, heap, threads, meters.
#[derive(Clone, Debug)]
pub struct Vm {
    pub classes: Vec<LoadedClass>,
    class_index: HashMap<String, usize>,
    pub heap: Heap,
    /// The thread table, by slot. A slot is let to one thread at a time:
    /// [`Vm::release`] vacates it and the next spawn or restore moves in.
    pub threads: Vec<VmThread>,
    /// Vacated slots of `threads`, most recent last: the next tenant takes
    /// the last. A hint, checked where it is read — after an outside
    /// `threads.clear()` its entries name no vacant slot and are dropped.
    free_threads: Vec<usize>,
    interned: HashMap<String, ObjId>,
    /// Captured `print` output.
    pub stdout: Vec<String>,
    /// Armed breakpoints (tid, class_idx, method_idx, pc). Thread-scoped:
    /// with many migrated segments restoring concurrently on one node,
    /// a breakpoint armed for one restoring thread must never trip on
    /// another thread running the same method.
    breakpoints: Vec<Breakpoint>,
    /// Virtual nanoseconds of guest execution accumulated so far.
    pub meter_ns: u64,
    /// Instructions retired.
    pub instr_count: u64,
    /// Per-mille execution cost scale ≥ 1000; models the idle overhead of an
    /// attached tooling agent (the paper's C1) and slower JITs (JESSICA2).
    pub cost_scale_per_mille: u32,
    /// Heap byte budget; allocations beyond it raise guest `OutOfMemory`.
    pub mem_limit: Option<u64>,
    /// Whether this is a reference VM (see [`Vm::reference`]). Fixed at
    /// construction and read only where acceleration state would be built:
    /// filling an inline-cache cell.
    reference: bool,
    /// The class [`Vm::class_name_arc`] resolved last (a one-entry memo).
    last_fetched_class: Option<usize>,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

impl Vm {
    pub fn new() -> Self {
        Vm {
            classes: Vec::new(),
            class_index: HashMap::new(),
            heap: Heap::new(),
            threads: Vec::new(),
            free_threads: Vec::new(),
            interned: HashMap::new(),
            stdout: Vec::new(),
            breakpoints: Vec::new(),
            meter_ns: 0,
            instr_count: 0,
            cost_scale_per_mille: 1000,
            mem_limit: None,
            reference: false,
            last_fetched_class: None,
        }
    }

    /// A VM with the reference semantics the differential suites compare
    /// against: the same interpreter, whose inline caches never fill. Every
    /// site misses forever and re-runs the by-name resolution a fast VM
    /// runs on its first visit, and every call takes the full path. Reports
    /// must be bit-identical either way — pinned by
    /// `tests/corpus/interp_equivalence.rs`.
    pub fn reference() -> Self {
        Vm {
            reference: true,
            ..Self::new()
        }
    }

    // ------------------------------------------------------------------
    // Class management
    // ------------------------------------------------------------------

    /// Load (verify + link) a class. Duplicate names are rejected.
    pub fn load_class(&mut self, def: &ClassDef) -> VmResult<usize> {
        if self.class_index.contains_key(&def.name) {
            return Err(VmError::DuplicateClass(def.name.clone()));
        }
        let linked = LoadedClass::link(def.clone())?;
        let idx = self.classes.len();
        self.class_index.insert(def.name.clone(), idx);
        self.classes.push(linked);
        Ok(idx)
    }

    pub fn class_idx(&self, name: &str) -> Option<usize> {
        self.class_index.get(name).copied()
    }

    pub fn has_class(&self, name: &str) -> bool {
        self.class_index.contains_key(name)
    }

    /// Names of all loaded classes.
    pub fn class_names(&self) -> impl Iterator<Item = &str> {
        self.classes.iter().map(|c| c.def.name.as_str())
    }

    // ------------------------------------------------------------------
    // Threads
    // ------------------------------------------------------------------

    /// Spawn a thread at `class.method(args)`. Returns the thread id.
    pub fn spawn(&mut self, class: &str, method: &str, args: &[Value]) -> VmResult<usize> {
        let ci = self
            .class_idx(class)
            .ok_or_else(|| VmError::ClassNotFound(class.to_owned()))?;
        let mi = self.classes[ci]
            .method_idx(method)
            .ok_or_else(|| VmError::MethodNotFound {
                class: class.to_owned(),
                method: method.to_owned(),
            })?;
        let m = &self.classes[ci].def.methods[mi];
        let (nargs, nlocals) = (m.nargs, m.nlocals);
        if args.len() != nargs as usize {
            return Err(VmError::MethodNotFound {
                class: class.to_owned(),
                method: format!("{method}/{nargs} (got {} args)", args.len()),
            });
        }
        // Arguments first, the other locals zeroed (`nlocals >= nargs` is
        // verified at link time).
        let zeroed = std::iter::repeat_n(Value::Int(0), usize::from(nlocals - nargs));
        let locals = args.iter().copied().chain(zeroed);
        let mut t = self.vacant_thread(SPAWN_FRAMES, SPAWN_SLOTS);
        t.push_restored(ci, mi, 0, locals);
        Ok(self.admit(t))
    }

    /// The thread `tid` names: an error once it has been released, and for
    /// an id of an earlier tenant of its slot.
    pub fn thread(&self, tid: usize) -> VmResult<&VmThread> {
        match self.threads.get(slot_of(tid)) {
            Some(t) if t.answers_to(slot_of(tid), tid) => Ok(t),
            _ => Err(VmError::BadThread(tid)),
        }
    }

    pub fn thread_mut(&mut self, tid: usize) -> VmResult<&mut VmThread> {
        match self.threads.get_mut(slot_of(tid)) {
            Some(t) if t.answers_to(slot_of(tid), tid) => Ok(t),
            _ => Err(VmError::BadThread(tid)),
        }
    }

    /// Ids of the threads the table holds (every slot not vacant), in slot
    /// order.
    pub fn thread_ids(&self) -> impl Iterator<Item = usize> + '_ {
        let tenants = self.threads.iter().enumerate().filter(|(_, t)| !t.vacant);
        tenants.map(|(slot, t)| thread_id(slot, t.generation))
    }

    /// Release thread `tid`: every breakpoint armed for it is disarmed and
    /// its slot goes vacant for the next spawn or restore to move in. That
    /// tenant's id names the slot under the next generation, so `tid`
    /// never names a thread again: whatever still carries it (a late reply,
    /// a stale run slice) finds none. Stacks that grew past a spawn's are
    /// kept, emptied, for the next tenant — a deep one then reallocates
    /// nothing; smaller ones are as cheap to allocate again as to keep,
    /// and kept in a slot nobody takes soon they would only pin memory the
    /// allocator could reuse. Read what you need of the thread first.
    /// `false` when `tid` names no thread.
    pub fn release(&mut self, tid: usize) -> bool {
        let Ok(t) = self.thread_mut(tid) else {
            return false;
        };
        let (mut frames, mut stack) = (std::mem::take(&mut t.frames), std::mem::take(&mut t.stack));
        if frames.capacity() <= SPAWN_FRAMES && stack.capacity() <= SPAWN_SLOTS {
            (frames, stack) = (Vec::new(), Vec::new());
        }
        *t = VmThread {
            state: ThreadState::Finished(None),
            generation: t.generation,
            vacant: true,
            ..VmThread::in_buffers(frames, stack, 0, 0)
        };
        self.free_threads.push(slot_of(tid));
        self.clear_thread_breakpoints(tid);
        true
    }

    /// A new, empty thread with room for `nframes` frames and `nslots`
    /// values, built in the buffers of the slot [`Vm::admit`] lets next if
    /// that one is vacant. Build the tenant in it and admit it; dropped
    /// instead, it takes those buffers along and leaves the slot free.
    pub(crate) fn vacant_thread(&mut self, nframes: usize, nslots: usize) -> VmThread {
        let (frames, stack) = match self.next_vacancy() {
            Some(slot) => {
                let t = &mut self.threads[slot];
                (std::mem::take(&mut t.frames), std::mem::take(&mut t.stack))
            }
            None => (Vec::new(), Vec::new()),
        };
        VmThread::in_buffers(frames, stack, nframes, nslots)
    }

    /// Let `t` a slot — the most recently vacated one, under its next
    /// generation, or a new one at the end of the table — and return its
    /// id.
    pub(crate) fn admit(&mut self, mut t: VmThread) -> usize {
        let Some(slot) = self.next_vacancy() else {
            self.threads.push(t);
            return self.threads.len() - 1;
        };
        self.free_threads.pop();
        t.generation = self.threads[slot].generation.wrapping_add(1);
        self.threads[slot] = t;
        thread_id(slot, self.threads[slot].generation)
    }

    /// The slot [`Vm::admit`] lets next, if a vacant one: the free list's
    /// last entry, once entries that name no vacant slot are dropped.
    fn next_vacancy(&mut self) -> Option<usize> {
        while let Some(&slot) = self.free_threads.last() {
            if self.threads.get(slot).is_some_and(|t| t.vacant) {
                return Some(slot);
            }
            self.free_threads.pop();
        }
        None
    }

    // ------------------------------------------------------------------
    // Strings
    // ------------------------------------------------------------------

    /// Capture-export a value from this VM: a reference exports its
    /// *master* identity — the home id recorded on a cached copy, or the
    /// local id when this VM owns the object. Transfer-nulled refs re-export
    /// the home identity they carry (multi-hop roaming).
    pub fn export_value(&self, v: Value) -> crate::capture::CapturedValue {
        use crate::capture::CapturedValue;
        match v {
            Value::Ref(id) => {
                let home = self
                    .heap
                    .get(id)
                    .ok()
                    .and_then(|o| o.home_id())
                    .unwrap_or(id);
                CapturedValue::HomeRef(home)
            }
            other => CapturedValue::from_value(other),
        }
    }

    // ------------------------------------------------------------------
    // Breakpoints (tooling support)
    // ------------------------------------------------------------------

    /// Arm a breakpoint for thread `tid` at `(class, method, pc)`. Only
    /// `tid` stepping onto that location trips (and disarms) it; other
    /// threads executing the same method pass through.
    pub fn set_breakpoint(&mut self, tid: usize, class_idx: usize, method_idx: usize, pc: u32) {
        if !self.breakpoints.contains(&(tid, class_idx, method_idx, pc)) {
            self.breakpoints.push((tid, class_idx, method_idx, pc));
        }
    }

    /// Disarm every breakpoint armed for thread `tid` (whoever retires a
    /// thread mid-restore calls this, so its entries do not outlive it).
    pub fn clear_thread_breakpoints(&mut self, tid: usize) {
        self.breakpoints.retain(|b| b.0 != tid);
    }

    pub fn breakpoints_armed(&self) -> usize {
        self.breakpoints.len()
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Execute one instruction of thread `tid` on the full path — exactly
    /// one, whatever it is — so restore drivers and tooling that step a
    /// thread see every pc. Its own entry, not a one-instruction
    /// [`Vm::run`]: it shares the per-instruction order and `exec_instr`
    /// with the loop, nothing else.
    pub fn step(&mut self, tid: usize) -> VmResult<StepOutcome> {
        if let Some(out) = self.settled(tid)? {
            return Ok(out);
        }
        self.heap.mint_for(self.threads[slot_of(tid)].origin);
        let top @ (ci, mi, pc, ..) = self.top_window(tid)?;
        if let Some(at) = breakpoint_at(&self.breakpoints, (tid, ci, mi, pc)) {
            return Ok(self.trip_breakpoint(at));
        }
        Ok(match self.exec_charged(tid, top)? {
            Flow::Leave => self.stopped(tid),
            Flow::Next => StepOutcome::Continue,
        })
    }

    /// One instruction on the full path, charged and counted once: the
    /// one at `pc` of the top frame [`Vm::top_window`] described. A pc
    /// outside the method is an error that costs nothing.
    fn exec_charged(
        &mut self,
        tid: usize,
        (ci, mi, pc, base, floor): (usize, usize, u32, usize, usize),
    ) -> VmResult<Flow> {
        let row = self.classes[ci].linked[mi].rows.get(pc as usize).copied();
        let row = row.ok_or_else(|| VmError::BadPc(pc))?;
        self.charge(tid, u64::from(row.cost));
        self.instr_count += 1;
        self.exec_instr(tid, ci, mi, pc, base, floor, row.instr)
    }

    /// What stepping a thread that is not runnable yields: an error while
    /// it is parked, its final outcome again once it has finished.
    fn settled(&self, tid: usize) -> VmResult<Option<StepOutcome>> {
        match &self.thread(tid)?.state {
            ThreadState::Runnable => Ok(None),
            ThreadState::Parked(_) => Err(VmError::ThreadParked(tid)),
            ThreadState::Finished(_) | ThreadState::Faulted(_) => Ok(Some(self.stopped(tid))),
        }
    }

    /// The outcome thread `tid` stopped running with: its state, which says
    /// everything an instruction that ends a slice has to report.
    fn stopped(&self, tid: usize) -> StepOutcome {
        match &self.threads[slot_of(tid)].state {
            ThreadState::Runnable => StepOutcome::Continue,
            ThreadState::Parked(ParkReason::HostCall { name, args }) => StepOutcome::HostCall {
                name: name.clone(),
                args: args.clone(),
            },
            ThreadState::Parked(ParkReason::ObjectFault(query)) => StepOutcome::ObjectFault(*query),
            ThreadState::Parked(ParkReason::ClassMiss(name)) => {
                StepOutcome::ClassMiss(name.clone())
            }
            ThreadState::Finished(v) => StepOutcome::Returned(*v),
            ThreadState::Faulted(e) => StepOutcome::Unhandled(e.clone()),
        }
    }

    /// The top frame of thread `tid`: `(class, method, pc, base, floor)`.
    /// A thread without one is nobody's to run — a zero-frame state
    /// decodes and restores — and neither is one whose stack ends below
    /// its top frame's locals (only hand-edited `frames` can say that).
    #[inline]
    fn top_window(&self, tid: usize) -> VmResult<(usize, usize, u32, usize, usize)> {
        let t = &self.threads[slot_of(tid)];
        match t.top() {
            Some(f) if f.floor() <= t.stack.len() => {
                Ok((f.class_idx, f.method_idx, f.pc, f.base, f.floor()))
            }
            _ => Err(VmError::BadThread(tid)),
        }
    }

    /// Trip the breakpoint at list position `at`: it is disarmed.
    fn trip_breakpoint(&mut self, at: usize) -> StepOutcome {
        let (_, class_idx, method_idx, pc) = self.breakpoints.swap_remove(at);
        StepOutcome::Breakpoint {
            class_idx,
            method_idx,
            pc,
        }
    }

    /// The per-charge cost multiplier of thread `tid`, in per-mille:
    /// interpreted mode times the VM's cost scale. Applied to each charge
    /// separately (per-charge rounding does not distribute over sums).
    #[inline]
    fn cost_per_mille(&self, tid: usize) -> u64 {
        let mode = if self.threads[slot_of(tid)].interp_mode {
            u64::from(INTERP_MODE_FACTOR)
        } else {
            1
        };
        mode * u64::from(self.cost_scale_per_mille)
    }

    #[inline]
    fn charge(&mut self, tid: usize, ns: u64) {
        self.meter_ns += ns * self.cost_per_mille(tid) / 1000;
    }

    /// Run thread `tid` for at most `budget_ns` of charged virtual time.
    /// Returns the outcome and the virtual ns actually consumed.
    ///
    /// **The window loop.** The slice is retired by `window_loop`, a
    /// function of its own that holds nothing but the running frame — the
    /// thread's value stack from the frame's base up, as a slice with spare
    /// room up to the method's verified `max_stack`, `sp`, `pc`, the floor,
    /// the method's rows — and the two meters. It retires there every
    /// instruction [`window_op`] accepts, and a warm `InvokeStatic` or a
    /// `Ret`/`RetV` to a caller *moves the window without leaving it*,
    /// through the same `push_callee_frame`/`pop_frame` the full path
    /// calls. The stack `Vec` is only ever grown in there — in place, and
    /// geometrically inside its allocation when a frame does not fit, so a
    /// deepening recursion grows it a logarithmic number of times per slice
    /// — and is cut back to `sp` on the way out, so a call allocates nothing
    /// and rewrites only the callee's fresh locals. Per instruction the
    /// order is: the `StopAtMsp` check (empty operands at an MSP row), the
    /// breakpoint check, the row fetch, the instruction, its charge of
    /// `cost * per_mille / 1000`, then the budget — so at least one
    /// instruction always runs, and a call or return that exhausts the
    /// budget ends the slice after it.
    ///
    /// **What leaves it.** Any other instruction, and any anomaly in a
    /// window instruction, call or return (see [`Exit`]; a cold call site, a
    /// bad arity, the root frame's return, a pc outside the method, a thread
    /// with no window), has mutated nothing and was not charged: the loop
    /// writes `pc`, `sp` and the meters back — it does on every way out,
    /// errors included; the engine reads both meters after a failed slice —
    /// and `run` sends that one instruction through the entry [`Vm::step`]
    /// uses, charged once, which builds whatever error or guest exception
    /// it deserves, then calls the loop again. An anomaly therefore costs
    /// one extra dispatch, and no check is skipped.
    ///
    /// **The mode is fixed at compile time.** The two per-instruction
    /// tests — `StopAtMsp`, and the breakpoint list — exist only in the
    /// `WATCHED` instantiation, which `run` picks once per call when the
    /// mode asks for safe points or a breakpoint is armed for `tid` (fixed
    /// for the slice: instructions do not arm breakpoints, and a tripped
    /// one ends the slice). Breakpoints are per thread, so a tenant
    /// restoring through the handler protocol does not slow the threads
    /// that share its node; and the loop every other slice runs keeps
    /// nothing live across its dispatch but its own state.
    ///
    /// **Fused runs, unwatched only.** The unwatched loop retires a row's
    /// [`Fused`](crate::fastpath::Fused) run — 2–4 window instructions of
    /// unscaled cost 1 — in one dispatch when no constituent could end the
    /// slice (`meter + k·⌊per_mille/1000⌋ < until_ns`) and every check
    /// they would make passes ([`fused_op`]), charging and counting exactly
    /// `k`; otherwise the row runs alone. A slice therefore never ends
    /// inside a fused dispatch, and nothing a slice boundary exposes tells
    /// the two apart; the watched loop, `step` and the full path never read
    /// a fused form.
    pub fn run(
        &mut self,
        tid: usize,
        budget_ns: u64,
        mode: RunMode,
    ) -> VmResult<(StepOutcome, u64)> {
        if let Some(out) = self.settled(tid)? {
            return Ok((out, 0));
        }
        self.heap.mint_for(self.threads[slot_of(tid)].origin);
        let meter0 = self.meter_ns;
        let slice = Slice {
            per_mille: self.cost_per_mille(tid),
            until_ns: meter0.saturating_add(budget_ns),
            stop_at_msp: mode == RunMode::StopAtMsp,
            tid,
        };
        // Another thread's breakpoints are not looked at.
        let own_armed = self.breakpoints.iter().any(|b| b.0 == tid);
        let watched = slice.stop_at_msp || own_armed;
        let result = loop {
            let t = &mut self.threads[slot_of(tid)];
            let armed: &[Breakpoint] = if own_armed { &self.breakpoints } else { &[] };
            let meters = (&mut self.meter_ns, &mut self.instr_count);
            let stop = if watched {
                Self::window_loop::<true>(&self.classes, t, &self.heap, armed, &slice, meters)
            } else {
                Self::window_loop::<false>(&self.classes, t, &self.heap, armed, &slice, meters)
            };
            match stop {
                Stop::Budget => break Ok(StepOutcome::Continue),
                Stop::AtMsp(pc) => break Ok(StepOutcome::AtMsp { pc }),
                Stop::Breakpoint(at) => break Ok(self.trip_breakpoint(at)),
                Stop::Exit => {}
            }
            let top = self.top_window(tid);
            let flow = top.and_then(|top| self.exec_charged(tid, top));
            match flow {
                Err(e) => break Err(e),
                Ok(Flow::Leave) => break Ok(self.stopped(tid)),
                Ok(Flow::Next) if self.meter_ns >= slice.until_ns => {
                    break Ok(StepOutcome::Continue)
                }
                Ok(Flow::Next) => {}
            }
        };
        result.map(|out| (out, self.meter_ns - meter0))
    }

    /// [`Vm::run`]'s loop (see there), on the VM's parts: it takes the
    /// thread, not the VM, so that its hot state — the window, the current
    /// method's rows, the meters — is all the register allocator has to
    /// place. Reads the meters on entry and writes them, the top frame's
    /// `pc` and the stack's length (`sp`) on the way out; between the two
    /// the stack `Vec` may run longer than `sp` (spare room, stale values of
    /// returned frames) and the top `Frame`'s `pc` is stale.
    #[inline(never)]
    fn window_loop<const WATCHED: bool>(
        classes: &[LoadedClass],
        t: &mut VmThread,
        heap: &Heap,
        armed: &[Breakpoint],
        slice: &Slice,
        (meter_ns, instr_count): (&mut u64, &mut u64),
    ) -> Stop {
        let VmThread {
            frames,
            stack,
            max_height,
            seg_frames,
            ..
        } = t;
        let Some(mut top) = Top::of(classes, frames, stack.len()) else {
            return Stop::Exit;
        };
        let (per_mille, until_ns) = (slice.per_mille, slice.until_ns);
        // What one instruction of unscaled cost 1 charges.
        let per_unit = per_mille / 1000;
        let (mut meter, mut retired) = (*meter_ns, *instr_count);
        // What the stack has to hold for the move at hand: first the top
        // frame's own window, exactly.
        let mut needed = top.floor + top.method.max_stack as usize;
        let stop = 'sized: loop {
            if stack.len() < needed {
                stack.resize(needed, Value::Int(0));
            }
            let full = stack.as_mut_slice();
            let short = 'frame: loop {
                // Open the window on `top`. (Operands that end below the
                // locals are nobody's window.)
                if top.sp < top.floor {
                    break 'sized Stop::Exit;
                }
                let Top {
                    base,
                    floor,
                    method,
                    ..
                } = top;
                let rows = method.rows.as_slice();
                let mut w = Window {
                    stack: &mut full[base..],
                    sp: top.sp - base,
                    pc: top.pc,
                    floor: floor - base,
                    heap,
                };
                let refused = loop {
                    let row = rows.get(w.pc as usize);
                    if WATCHED {
                        if slice.stop_at_msp && w.sp == w.floor && row.is_some_and(|r| r.msp) {
                            break Err(Stop::AtMsp(w.pc));
                        }
                        let here = (slice.tid, top.ci, top.mi, w.pc);
                        if let Some(at) = breakpoint_at(armed, here) {
                            break Err(Stop::Breakpoint(at));
                        }
                    }
                    let Some(row) = row else {
                        break Err(Stop::Exit);
                    };
                    // A fused run, when no constituent would end the slice
                    // and every one would retire: the charge and count of
                    // all of them at once. Otherwise the row runs alone.
                    if let (false, Some(run)) = (WATCHED, row.fused) {
                        let cost = run.span() * per_unit;
                        if meter + cost < until_ns && fused_op(&mut w, run) {
                            meter += cost;
                            retired += run.span();
                            continue;
                        }
                    }
                    let cost = u64::from(row.cost) * per_mille / 1000;
                    if window_op(&mut w, &row.instr).is_err() {
                        break Ok((row.instr, cost));
                    }
                    meter += cost;
                    retired += 1;
                    if meter >= until_ns {
                        break Err(Stop::Budget);
                    }
                };
                // Close it.
                top.pc = w.pc;
                top.sp = base + w.sp;
                let (instr, cost) = match refused {
                    Ok(refused) => refused,
                    Err(stop) => break 'sized stop,
                };
                // A warm static call or a return to a caller only moves
                // the window; anything unusual about one leaves the thread
                // as it was, for the full path to judge. (Why `window_op`
                // refused does not matter here: the full path asks it
                // again.)
                let moved = match instr {
                    Instr::InvokeStatic(_, _, nargs) => {
                        let cell = method.ics[top.pc as usize];
                        if !cell.is_filled() {
                            break 'sized Stop::Exit;
                        }
                        let (ci, mi) = (cell.a as usize, cell.b as usize);
                        let callee = (ci, mi, &classes[ci].linked[mi]);
                        Self::push_callee_frame(frames, full, max_height, &top, callee, nargs)
                    }
                    Instr::Ret => Self::pop_frame(classes, frames, full, seg_frames, None),
                    Instr::RetV if top.sp > floor => {
                        let v = full[top.sp - 1];
                        Self::pop_frame(classes, frames, full, seg_frames, Some(v))
                    }
                    _ => break 'sized Stop::Exit,
                };
                match moved {
                    Ok(new_top) => top = new_top,
                    Err(Refusal::NoRoom(needed)) => break 'frame needed,
                    Err(_) => break 'sized Stop::Exit,
                }
                meter += cost;
                retired += 1;
                if meter >= until_ns {
                    break 'sized Stop::Budget;
                }
            };
            // The frame that would become the top does not fit: grow in
            // place — doubling, but inside the allocation unless the frame
            // itself needs more — and retry the same, uncharged instruction.
            needed = short.max((2 * stack.len()).min(stack.capacity()));
        };
        stack.truncate(top.sp);
        if let Some(f) = frames.last_mut() {
            f.pc = top.pc;
        }
        (*meter_ns, *instr_count) = (meter, retired);
        stop
    }

    /// If thread `tid` is runnable and its top frame sits at a
    /// migration-safe point, return that pc.
    pub fn at_msp(&self, tid: usize) -> VmResult<Option<u32>> {
        let t = self.thread(tid)?;
        if !t.is_runnable() {
            return Ok(None);
        }
        let f = t.top().ok_or_else(|| VmError::BadThread(tid))?;
        let summary = &self.classes[f.class_idx].summaries[f.method_idx];
        Ok((t.stack.len() == f.floor() && summary.is_msp(f.pc)).then_some(f.pc))
    }

    /// Convenience driver for single-VM execution: spawns `class.method`,
    /// runs to completion, answering host calls with `host`.
    pub fn run_to_completion_with(
        &mut self,
        class: &str,
        method: &str,
        args: &[Value],
        mut host: impl FnMut(&str, &[Value], &mut Vm) -> VmResult<Value>,
    ) -> VmResult<Option<Value>> {
        let tid = self.spawn(class, method, args)?;
        loop {
            let (out, _) = self.run(tid, u64::MAX, RunMode::Normal)?;
            match out {
                StepOutcome::Returned(v) => return Ok(v),
                StepOutcome::HostCall { name, args } => {
                    let v = host(&name, &args, self)?;
                    self.resume_host(tid, v)?;
                }
                StepOutcome::Unhandled(e) => {
                    return Err(VmError::UnhandledException {
                        kind: e.kind,
                        message: e.message,
                    })
                }
                StepOutcome::ObjectFault(_) => {
                    // In a single VM there is no home node: the null was real.
                    self.fail_fault_app_npe(tid)?;
                }
                StepOutcome::ClassMiss(name) => {
                    return Err(VmError::ClassNotFound(name));
                }
                StepOutcome::Breakpoint { .. } | StepOutcome::AtMsp { .. } => {
                    // No breakpoints/migration in this driver; keep running.
                }
                StepOutcome::Continue => {}
            }
        }
    }

    /// As [`Vm::run_to_completion_with`] but failing on any host call.
    pub fn run_to_completion(
        &mut self,
        class: &str,
        method: &str,
        args: &[Value],
    ) -> VmResult<Option<Value>> {
        self.run_to_completion_with(class, method, args, |name, _, _| {
            Err(VmError::UnknownIntrinsic(name.to_owned()))
        })
    }

    // ------------------------------------------------------------------
    // Park/resume protocol
    // ------------------------------------------------------------------

    /// Resume a thread parked on [`ParkReason::HostCall`], pushing `value`
    /// as the intrinsic result.
    pub fn resume_host(&mut self, tid: usize, value: Value) -> VmResult<()> {
        let t = self.thread_mut(tid)?;
        match &t.state {
            ThreadState::Parked(ParkReason::HostCall { .. }) => {}
            _ => return Err(VmError::ThreadParked(tid)),
        }
        t.top_mut().ok_or_else(|| VmError::BadThread(tid))?.pc += 1;
        t.stack.push(value);
        t.state = ThreadState::Runnable;
        Ok(())
    }

    /// Resume a thread parked on [`ParkReason::ClassMiss`] after the class
    /// has been loaded; the faulting instruction re-executes.
    pub fn resume_class_loaded(&mut self, tid: usize) -> VmResult<()> {
        let t = self.thread_mut(tid)?;
        match &t.state {
            ThreadState::Parked(ParkReason::ClassMiss(_)) => {}
            _ => return Err(VmError::ThreadParked(tid)),
        }
        t.state = ThreadState::Runnable;
        Ok(())
    }

    /// The name `Arc` an instance of class `name` with `slots` slots,
    /// created by the runtime (not by `New`), should hold: the loaded
    /// class's canonical one, so the instance validates at receiver-keyed
    /// inline-cache sites by pointer like any other; a name of its own only
    /// for a class not loaded here. An instance of a loaded class whose
    /// slot count is not the class's layout is a forged or corrupt frame:
    /// `VmError::Decode`.
    pub fn instance_class(&mut self, name: &str, slots: usize) -> VmResult<Arc<str>> {
        let (classes, index) = (&self.classes, &self.class_index);
        instance_class(classes, index, &mut self.last_fetched_class, name, slots)
    }

    /// Install the object frame `frame` (see [`crate::wire`], "Objects"),
    /// fetched from node `origin`, as a cached copy in this VM's heap. An
    /// instance shares its loaded class's canonical name `Arc` — as if
    /// `New` had made it here — so its first field access or virtual call
    /// at a warm site is an inline-cache hit. A frame that fails to decode,
    /// an instance that does not have its loaded class's slot count, and a
    /// refresh that would change a cached copy's shape are refused with the
    /// heap untouched.
    pub fn install_fetched(&mut self, origin: OriginId, frame: &[u8]) -> VmResult<ObjId> {
        let (classes, index, last) = (
            &self.classes,
            &self.class_index,
            &mut self.last_fetched_class,
        );
        crate::wire::install_object_frame(&mut self.heap, origin, frame, |name, slots| {
            instance_class(classes, index, last, name, slots)
        })
    }

    /// Resume a thread parked on an object fault by installing a fetched
    /// object copy. `local_id` must already be in this VM's heap with its
    /// home recorded; the pending fault's binding is applied and the
    /// faulting `Bring*` instruction completes.
    pub fn resume_fetched(&mut self, tid: usize, local_id: ObjId) -> VmResult<()> {
        let pending = {
            let t = self.thread_mut(tid)?;
            match &t.state {
                ThreadState::Parked(ParkReason::ObjectFault(_)) => {}
                _ => return Err(VmError::ThreadParked(tid)),
            }
            let none = || VmError::RestoreProtocol("resume_fetched without pending fault");
            t.pending_fault.take().ok_or_else(none)?
        };
        self.apply_bind(tid, pending.bind, local_id)?;
        let t = &mut self.threads[slot_of(tid)];
        t.state = ThreadState::Runnable;
        self.advance_top(tid) // past the Bring* (next is the retry Goto)
    }

    /// Advance the top frame's pc by one.
    fn advance_top(&mut self, tid: usize) -> VmResult<()> {
        let f = self.threads[slot_of(tid)].top_mut();
        f.ok_or_else(|| VmError::BadThread(tid))?.pc += 1;
        Ok(())
    }

    /// Bind local `slot` of thread `tid`'s top frame to `v`.
    fn set_top_local(&mut self, tid: usize, slot: u16, v: Value) -> VmResult<()> {
        let t = &mut self.threads[slot_of(tid)];
        let f = t.frames.last().ok_or_else(|| VmError::BadThread(tid))?;
        if slot >= f.nlocals {
            return Err(VmError::BadLocalSlot(slot));
        }
        let at = f.base + slot as usize;
        t.stack[at] = v;
        Ok(())
    }

    fn apply_bind(&mut self, tid: usize, bind: FaultBind, local_id: ObjId) -> VmResult<()> {
        match bind {
            FaultBind::Local { slot } => self.set_top_local(tid, slot, Value::Ref(local_id))?,
            FaultBind::Field { base, field_idx } => {
                let mut obj = self.heap.get_mut(base)?;
                let slot = match obj.kind {
                    ObjKind::Obj { .. } => obj.slots_mut().get_mut(field_idx),
                    _ => None,
                };
                *slot.ok_or_else(|| VmError::BadRef(base))? = Value::Ref(local_id);
            }
            FaultBind::StaticTo {
                class_idx,
                static_idx,
                dest_slot,
            } => {
                self.classes[class_idx].statics[static_idx] = Value::Ref(local_id);
                self.set_top_local(tid, dest_slot, Value::Ref(local_id))?;
            }
            FaultBind::ElemTo {
                base,
                index,
                dest_slot,
            } => {
                self.heap.arr_set(base, index, Value::Ref(local_id))?;
                // arr_set marks dirty, but installing a fetched elem is not a
                // guest write; undo the dirty mark.
                self.heap.get_mut(base)?.dirty = false;
                self.set_top_local(tid, dest_slot, Value::Ref(local_id))?;
            }
            FaultBind::Stub => {
                // The runtime filled the stub in place; nothing to bind.
            }
        }
        Ok(())
    }

    /// Fail a parked object fault: the home value was genuinely null, so
    /// deliver an application-level `NullPointerException` at the fault
    /// origin (skipping fault handlers).
    pub fn fail_fault_app_npe(&mut self, tid: usize) -> VmResult<()> {
        let t = self.thread_mut(tid)?;
        match &t.state {
            ThreadState::Parked(ParkReason::ObjectFault(_)) => {}
            _ => return Err(VmError::ThreadParked(tid)),
        }
        t.pending_fault = None;
        t.state = ThreadState::Runnable;
        self.app_npe(tid).map(|_| ())
    }

    // ------------------------------------------------------------------
    // Exception machinery
    // ------------------------------------------------------------------

    /// Throw a guest exception of `kind` into thread `tid` at its current
    /// pc. With `suppress_fault_handlers`, preprocessor-injected fault
    /// handler entries are skipped during dispatch (application-level NPE).
    ///
    /// The handler is found first (frames top-down): frames above it are
    /// popped, its operands emptied, and it is entered with the exception
    /// on its stack. Without one the thread faults, frames preserved. The
    /// exception object is made only when something can read it: a handler
    /// whose first instruction is `Pop` — every fault and restoration
    /// handler `sod-preprocess` injects — gets a placeholder, and a fault
    /// takes the message. Either way the heap charges it as allocated.
    pub fn throw_into(
        &mut self,
        tid: usize,
        kind: ExKind,
        message: impl Into<Cow<'static, str>>,
        suppress_fault_handlers: bool,
    ) -> VmResult<()> {
        let message = message.into();
        let t = self.thread(tid)?;
        let handler = t.frames.iter().enumerate().rev().find_map(|(fi, frame)| {
            let m = &self.classes[frame.class_idx].def.methods[frame.method_idx];
            let e = m.ex_table.iter().find(|e| {
                e.covers(frame.pc)
                    && e.kind.catches(kind)
                    && !(suppress_fault_handlers && e.fault_handler)
            })?;
            let pops = m.code.get(e.target as usize) == Some(&Instr::Pop);
            Some((fi, e.target, pops))
        });
        let Some((fi, hpc, pops)) = handler else {
            self.heap.count_exception(&message);
            let t = &mut self.threads[slot_of(tid)];
            let pc = t.top().map(|f| f.pc).unwrap_or(0);
            let message = message.into_owned();
            t.state = ThreadState::Faulted(ExceptionInfo { kind, message, pc });
            return Ok(());
        };
        let ex = if pops {
            self.heap.count_exception(&message);
            Value::Int(0)
        } else {
            let origin = t.origin;
            Value::Ref(self.heap.mint_for(origin).alloc_exception(kind, message))
        };
        let t = &mut self.threads[slot_of(tid)];
        // Record the fault origin if we are entering a fault handler for an
        // NPE: RethrowAppNpe needs it.
        if kind == ExKind::NullPointer {
            t.npe_origin_pc = Some(t.frames[fi].pc);
        }
        t.truncate_frames(fi + 1);
        t.clear_operands();
        t.stack.push(ex);
        t.frames[fi].pc = hpc;
        Ok(())
    }

    /// Deliver an application-level NPE at the recorded fault origin,
    /// skipping object-fault handlers (the paper's "another null pointer
    /// exception ... from the application level").
    fn app_npe(&mut self, tid: usize) -> VmResult<Flow> {
        let origin = self.threads[slot_of(tid)].npe_origin_pc.take();
        if let Some(opc) = origin {
            if let Some(f) = self.threads[slot_of(tid)].top_mut() {
                f.pc = opc;
            }
        }
        self.throw_into(tid, ExKind::NullPointer, "null (application level)", true)?;
        Ok(self.thrown(tid))
    }

    /// Where a just-thrown exception left thread `tid`: in a handler frame
    /// (possibly a lower one), or faulted.
    fn thrown(&self, tid: usize) -> Flow {
        match &self.threads[slot_of(tid)].state {
            ThreadState::Faulted(_) => Flow::Leave,
            _ => Flow::Next,
        }
    }

    /// Helper used by instruction execution: throw and translate into
    /// where control goes next.
    #[cold]
    fn throw_and_outcome(
        &mut self,
        tid: usize,
        kind: ExKind,
        message: impl Into<Cow<'static, str>>,
    ) -> VmResult<Flow> {
        self.throw_into(tid, kind, message, false)?;
        Ok(self.thrown(tid))
    }

    // ------------------------------------------------------------------
    // Allocation with memory budget
    // ------------------------------------------------------------------

    /// Charge `tid` for allocating `bytes`, or refuse (`false`, nothing
    /// charged) when that would exceed the heap budget.
    fn charge_alloc(&mut self, tid: usize, bytes: u64) -> bool {
        let fits = self
            .mem_limit
            .is_none_or(|l| self.heap.used_bytes() + bytes <= l);
        if fits {
            self.charge(tid, alloc_cost(bytes));
        }
        fits
    }

    // ------------------------------------------------------------------
    // Instruction execution
    // ------------------------------------------------------------------

    /// The full path: execute `instr`, already charged and counted, at `pc`
    /// of thread `tid`'s top frame — method `mi` of class `ci`, locals at
    /// `stack[base..floor]`, operands above `floor`. Compiled once, called
    /// from [`Vm::step`] and from [`Vm::run`] for whatever its window loop
    /// does not retire.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    #[inline(never)]
    fn exec_instr(
        &mut self,
        tid: usize,
        ci: usize,
        mi: usize,
        pc: u32,
        base: usize,
        floor: usize,
        instr: Instr,
    ) -> VmResult<Flow> {
        use Instr::*;

        macro_rules! stack {
            () => {
                self.threads[slot_of(tid)].stack
            };
        }
        macro_rules! pop {
            () => {{
                let stack = &mut stack!();
                if stack.len() <= floor {
                    return Err(VmError::StackUnderflow);
                }
                stack.pop().expect("operands above the floor")
            }};
        }
        macro_rules! push {
            ($v:expr) => {{
                let v = $v;
                stack!().push(v);
            }};
        }
        macro_rules! jump {
            ($t:expr) => {{
                let t = $t;
                self.threads[slot_of(tid)]
                    .frames
                    .last_mut()
                    .expect("frame")
                    .pc = t;
                Ok(Flow::Next)
            }};
        }
        macro_rules! advance {
            () => {
                jump!(pc + 1)
            };
        }
        macro_rules! npe {
            () => {
                return self.throw_and_outcome(tid, ExKind::NullPointer, "null dereference")
            };
        }
        macro_rules! static_site {
            ($cidx:expr, $nidx:expr, $method:expr) => {
                match self.static_site(ci, mi, pc, $cidx, $nidx, $method)? {
                    Some(site) => site,
                    // A missing class parks the thread and is never
                    // cached; the instruction re-executes once it loads.
                    None => {
                        let cname = self.classes[ci].def.pool_str($cidx)?.to_owned();
                        return self.park_class_miss(tid, cname);
                    }
                }
            };
        }

        match instr {
            PushStr(idx) => {
                // IC: `a` caches the interned ObjId for this site. Interning
                // is VM-global and immutable once assigned, so a filled cell
                // is valid forever.
                let cell = self.ic(ci, mi, pc);
                let id = if cell.is_filled() {
                    cell.a
                } else {
                    let s = self.classes[ci].def.pool_str(idx)?;
                    let id = match self.interned.get(s) {
                        Some(&id) => id,
                        None => {
                            let id = self.heap.alloc_str(s);
                            self.interned.insert(s.to_owned(), id);
                            id
                        }
                    };
                    self.fill_ic(ci, mi, pc, id as usize, 0);
                    id
                };
                push!(Value::Ref(id));
                advance!()
            }
            Switch(sidx) => {
                let key = pop!().as_int()?;
                let table = self.classes[ci].def.methods[mi].switches.get(sidx as usize);
                jump!(table
                    .ok_or_else(|| VmError::BadPoolIndex(sidx))?
                    .lookup(key))
            }
            New(cidx) => {
                // IC: `a` caches the resolved class index. The class table is
                // append-only, so a filled cell never needs revalidation; a
                // missing class parks and is never cached.
                let cell = self.ic(ci, mi, pc);
                let target_ci = if cell.is_filled() {
                    cell.a as usize
                } else {
                    let cname = self.classes[ci].def.pool_str(cidx)?;
                    let Some(tci) = self.class_idx(cname) else {
                        let cname = cname.to_owned();
                        return self.park_class_miss(tid, cname);
                    };
                    self.fill_ic(ci, mi, pc, tci, 0);
                    tci
                };
                let slots = self.classes[target_ci].instance_slots();
                let bytes = 16 + slots as u64 * Value::SLOT_BYTES;
                if !self.charge_alloc(tid, bytes) {
                    return self.throw_and_outcome(
                        tid,
                        ExKind::OutOfMemory,
                        "heap budget exceeded",
                    );
                }
                // The instance shares the loaded class's canonical name Arc
                // (no string copy per allocation, and receiver-keyed caches
                // validate it with a pointer comparison), and its defaults
                // are written straight into the heap's slot arena.
                let class = &self.classes[target_ci];
                let defaults = class
                    .def
                    .instance_fields()
                    .map(|(_, f)| Value::default_for(f.ty));
                let id = self.heap.alloc_obj(class.name_arc.clone(), defaults)?;
                push!(Value::Ref(id));
                advance!()
            }
            GetField(fidx) => {
                // IC: `a` = receiver class index, `b` = field slot, valid
                // when the receiver's class Arc is pointer-equal to the
                // cached class's canonical name.
                let cell = self.ic(ci, mi, pc);
                if !cell.is_filled() {
                    // Validate the pool index before popping; a filled cell
                    // proves a prior successful resolution of this very
                    // operand.
                    self.classes[ci].def.pool_str(fidx)?;
                }
                let base = pop!();
                let Value::Ref(id) = base else { npe!() };
                // A slot past the instance's own is `BadRef`: a copy fetched
                // before its class loaded here may not have the layout.
                let bad = || VmError::BadRef(id);
                if cell.is_filled() {
                    let (obj, fields) = self.heap.view(id)?;
                    if let ObjKind::Obj { class, .. } = &obj.kind {
                        if Arc::ptr_eq(class, &self.classes[cell.a as usize].name_arc) {
                            let v = *fields.get(cell.b as usize).ok_or_else(bad)?;
                            push!(v);
                            return advance!();
                        }
                    }
                }
                let (obj, fields) = self.heap.view(id)?;
                let ObjKind::Obj { .. } = obj.kind else {
                    return Err(VmError::TypeMismatch {
                        expected: "object",
                        found: "array/string",
                    });
                };
                let (target_ci, fi) = self.resolve_field(ci, fidx, id)?;
                let v = *fields.get(fi).ok_or_else(bad)?;
                self.fill_receiver_ic(ci, mi, pc, target_ci, fi, id)?;
                push!(v);
                advance!()
            }
            PutField(fidx) => {
                // IC layout as GetField: receiver class index + field slot.
                let cell = self.ic(ci, mi, pc);
                if !cell.is_filled() {
                    self.classes[ci].def.pool_str(fidx)?;
                }
                let v = pop!();
                let base = pop!();
                let Value::Ref(id) = base else { npe!() };
                // A slot past the instance's own is `BadRef`, as in
                // `GetField`, and nothing is written.
                let bad = || VmError::BadRef(id);
                if cell.is_filled() {
                    let mut obj = self.heap.get_mut(id)?;
                    let warm = &self.classes[cell.a as usize].name_arc;
                    if matches!(&obj.kind, ObjKind::Obj { class, .. } if Arc::ptr_eq(class, warm)) {
                        *obj.slots_mut().get_mut(cell.b as usize).ok_or_else(bad)? = v;
                        obj.dirty = true;
                        return advance!();
                    }
                }
                let (target_ci, fi) = self.resolve_field(ci, fidx, id)?;
                {
                    let mut obj = self.heap.get_mut(id)?;
                    let slot = match obj.kind {
                        ObjKind::Obj { .. } => obj.slots_mut().get_mut(fi),
                        _ => None,
                    };
                    *slot.ok_or_else(bad)? = v;
                    obj.dirty = true;
                }
                self.fill_receiver_ic(ci, mi, pc, target_ci, fi, id)?;
                advance!()
            }
            GetStatic(cidx, fidx) => {
                let (target_ci, fi) = static_site!(cidx, fidx, false);
                let v = self.classes[target_ci].statics[fi];
                push!(v);
                advance!()
            }
            PutStatic(cidx, fidx) => {
                // Resolved before the pop, so a class-miss park leaves the
                // operand stack exactly as the re-execution needs it. The
                // value is there to pop afterwards: the verifier rejects any
                // pc whose stack depth is below `Instr::pops`
                // (`analysis::method_summary`, "stack underflow").
                let (target_ci, fi) = static_site!(cidx, fidx, false);
                let v = pop!();
                self.classes[target_ci].statics[fi] = v;
                advance!()
            }
            NewArr => {
                let len = pop!().as_int()?;
                if len < 0 {
                    return self.throw_and_outcome(tid, ExKind::ArrayBounds, "negative length");
                }
                let bytes = 16 + len as u64 * Value::SLOT_BYTES;
                if !self.charge_alloc(tid, bytes) {
                    return self.throw_and_outcome(
                        tid,
                        ExKind::OutOfMemory,
                        "heap budget exceeded",
                    );
                }
                push!(Value::Ref(self.heap.alloc_arr(len as usize)?));
                advance!()
            }
            ALoad => {
                let idx = pop!().as_int()?;
                let base = pop!();
                let Value::Ref(id) = base else { npe!() };
                match self.heap.arr_get(id, idx)? {
                    Some(v) => {
                        push!(v);
                        advance!()
                    }
                    None => self.throw_and_outcome(
                        tid,
                        ExKind::ArrayBounds,
                        format!("index {idx} out of bounds"),
                    ),
                }
            }
            AStore => {
                let v = pop!();
                let idx = pop!().as_int()?;
                let base = pop!();
                let Value::Ref(id) = base else { npe!() };
                if self.heap.arr_set(id, idx, v)? {
                    advance!()
                } else {
                    self.throw_and_outcome(
                        tid,
                        ExKind::ArrayBounds,
                        format!("index {idx} out of bounds"),
                    )
                }
            }
            ArrLen => {
                let base = pop!();
                let Value::Ref(id) = base else { npe!() };
                let len = self.heap.arr_len(id)?;
                push!(Value::Int(len));
                advance!()
            }
            InvokeStatic(cidx, midx, nargs) => {
                let (target_ci, target_mi) = static_site!(cidx, midx, true);
                self.enter_callee(tid, target_ci, target_mi, nargs)
            }
            InvokeVirtual(midx, nargs) => {
                // IC: `a` = receiver class index, `b` = method index,
                // validated by pointer against the receiver's class Arc
                // (monomorphic sites hit; a new receiver class re-resolves
                // and re-fills).
                let cell = self.ic(ci, mi, pc);
                if !cell.is_filled() {
                    self.classes[ci].def.pool_str(midx)?;
                }
                // The receiver is arg 0, and there is one: the verifier
                // refuses a virtual call with `nargs == 0`.
                let recv = {
                    let stack = &stack!();
                    if stack.len() - floor < nargs as usize {
                        return Err(VmError::StackUnderflow);
                    }
                    stack[stack.len() - nargs as usize]
                };
                let Value::Ref(id) = recv else { npe!() };
                if cell.is_filled() {
                    if let ObjKind::Obj { class, .. } = &self.heap.get(id)?.kind {
                        if Arc::ptr_eq(class, &self.classes[cell.a as usize].name_arc) {
                            return self.enter_callee(tid, cell.a as usize, cell.b as usize, nargs);
                        }
                    }
                }
                // Strings, arrays and unshipped classes park by
                // (pseudo-)class name.
                let cname = self.heap.get(id)?.class_name();
                let Some(target_ci) = self.class_idx(cname) else {
                    let cname = cname.to_owned();
                    return self.park_class_miss(tid, cname);
                };
                let mname = self.classes[ci].def.pool_str(midx)?;
                let target_mi = self.classes[target_ci].method_idx(mname).ok_or_else(|| {
                    VmError::MethodNotFound {
                        class: cname.to_owned(),
                        method: mname.to_owned(),
                    }
                })?;
                self.fill_receiver_ic(ci, mi, pc, target_ci, target_mi, id)?;
                self.enter_callee(tid, target_ci, target_mi, nargs)
            }
            Ret => Ok(self.leave_frame(tid, None)),
            RetV => {
                let v = pop!();
                Ok(self.leave_frame(tid, Some(v)))
            }
            ThrowKind(kind) => self.throw_and_outcome(tid, kind, "thrown by bytecode"),
            Throw => {
                let exv = pop!();
                let Value::Ref(id) = exv else { npe!() };
                let (kind, message) = match &self.heap.get(id)?.kind {
                    ObjKind::Exception { kind, message } => (*kind, message.clone()),
                    _ => (ExKind::User(0), Cow::Borrowed("user object thrown")),
                };
                self.throw_and_outcome(tid, kind, message)
            }
            NativeCall(nidx, nargs) => {
                // The intrinsic name is borrowed straight from the constant
                // pool and the arguments are evaluated where they sit on the
                // value stack (`classes`, `threads` and `heap`/`stdout` are
                // disjoint fields), then popped; owned copies of either are
                // made only on the cold host-park path.
                let name = self.classes[ci].def.pool_str(nidx)?;
                let stack = &mut self.threads[slot_of(tid)].stack;
                if stack.len() - floor < nargs as usize {
                    return Err(VmError::StackUnderflow);
                }
                let args_at = stack.len() - nargs as usize;
                let result =
                    intrinsics::eval(name, &stack[args_at..], &mut self.heap, &mut self.stdout);
                let host_args = match result {
                    Ok(IntrinsicEval::Host) => stack[args_at..].to_vec(),
                    _ => Vec::new(),
                };
                stack.truncate(args_at);
                match result {
                    Err(VmError::NullDeref) => {
                        // A null (or unfetched) reference reached a pure
                        // intrinsic: surface as a guest NPE.
                        self.throw_and_outcome(
                            tid,
                            ExKind::NullPointer,
                            "null argument to intrinsic",
                        )
                    }
                    Err(e) => Err(e),
                    Ok(IntrinsicEval::Done(v)) => {
                        push!(v);
                        advance!()
                    }
                    Ok(IntrinsicEval::Host) => {
                        let (name, args) = (name.to_owned(), host_args);
                        let t = &mut self.threads[slot_of(tid)];
                        t.host_calls = t.host_calls.wrapping_add(1);
                        t.state = ThreadState::Parked(ParkReason::HostCall { name, args });
                        Ok(Flow::Leave)
                    }
                }
            }
            ReadCaptured(slot) => {
                self.exec_protocol(tid, ci, Protocol::Captured { slot, push: true })
            }
            RestoreLocal(slot) => {
                self.exec_protocol(tid, ci, Protocol::Captured { slot, push: false })
            }
            ReadCapturedPc => self.exec_protocol(tid, ci, Protocol::CapturedPc),
            RethrowAppNpe => self.exec_protocol(tid, ci, Protocol::RethrowAppNpe),
            CheckStatus(depth) => self.exec_protocol(tid, ci, Protocol::CheckStatus(depth)),
            BringObjLocal(slot) => self.exec_protocol(tid, ci, Protocol::Local(slot)),
            BringObjField(b, f) => self.exec_protocol(tid, ci, Protocol::Field(b, f)),
            BringObjStaticTo(c, f, d) => self.exec_protocol(tid, ci, Protocol::StaticTo(c, f, d)),
            BringObjElemTo(b, i, d) => self.exec_protocol(tid, ci, Protocol::ElemTo(b, i, d)),
            // The window instructions (`Instr::is_window`): their one arm is
            // `window_op`.
            _ => self.exec_window(tid, pc, base, floor, instr),
        }
    }

    /// A window instruction on the full path: open a one-instruction window
    /// (one spare slot — no window instruction nets more than one push),
    /// run the same [`window_op`] the loop runs, and build the error or
    /// guest throw an [`Exit`] stands for.
    fn exec_window(
        &mut self,
        tid: usize,
        pc: u32,
        base: usize,
        floor: usize,
        instr: Instr,
    ) -> VmResult<Flow> {
        let t = &mut self.threads[slot_of(tid)];
        let sp = t.stack.len();
        if sp < floor {
            return Err(VmError::BadThread(tid));
        }
        t.stack.push(Value::Int(0));
        let mut w = Window {
            stack: &mut t.stack[base..],
            sp: sp - base,
            pc,
            floor: floor - base,
            heap: &self.heap,
        };
        let done = window_op(&mut w, &instr);
        let (sp, pc) = (base + w.sp, w.pc);
        t.stack.truncate(sp);
        match done {
            Ok(()) => {
                t.frames
                    .last_mut()
                    .ok_or_else(|| VmError::BadThread(tid))?
                    .pc = pc;
                Ok(Flow::Next)
            }
            Err(exit) => self.exit_error(tid, exit),
        }
    }

    /// What an [`Exit`] means, said in full: the only place a window
    /// anomaly becomes a `VmError` or a guest exception. The operands are
    /// still on the stack, which is how the types in a mismatch are named.
    #[cold]
    fn exit_error(&mut self, tid: usize, exit: Exit) -> VmResult<Flow> {
        Err(match exit {
            Exit::DivZero => {
                // The throw finds the two operands popped.
                let stack = &mut self.threads[slot_of(tid)].stack;
                stack.truncate(stack.len().saturating_sub(2));
                return self.throw_and_outcome(tid, ExKind::DivByZero, "integer division by zero");
            }
            Exit::BadSlot(slot) => VmError::BadLocalSlot(slot),
            Exit::Underflow => VmError::StackUnderflow,
            Exit::Type { expected, depth } => {
                let stack = &self.threads[slot_of(tid)].stack;
                let at = stack.len().checked_sub(1 + usize::from(depth));
                VmError::TypeMismatch {
                    expected: expected.name(),
                    found: at.map_or("nothing", |at| stack[at].type_name()),
                }
            }
            // Not from `exec_window`, which makes room for a push and gets
            // only window instructions: every other one has its own arm in
            // `exec_instr`.
            Exit::Full => VmError::StackOverflow,
        })
    }

    /// The inline-cache cell of the site at `(ci, mi, pc)`. Read
    /// unconditionally: a reference VM's cells simply never fill.
    #[inline]
    fn ic(&self, ci: usize, mi: usize, pc: u32) -> IcCell {
        self.classes[ci].linked[mi].ics[pc as usize]
    }

    /// The single inline-cache writer. A reference VM refuses to fill, so
    /// every one of its sites misses forever and falls through to by-name
    /// resolution. Returns whether the cell was written.
    #[inline]
    fn fill_ic(&mut self, ci: usize, mi: usize, pc: u32, a: usize, b: usize) -> bool {
        if self.reference {
            return false;
        }
        self.classes[ci].linked[mi].ics[pc as usize] = IcCell {
            a: a as u32,
            b: b as u32,
        };
        true
    }

    /// Fill a receiver-keyed site and canonicalize the receiver's class
    /// `Arc` (wire-installed objects arrive with a fresh one) so the next
    /// access at any receiver-keyed site is a pointer match.
    fn fill_receiver_ic(
        &mut self,
        ci: usize,
        mi: usize,
        pc: u32,
        target_ci: usize,
        member: usize,
        recv: ObjId,
    ) -> VmResult<()> {
        if self.fill_ic(ci, mi, pc, target_ci, member) {
            let canon = self.classes[target_ci].name_arc.clone();
            if let ObjKind::Obj { class, .. } = &mut self.heap.get_mut(recv)?.kind {
                *class = canon;
            }
        }
        Ok(())
    }

    /// Resolve the instance field named by `pool[fidx]` of class `ci`
    /// against the class of heap object `recv`: `(class index, field slot)`.
    fn resolve_field(&self, ci: usize, fidx: u16, recv: ObjId) -> VmResult<(usize, usize)> {
        let class = self.heap.get(recv)?.class_name();
        let target_ci = self
            .class_idx(class)
            .ok_or_else(|| VmError::ClassNotFound(class.to_owned()))?;
        let fname = self.classes[ci].def.pool_str(fidx)?;
        let fi = self.classes[target_ci]
            .instance_field_idx(fname)
            .ok_or_else(|| VmError::FieldNotFound {
                class: class.to_owned(),
                field: fname.to_owned(),
            })?;
        Ok((target_ci, fi))
    }

    /// Resolve `pool[cidx].pool[nidx]` of class `ci` by name — a static
    /// field, or with `method` a method — to `(class index, member index)`;
    /// `None` when the class is not loaded.
    fn resolve_static(
        &self,
        ci: usize,
        cidx: u16,
        nidx: u16,
        method: bool,
    ) -> VmResult<Option<(usize, usize)>> {
        let def = &self.classes[ci].def;
        let (cname, member) = (def.pool_str(cidx)?, def.pool_str(nidx)?);
        let Some(target_ci) = self.class_idx(cname) else {
            return Ok(None);
        };
        let target = &self.classes[target_ci];
        let found = if method {
            target.method_idx(member)
        } else {
            target.static_field_idx(member)
        };
        match found {
            Some(i) => Ok(Some((target_ci, i))),
            None if method => Err(VmError::MethodNotFound {
                class: cname.to_owned(),
                method: member.to_owned(),
            }),
            None => Err(VmError::FieldNotFound {
                class: cname.to_owned(),
                field: member.to_owned(),
            }),
        }
    }

    /// A `GetStatic` / `PutStatic` / `InvokeStatic` site: `(class index,
    /// member index)` from the cell (`a`, `b`) on a hit — statics and
    /// static call targets never move once linked — else resolved by pool
    /// names and cached; `None` (never cached) when the class is not loaded.
    #[inline]
    fn static_site(
        &mut self,
        ci: usize,
        mi: usize,
        pc: u32,
        cidx: u16,
        nidx: u16,
        method: bool,
    ) -> VmResult<Option<(usize, usize)>> {
        let cell = self.ic(ci, mi, pc);
        if cell.is_filled() {
            return Ok(Some((cell.a as usize, cell.b as usize)));
        }
        let site = self.resolve_static(ci, cidx, nidx, method)?;
        if let Some((target_ci, member)) = site {
            self.fill_ic(ci, mi, pc, target_ci, member);
        }
        Ok(site)
    }

    /// The captured frame a restoration handler is rebuilding: the one
    /// under the thread's restore cursor.
    fn captured_frame(&self, tid: usize) -> VmResult<FrameRef<'_>> {
        let session = self.threads[slot_of(tid)].restore_session.as_deref();
        let session =
            session.ok_or_else(|| VmError::RestoreProtocol("captured-frame read, no session"))?;
        let frame = session.frames.get(session.cursor);
        frame.ok_or_else(|| VmError::RestoreProtocol("restore cursor out of range"))
    }

    /// The instructions only preprocessor-injected code executes: the
    /// restoration handlers' captured-frame reads, the object-fault
    /// handlers' `BringObj*` family, and the status-checking baseline's
    /// probe. Out of line so the hot match in [`Vm::exec_instr`] stays small.
    #[cold]
    #[inline(never)]
    fn exec_protocol(&mut self, tid: usize, ci: usize, instr: Protocol) -> VmResult<Flow> {
        use Protocol::*;

        let local = |vm: &Vm, slot: u16| -> VmResult<Value> {
            let t = &vm.threads[slot_of(tid)];
            let v = t.locals(t.frames.len() - 1).get(slot as usize).copied();
            v.ok_or_else(|| VmError::BadLocalSlot(slot))
        };
        let advance = |vm: &mut Vm| {
            vm.advance_top(tid)?;
            Ok(Flow::Next)
        };

        // A `BringObj*` yields the value in the slot it guards and where a
        // fetched copy would be bound; everything else completes here.
        let (current, bind) = match instr {
            Captured { slot, push } => {
                let v = self.captured_frame(tid)?.locals.get(slot as usize);
                let v = v
                    .ok_or_else(|| VmError::BadLocalSlot(slot))?
                    .to_nulled_value();
                if push {
                    self.threads[slot_of(tid)].stack.push(v);
                } else {
                    self.set_top_local(tid, slot, v)?;
                }
                return advance(self);
            }
            CapturedPc => {
                let cap_pc = self.captured_frame(tid)?.pc;
                let t = &mut self.threads[slot_of(tid)];
                t.stack.push(Value::Int(i64::from(cap_pc)));
                // A handler's last captured read. The top frame's ends the
                // restore, wherever a slice boundary fell inside it, and
                // the thread's hold on the captured values with it.
                let s = t.restore_session.as_ref();
                if s.is_some_and(|s| s.cursor + 1 == s.frames.len()) {
                    t.restore_session = None;
                }
                return advance(self);
            }
            RethrowAppNpe => return self.app_npe(tid),
            CheckStatus(depth) => {
                let t = &self.threads[slot_of(tid)];
                let operands = t.operands(t.frames.len() - 1);
                let pos = operands.len().checked_sub(1 + depth as usize);
                let pos = pos.ok_or_else(|| VmError::StackUnderflow)?;
                if let Value::Ref(id) = operands[pos] {
                    let obj = self.heap.get(id)?;
                    if obj.status == crate::heap::ObjStatus::Invalid {
                        let home = obj.home_id().ok_or_else(|| VmError::BadRef(id))?;
                        return self.park_fault(
                            tid,
                            ObjectQuery { home_id: home },
                            FaultBind::Stub,
                        );
                    }
                }
                return advance(self);
            }
            Local(slot) => (local(self, slot)?, FaultBind::Local { slot }),
            Field(base_slot, fidx) => {
                self.classes[ci].def.pool_str(fidx)?;
                let Value::Ref(base) = local(self, base_slot)? else {
                    // Base itself is null: handler chains fix the base first;
                    // reaching here means the handler chain is malformed.
                    return Err(VmError::RestoreProtocol("BringObjField on null base"));
                };
                let (_, field_idx) = self.resolve_field(ci, fidx, base)?;
                let (obj, fields) = self.heap.view(base)?;
                let current = match obj.kind {
                    ObjKind::Obj { .. } => fields.get(field_idx).copied(),
                    _ => None,
                };
                let current = current.ok_or_else(|| VmError::BadRef(base))?;
                (current, FaultBind::Field { base, field_idx })
            }
            StaticTo(cidx, fidx, dest_slot) => {
                let Some((class_idx, static_idx)) = self.resolve_static(ci, cidx, fidx, false)?
                else {
                    let cname = self.classes[ci].def.pool_str(cidx)?.to_owned();
                    return Err(VmError::ClassNotFound(cname));
                };
                (
                    self.classes[class_idx].statics[static_idx],
                    FaultBind::StaticTo {
                        class_idx,
                        static_idx,
                        dest_slot,
                    },
                )
            }
            ElemTo(base_slot, idx_slot, dest_slot) => {
                let base = local(self, base_slot)?;
                let index = local(self, idx_slot)?.as_int()?;
                let Value::Ref(base) = base else {
                    return Err(VmError::RestoreProtocol("BringObjElemTo on null base"));
                };
                let Some(current) = self.heap.arr_get(base, index)? else {
                    return self.throw_and_outcome(
                        tid,
                        ExKind::ArrayBounds,
                        format!("index {index} out of bounds"),
                    );
                };
                (
                    current,
                    FaultBind::ElemTo {
                        base,
                        index,
                        dest_slot,
                    },
                )
            }
        };
        match current {
            // Another fault already repaired this slot; retry.
            Value::Ref(_) => advance(self),
            Value::NulledRef(home) => self.park_fault(tid, ObjectQuery { home_id: home }, bind),
            // The null was computed by the guest: a genuine application
            // NPE, not an object miss.
            _ => self.app_npe(tid),
        }
    }

    fn park_fault(&mut self, tid: usize, query: ObjectQuery, bind: FaultBind) -> VmResult<Flow> {
        // A cached copy of the home object (e.g. installed by a prefetch)
        // satisfies the fault locally — no round trip.
        let origin = self.threads[slot_of(tid)].origin;
        if let Some(origin) = origin.filter(|_| !matches!(bind, FaultBind::Stub)) {
            if let Some(local) = self.heap.find_cached_from(origin, query.home_id) {
                self.apply_bind(tid, bind, local)?;
                self.advance_top(tid)?;
                return Ok(Flow::Next);
            }
        }
        let t = &mut self.threads[slot_of(tid)];
        t.state = ThreadState::Parked(ParkReason::ObjectFault(query));
        t.pending_fault = Some(PendingFault { query, bind });
        Ok(Flow::Leave)
    }

    #[cold]
    fn park_class_miss(&mut self, tid: usize, name: String) -> VmResult<Flow> {
        self.threads[slot_of(tid)].state = ThreadState::Parked(ParkReason::ClassMiss(name));
        Ok(Flow::Leave)
    }

    /// Enter `callee` (class index, method index, the method they name)
    /// from the frame `caller` with the top `nargs` of its operands as the
    /// arguments: the callee's window opens on them and its other locals
    /// are zeroed above. The caller's pc is parked at its Invoke. Refused —
    /// nothing has moved — unless the call is well-formed and the callee's
    /// whole window fits `full`, the thread's stack as the caller sees it.
    /// On the thread's parts, so the window loop and the full path make
    /// the same call.
    #[inline]
    fn push_callee_frame<'c>(
        frames: &mut Vec<Frame>,
        full: &mut [Value],
        max_height: &mut usize,
        caller: &Top<'_>,
        (ci, mi, method): (usize, usize, &'c LinkedMethod),
        nargs: u8,
    ) -> Result<Top<'c>, Refusal> {
        // Cross-class targets resolve at run time, so only here can a call
        // site's arity be held against the callee it actually reached.
        if method.nargs != u16::from(nargs) {
            return Err(Refusal::Arity);
        }
        if caller.sp < caller.floor + nargs as usize {
            return Err(Refusal::Underflow);
        }
        let base = caller.sp - nargs as usize;
        let floor = base + method.nlocals as usize;
        if floor + 2 * (frames.len() + 1) > MAX_STACK_SLOTS {
            return Err(Refusal::Overflow);
        }
        let needed = floor + method.max_stack as usize;
        if full.len() < needed {
            return Err(Refusal::NoRoom(needed));
        }
        // The callee's locals past its arguments (`nlocals >= nargs` is
        // verified at link time; an index that could panic here would put
        // this function past what LLVM inlines into the loop).
        if let Some(fresh) = full.get_mut(caller.sp..floor) {
            fresh.fill(Value::Int(0));
        }
        if let Some(parked) = frames.last_mut() {
            parked.pc = caller.pc;
        }
        frames.push(Frame {
            class_idx: ci,
            method_idx: mi,
            pc: 0,
            base,
            nlocals: method.nlocals,
            pinned: false,
        });
        *max_height = (*max_height).max(frames.len());
        Ok(Top {
            ci,
            mi,
            base,
            floor,
            pc: 0,
            sp: floor,
            method,
        })
    }

    /// The full path's call: [`Vm::push_callee_frame`] from the thread's
    /// top frame, with a refusal said as an error.
    fn enter_callee(
        &mut self,
        tid: usize,
        target_ci: usize,
        target_mi: usize,
        nargs: u8,
    ) -> VmResult<Flow> {
        let classes = self.classes.as_slice();
        let VmThread {
            frames,
            stack,
            max_height,
            ..
        } = &mut self.threads[slot_of(tid)];
        let callee = (target_ci, target_mi, &classes[target_ci].linked[target_mi]);
        let moved = Top::of(classes, frames, stack.len())
            .ok_or(Refusal::NoCaller)
            .and_then(|caller| {
                Self::with_room(stack, |full| {
                    Self::push_callee_frame(frames, full, max_height, &caller, callee, nargs)
                })
            });
        match moved {
            Ok(_) => Ok(Flow::Next),
            Err(Refusal::Arity) => {
                let class = &self.classes[target_ci].def;
                let m = &class.methods[target_mi];
                Err(VmError::ArityMismatch {
                    class: class.name.clone(),
                    method: m.name.clone(),
                    expected: m.nargs,
                    got: u16::from(nargs),
                })
            }
            Err(Refusal::Underflow) => Err(VmError::StackUnderflow),
            Err(Refusal::Overflow) => Err(VmError::StackOverflow),
            Err(Refusal::NoCaller | Refusal::NoRoom(_)) => Err(VmError::BadThread(tid)),
        }
    }

    /// Pop the top frame, delivering `retval` to its caller, whose pc —
    /// parked at its Invoke — advances. Refused — nothing has moved — when
    /// there is no caller, or when the return slot and the caller's whole
    /// window do not fit `full`, the thread's stack as the callee sees it.
    #[inline]
    fn pop_frame<'c>(
        classes: &'c [LoadedClass],
        frames: &mut Vec<Frame>,
        full: &mut [Value],
        seg_frames: &mut usize,
        retval: Option<Value>,
    ) -> Result<Top<'c>, Refusal> {
        let [.., caller, callee] = frames.as_mut_slice() else {
            return Err(Refusal::NoCaller);
        };
        // A frame's base is its first argument or, with none, the slot its
        // first local or operand would take: where the value goes, and
        // where the caller's operands end.
        let mut top = Top::at(classes, caller, callee.base);
        let window = top.floor + top.method.max_stack as usize;
        let needed = window.max(top.sp + usize::from(retval.is_some()));
        if full.len() < needed {
            return Err(Refusal::NoRoom(needed));
        }
        if let Some(v) = retval {
            full[top.sp] = v;
            top.sp += 1;
        }
        caller.pc += 1;
        top.pc = caller.pc;
        frames.pop();
        *seg_frames = (*seg_frames).min(frames.len());
        Ok(top)
    }

    /// The full path's return: to the caller, or out of the root frame,
    /// which finishes the thread.
    fn leave_frame(&mut self, tid: usize, retval: Option<Value>) -> Flow {
        let (classes, t) = (self.classes.as_slice(), &mut self.threads[slot_of(tid)]);
        let VmThread {
            frames,
            stack,
            seg_frames,
            ..
        } = t;
        let moved = Self::with_room(stack, |full| {
            Self::pop_frame(classes, frames, full, seg_frames, retval)
        });
        if moved.is_err() {
            // A finished thread never runs again: empty its stacks, and
            // keep their room for the next tenant of its slot (see
            // `Vm::release`).
            t.stack.clear();
            t.frames.clear();
            t.state = ThreadState::Finished(retval);
            return Flow::Leave;
        }
        Flow::Next
    }

    /// A frame move on the full path, where the stack `Vec` ends at `sp`:
    /// a move that finds no room is given exactly the room it asked for
    /// and made again, and the stack ends at the new top frame's `sp` (or,
    /// refused, where it did).
    fn with_room<'c>(
        stack: &mut Vec<Value>,
        mut make: impl FnMut(&mut [Value]) -> Result<Top<'c>, Refusal>,
    ) -> Result<Top<'c>, Refusal> {
        let sp = stack.len();
        let mut moved = make(stack);
        if let Err(Refusal::NoRoom(needed)) = moved {
            stack.resize(needed, Value::Int(0));
            moved = make(stack);
        }
        stack.truncate(moved.as_ref().map_or(sp, |top| top.sp));
        moved
    }

    /// Roll faulted thread `tid` back to the start of the faulting
    /// statement — the first pc of its top frame's source line, operands
    /// cleared — leaving it runnable for capture there; returns its height.
    /// Exception-driven offload does this before capturing (rearranged
    /// statements are single-effect, so re-executing the line is safe).
    pub fn rollback_to_line_start(&mut self, tid: usize) -> VmResult<usize> {
        let f = self.thread(tid)?.top();
        let f = f.ok_or_else(|| VmError::BadThread(tid))?;
        let m = &self.classes[f.class_idx].def.methods[f.method_idx];
        let line = m.line_of(f.pc);
        let mut start = f.pc;
        while start > 0 && m.line_of(start - 1) == line {
            start -= 1;
        }
        let t = self.thread_mut(tid)?;
        if let Some(f) = t.top_mut() {
            f.pc = start;
        }
        t.clear_operands();
        t.state = ThreadState::Runnable;
        Ok(t.frames.len())
    }

    /// The paper's `ForceEarlyReturn<type>`: pop the top frame of a
    /// *suspended* thread, delivering `retval` to the caller as if the
    /// method had returned. Used by the home node when a migrated segment
    /// completes remotely.
    pub fn force_early_return(&mut self, tid: usize, retval: Option<Value>) -> VmResult<()> {
        if self.thread(tid)?.frames.is_empty() {
            return Err(VmError::BadThread(tid));
        }
        if let Flow::Next = self.leave_frame(tid, retval) {
            self.threads[slot_of(tid)].state = ThreadState::Runnable;
        }
        Ok(())
    }
}

/// An armed breakpoint: `(tid, class_idx, method_idx, pc)`.
type Breakpoint = (usize, usize, usize, u32);

/// Where in the `armed` list a breakpoint for `at` sits. Checked before
/// that pc executes.
#[inline]
fn breakpoint_at(armed: &[Breakpoint], at: Breakpoint) -> Option<usize> {
    armed.iter().position(|&b| b == at)
}

/// Why `push_callee_frame` or `pop_frame` did not move the window.
enum Refusal {
    /// The site passes a different number of arguments than the callee
    /// declares.
    Arity,
    /// Fewer operands above the caller's floor than the site passes.
    Underflow,
    /// The callee's frame would grow the stack past [`MAX_STACK_SLOTS`].
    Overflow,
    /// The frame has no caller: a return from it finishes the thread.
    NoCaller,
    /// The frame that would become the top needs the stack this long.
    NoRoom(usize),
}

/// The frame a thread is running, as the window loop holds it and as a
/// call or a return hands it the next one.
struct Top<'c> {
    ci: usize,
    mi: usize,
    base: usize,
    /// One past the last local.
    floor: usize,
    pc: u32,
    /// One past the top operand.
    sp: usize,
    /// Method `mi` of class `ci`, linked.
    method: &'c LinkedMethod,
}

impl<'c> Top<'c> {
    /// Frame `f`, its operands ending at `sp`.
    #[inline]
    fn at(classes: &'c [LoadedClass], f: &Frame, sp: usize) -> Self {
        Top {
            ci: f.class_idx,
            mi: f.method_idx,
            base: f.base,
            floor: f.floor(),
            pc: f.pc,
            sp,
            method: &classes[f.class_idx].linked[f.method_idx],
        }
    }

    /// The top frame of `frames`, its operands ending at `sp`.
    #[inline]
    fn of(classes: &'c [LoadedClass], frames: &[Frame], sp: usize) -> Option<Self> {
        frames.last().map(|f| Top::at(classes, f, sp))
    }
}

/// What one [`Vm::run`] call fixes for its window loop.
struct Slice {
    /// The thread's cost multiplier ([`Vm::cost_per_mille`]).
    per_mille: u64,
    /// The `meter_ns` at which the budget is spent.
    until_ns: u64,
    stop_at_msp: bool,
    tid: usize,
}

/// Why [`Vm::run`]'s window loop stopped.
enum Stop {
    /// `StopAtMsp`: empty operands at this migration-safe pc.
    AtMsp(u32),
    /// A breakpoint armed for this thread (at this list position) names
    /// the pc.
    Breakpoint(usize),
    /// The slice's budget is spent.
    Budget,
    /// The instruction at the top frame's pc is not the loop's to retire
    /// (or there is no such instruction, or no such frame): nothing of it
    /// has happened or been charged.
    Exit,
}

/// What the full path left behind after one instruction.
#[derive(Clone, Copy)]
enum Flow {
    /// The thread is still runnable; its top frame says where.
    Next,
    /// The thread stopped being runnable; its state says how.
    Leave,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassDef, ExEntry, FieldDef, MethodDef};
    use crate::instr::Cmp;
    use crate::value::TypeOf;

    fn vm_with(classes: &[ClassDef]) -> Vm {
        load_into(Vm::new(), classes)
    }

    #[test]
    fn a_thread_fits_in_192_bytes() {
        // The const assertion beside `VmThread` already refuses to build
        // otherwise; this names the number in the test log and covers the
        // restore session the box hides.
        assert!(std::mem::size_of::<VmThread>() <= 192);
        assert!(std::mem::size_of::<RestoreSession>() > 32);
    }

    fn load_into(mut vm: Vm, classes: &[ClassDef]) -> Vm {
        for c in classes {
            vm.load_class(c).unwrap();
        }
        vm
    }

    fn main_class(code: Vec<Instr>, lines: Vec<u32>, extra_locals: u16) -> ClassDef {
        ClassDef::new("Main")
            .with_method(MethodDef::new("main", 0, extra_locals).with_code(code, lines))
    }

    #[test]
    fn arithmetic_and_return() {
        let c = main_class(
            vec![Instr::PushI(6), Instr::PushI(7), Instr::Mul, Instr::RetV],
            vec![1, 1, 1, 1],
            0,
        );
        let mut vm = vm_with(&[c]);
        let r = vm.run_to_completion("Main", "main", &[]).unwrap();
        assert_eq!(r, Some(Value::Int(42)));
        assert!(vm.meter_ns > 0);
        assert_eq!(vm.instr_count, 4);
    }

    #[test]
    fn float_arithmetic() {
        let c = main_class(
            vec![
                Instr::PushF(1.5),
                Instr::PushF(2.5),
                Instr::Add,
                Instr::PushI(2),
                Instr::I2F,
                Instr::Mul,
                Instr::RetV,
            ],
            vec![1; 7],
            0,
        );
        let mut vm = vm_with(&[c]);
        let r = vm.run_to_completion("Main", "main", &[]).unwrap();
        assert_eq!(r, Some(Value::Num(8.0)));
    }

    #[test]
    fn locals_and_branches_loop() {
        // sum 1..=5 via loop
        // l0: i, l1: sum
        let c = main_class(
            vec![
                Instr::PushI(1),
                Instr::Store(0), // i = 1
                Instr::PushI(0),
                Instr::Store(1), // sum = 0
                // loop:
                Instr::Load(0),
                Instr::PushI(5),
                Instr::If(Cmp::Gt, 13), // if i > 5 goto end
                Instr::Load(1),
                Instr::Load(0),
                Instr::Add,
                Instr::Store(1), // sum += i
                Instr::Load(0),
                Instr::PushI(1),
                // ^ careful: pc13 must be end; recount below
                Instr::Add,
                Instr::Store(0),
                Instr::Goto(4),
                // end:
                Instr::Load(1),
                Instr::RetV,
            ],
            vec![1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 6, 6],
            2,
        );
        // Fix the branch target: end is at index 16.
        let mut c = c;
        c.methods[0].code[6] = Instr::If(Cmp::Gt, 16);
        let mut vm = vm_with(&[c]);
        let r = vm.run_to_completion("Main", "main", &[]).unwrap();
        assert_eq!(r, Some(Value::Int(15)));
    }

    #[test]
    fn static_and_virtual_calls() {
        // Helper.twice(x) = x*2 ; Main.main() = twice(10) + obj.one()
        let mut helper = ClassDef::new("Helper");
        helper.methods.push(MethodDef::new("twice", 1, 0).with_code(
            vec![Instr::Load(0), Instr::PushI(2), Instr::Mul, Instr::RetV],
            vec![1; 4],
        ));
        helper.methods.push(
            MethodDef::new("one", 1, 0) // virtual: receiver in slot 0
                .with_code(vec![Instr::PushI(1), Instr::RetV], vec![1, 1]),
        );
        let mut main = ClassDef::new("Main");
        let h = main.intern("Helper");
        let tw = main.intern("twice");
        let one = main.intern("one");
        main.methods.push(MethodDef::new("main", 0, 0).with_code(
            vec![
                Instr::PushI(10),
                Instr::InvokeStatic(h, tw, 1),
                Instr::New(h),
                Instr::InvokeVirtual(one, 1),
                Instr::Add,
                Instr::RetV,
            ],
            vec![1; 6],
        ));
        let mut vm = vm_with(&[helper, main]);
        let r = vm.run_to_completion("Main", "main", &[]).unwrap();
        assert_eq!(r, Some(Value::Int(21)));
    }

    #[test]
    fn fields_and_objects() {
        let mut point = ClassDef::new("Point")
            .with_field(FieldDef::instance("x", TypeOf::Int))
            .with_field(FieldDef::instance("y", TypeOf::Int));
        let getx = point.intern("x");
        point.methods.push(MethodDef::new("getX", 1, 0).with_code(
            vec![Instr::Load(0), Instr::GetField(getx), Instr::RetV],
            vec![1; 3],
        ));
        let mut main = ClassDef::new("Main");
        let p = main.intern("Point");
        let x = main.intern("x");
        let getx_m = main.intern("getX");
        main.methods.push(MethodDef::new("main", 0, 1).with_code(
            vec![
                Instr::New(p),
                Instr::Store(0),
                Instr::Load(0),
                Instr::PushI(5),
                Instr::PutField(x),
                Instr::Load(0),
                Instr::InvokeVirtual(getx_m, 1),
                Instr::RetV,
            ],
            vec![1, 1, 2, 2, 2, 3, 3, 3],
        ));
        let mut vm = vm_with(&[point, main]);
        let r = vm.run_to_completion("Main", "main", &[]).unwrap();
        assert_eq!(r, Some(Value::Int(5)));
    }

    /// `New` writes its class's instance defaults — layout order, statics
    /// excluded — straight into the heap's slot arena.
    #[test]
    fn new_writes_its_class_defaults_in_place() {
        let mut main = ClassDef::new("Main")
            .with_field(FieldDef::instance("r", TypeOf::Ref))
            .with_field(FieldDef::stat("count", TypeOf::Int))
            .with_field(FieldDef::instance("n", TypeOf::Int));
        let me = main.intern("Main");
        main.methods.push(
            MethodDef::new("main", 0, 0).with_code(vec![Instr::New(me), Instr::RetV], vec![1, 1]),
        );
        let mut vm = vm_with(&[main]);
        let Some(Value::Ref(id)) = vm.run_to_completion("Main", "main", &[]).unwrap() else {
            panic!("main returns its instance");
        };
        let (obj, slots) = vm.heap.view(id).unwrap();
        assert_eq!(obj.class_name(), "Main");
        assert_eq!(slots, &[Value::Null, Value::Int(0)]);
        assert_eq!(vm.heap.arena_len(), 2);
        assert_eq!(vm.heap.used_bytes(), 16 + 2 * Value::SLOT_BYTES);
    }

    /// An object frame naming a loaded class with fewer slots than the
    /// class lays out is refused at install, the heap untouched; a copy
    /// that arrived before its class loaded, and so was not checked, makes
    /// `GetField` and `PutField` — cold and warm sites both — a typed
    /// `BadRef`, never an index past its slots.
    #[test]
    fn a_short_instance_frame_neither_installs_nor_panics() {
        use crate::capture::CapturedValue;
        use crate::wire::{encode_object, WireObjBody, WireObject};
        let point = || {
            ClassDef::new("Point")
                .with_field(FieldDef::instance("x", TypeOf::Int))
                .with_field(FieldDef::instance("y", TypeOf::Int))
        };
        let short = encode_object(&WireObject {
            home_id: 7,
            body: WireObjBody::Obj {
                class: "Point".into(),
                fields: vec![CapturedValue::Int(1)],
            },
        })
        .unwrap();

        let mut vm = vm_with(&[point()]);
        let before = format!("{:?}", vm.heap);
        let refused = vm.install_fetched(0, &short);
        assert!(matches!(refused, Err(VmError::Decode(_))), "{refused:?}");
        assert_eq!(format!("{:?}", vm.heap), before);

        let mut main = ClassDef::new("Main");
        let (p, x, y) = (main.intern("Point"), main.intern("x"), main.intern("y"));
        let method = |name: &str, nargs, code: Vec<Instr>| {
            let lines = vec![1; code.len()];
            MethodDef::new(name, nargs, 0).with_code(code, lines)
        };
        main.methods.extend([
            method("make", 0, vec![Instr::New(p), Instr::RetV]),
            method(
                "getx",
                1,
                vec![Instr::Load(0), Instr::GetField(x), Instr::RetV],
            ),
            method(
                "gety",
                1,
                vec![Instr::Load(0), Instr::GetField(y), Instr::RetV],
            ),
            method(
                "sety",
                1,
                vec![
                    Instr::Load(0),
                    Instr::PushI(9),
                    Instr::PutField(y),
                    Instr::PushI(0),
                    Instr::RetV,
                ],
            ),
        ]);
        let mut vm = vm_with(&[main]);
        // Fetched before `Point` is loaded here: nothing to check it by.
        let bad = vm.install_fetched(0, &short).unwrap();
        vm.load_class(&point()).unwrap();
        let mut run = |m: &str, args: &[Value]| vm.run_to_completion("Main", m, args);
        let whole = match run("make", &[]) {
            Ok(Some(v)) => v,
            other => panic!("{other:?}"),
        };
        // Cold sites first: resolved by name, the slot is past the copy's.
        assert_eq!(run("gety", &[Value::Ref(bad)]), Err(VmError::BadRef(bad)));
        assert_eq!(run("sety", &[Value::Ref(bad)]), Err(VmError::BadRef(bad)));
        // Warm both sites on a whole instance, then hand the short copy
        // the canonical class name through a site it does fit.
        assert_eq!(run("gety", &[whole]), Ok(Some(Value::Int(0))));
        assert_eq!(run("sety", &[whole]), Ok(Some(Value::Int(0))));
        assert_eq!(run("getx", &[Value::Ref(bad)]), Ok(Some(Value::Int(1))));
        assert_eq!(run("gety", &[Value::Ref(bad)]), Err(VmError::BadRef(bad)));
        assert_eq!(run("sety", &[Value::Ref(bad)]), Err(VmError::BadRef(bad)));
        assert!(!vm.heap.get(bad).unwrap().dirty);
    }

    /// A loaded class named like an array's pseudo-class makes
    /// `resolve_field` resolve a field of an array receiver: `PutField`
    /// there is a typed error, not a panic.
    #[test]
    fn put_field_on_an_array_is_a_typed_error() {
        let fake = ClassDef::new("[array]").with_field(FieldDef::instance("x", TypeOf::Int));
        let mut main = ClassDef::new("Main");
        let x = main.intern("x");
        main.methods.push(MethodDef::new("main", 0, 0).with_code(
            vec![
                Instr::PushI(1),
                Instr::NewArr,
                Instr::PushI(5),
                Instr::PutField(x),
                Instr::PushI(0),
                Instr::RetV,
            ],
            vec![1; 6],
        ));
        let mut vm = vm_with(&[fake, main]);
        let err = vm.run_to_completion("Main", "main", &[]).unwrap_err();
        assert!(matches!(err, VmError::BadRef(_)), "{err:?}");
    }

    #[test]
    fn rollback_of_a_thread_with_no_frame_is_a_typed_error() {
        let mut vm = vm_with(&[]);
        assert_eq!(vm.rollback_to_line_start(3), Err(VmError::BadThread(3)));
    }

    #[test]
    fn statics_roundtrip() {
        let mut c = ClassDef::new("Main").with_field(FieldDef::stat("counter", TypeOf::Int));
        let main_n = c.intern("Main");
        let counter = c.intern("counter");
        c.methods.push(MethodDef::new("main", 0, 0).with_code(
            vec![
                Instr::PushI(3),
                Instr::PutStatic(main_n, counter),
                Instr::GetStatic(main_n, counter),
                Instr::PushI(4),
                Instr::Add,
                Instr::RetV,
            ],
            vec![1, 1, 2, 2, 2, 2],
        ));
        let mut vm = vm_with(&[c]);
        let r = vm.run_to_completion("Main", "main", &[]).unwrap();
        assert_eq!(r, Some(Value::Int(7)));
    }

    #[test]
    fn arrays() {
        let c = main_class(
            vec![
                Instr::PushI(3),
                Instr::NewArr,
                Instr::Store(0),
                Instr::Load(0),
                Instr::PushI(1),
                Instr::PushI(99),
                Instr::AStore,
                Instr::Load(0),
                Instr::PushI(1),
                Instr::ALoad,
                Instr::Load(0),
                Instr::ArrLen,
                Instr::Add,
                Instr::RetV,
            ],
            vec![1; 14],
            1,
        );
        let mut vm = vm_with(&[c]);
        let r = vm.run_to_completion("Main", "main", &[]).unwrap();
        assert_eq!(r, Some(Value::Int(102)));
    }

    #[test]
    fn exception_caught_by_table() {
        // Divide by zero, caught; handler returns 7.
        let m = MethodDef::new("main", 0, 0)
            .with_code(
                vec![
                    Instr::PushI(1), // 0 line 1
                    Instr::PushI(0),
                    Instr::Div,
                    Instr::RetV,
                    Instr::Pop, // 4: handler, line 2
                    Instr::PushI(7),
                    Instr::RetV,
                ],
                vec![1, 1, 1, 1, 2, 2, 2],
            )
            .with_ex_table(vec![ExEntry::new(0, 4, 4, ExKind::DivByZero)]);
        let c = ClassDef::new("Main").with_method(m);
        let mut vm = vm_with(&[c]);
        let r = vm.run_to_completion("Main", "main", &[]).unwrap();
        assert_eq!(r, Some(Value::Int(7)));
    }

    #[test]
    fn exception_unwinds_frames() {
        // Main calls Thrower.boom() which divides by zero; Main catches it.
        let thrower = ClassDef::new("Thrower").with_method(MethodDef::new("boom", 0, 0).with_code(
            vec![Instr::PushI(1), Instr::PushI(0), Instr::Div, Instr::RetV],
            vec![1; 4],
        ));
        let mut main = ClassDef::new("Main");
        let t = main.intern("Thrower");
        let b = main.intern("boom");
        main.methods.push(
            MethodDef::new("main", 0, 0)
                .with_code(
                    vec![
                        Instr::InvokeStatic(t, b, 0), // 0 line 1
                        Instr::RetV,                  // 1
                        Instr::Pop,                   // 2 handler line 2
                        Instr::PushI(55),
                        Instr::RetV,
                    ],
                    vec![1, 1, 2, 2, 2],
                )
                .with_ex_table(vec![ExEntry::new(0, 2, 2, ExKind::DivByZero)]),
        );
        let mut vm = vm_with(&[thrower, main]);
        let r = vm.run_to_completion("Main", "main", &[]).unwrap();
        assert_eq!(r, Some(Value::Int(55)));
    }

    #[test]
    fn unwinding_cuts_the_value_stack_to_the_handler_window() {
        // main(2 locals) holds two operands, then calls boom with a third
        // as its argument; boom divides by zero two frames further up.
        // Entering main's handler must leave exactly main's locals plus
        // the exception reference on the thread's value stack.
        let mut c = ClassDef::new("Main");
        let (main_n, mid, boom) = (c.intern("Main"), c.intern("mid"), c.intern("boom"));
        c.methods.push(
            MethodDef::new("main", 0, 2)
                .with_code(
                    vec![
                        Instr::PushI(10),                    // 0
                        Instr::PushI(20),                    // 1
                        Instr::PushI(30),                    // 2
                        Instr::InvokeStatic(main_n, mid, 1), // 3
                        Instr::Add,                          // 4
                        Instr::Add,                          // 5
                        Instr::RetV,                         // 6
                        Instr::Store(1),                     // 7 handler
                        Instr::PushI(55),                    // 8
                        Instr::RetV,                         // 9
                    ],
                    vec![1, 1, 1, 1, 1, 1, 1, 2, 2, 2],
                )
                .with_ex_table(vec![ExEntry::new(0, 7, 7, ExKind::DivByZero)]),
        );
        c.methods.push(MethodDef::new("mid", 1, 3).with_code(
            vec![
                Instr::PushI(1),
                Instr::Load(0),
                Instr::InvokeStatic(main_n, boom, 1),
                Instr::Add,
                Instr::RetV,
            ],
            vec![1; 5],
        ));
        c.methods.push(MethodDef::new("boom", 1, 0).with_code(
            vec![Instr::Load(0), Instr::PushI(0), Instr::Div, Instr::RetV],
            vec![1; 4],
        ));
        let mut vm = vm_with(&[c]);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        while vm.thread(tid).unwrap().frames.len() < 3 {
            vm.step(tid).unwrap();
        }
        // main: 2 locals + 2 operands; mid: arg + 3 locals + 1 operand;
        // boom: its argument.
        assert_eq!(vm.threads[tid].stack.len(), 4 + 5 + 1);
        for _ in 0..3 {
            assert_eq!(vm.step(tid).unwrap(), StepOutcome::Continue);
        }
        let t = vm.thread(tid).unwrap();
        assert_eq!(t.frames.len(), 1);
        assert_eq!(t.frames[0].pc, 7);
        assert_eq!(t.stack.len(), t.frames[0].floor() + 1);
        assert!(matches!(t.operands(0), [Value::Ref(_)]));
        let (out, _) = vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
        assert_eq!(out, StepOutcome::Returned(Some(Value::Int(55))));
    }

    /// `main` allocates a two-slot array (32 B), then divides by zero
    /// ("integer division by zero": a 40 B exception) at pc 5, into
    /// `handler` at pc 7 when there is one. Returns how the thread ended,
    /// and the VM.
    fn divide_by_zero(handler: &[Instr]) -> (StepOutcome, Vm) {
        let mut code = vec![
            Instr::PushI(2),
            Instr::NewArr,
            Instr::Store(0),
            Instr::PushI(1),
            Instr::PushI(0),
            Instr::Div, // 5
            Instr::RetV,
        ];
        code.extend_from_slice(handler);
        let lines = (0..code.len()).map(|pc| 1 + u32::from(pc >= 7)).collect();
        let mut m = MethodDef::new("main", 0, 2).with_code(code, lines);
        if !handler.is_empty() {
            m = m.with_ex_table(vec![ExEntry::new(0, 7, 7, ExKind::DivByZero)]);
        }
        let mut vm = vm_with(&[ClassDef::new("Main").with_method(m)]);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        let (out, _) = vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
        (out, vm)
    }

    fn heap_counts(vm: &Vm) -> (usize, u64, u64) {
        (vm.heap.len(), vm.heap.used_bytes(), vm.heap.alloc_count())
    }

    #[test]
    fn an_exception_its_handler_pops_is_counted_not_kept() {
        let (out, vm) = divide_by_zero(&[Instr::Pop, Instr::PushI(7), Instr::RetV]);
        assert_eq!(out, StepOutcome::Returned(Some(Value::Int(7))));
        // The model charges the array and the exception, 72 B in two
        // allocations; the host holds the array alone (it held both).
        assert_eq!(heap_counts(&vm), (1, 72, 2));
    }

    #[test]
    fn an_exception_its_handler_stores_is_a_real_object() {
        let (out, vm) = divide_by_zero(&[Instr::Store(1), Instr::Load(1), Instr::RetV]);
        let StepOutcome::Returned(Some(Value::Ref(ex))) = out else {
            panic!("expected the exception back, got {out:?}");
        };
        match &vm.heap.get(ex).unwrap().kind {
            ObjKind::Exception { kind, message } => {
                assert_eq!(*kind, ExKind::DivByZero);
                assert_eq!(message, "integer division by zero");
            }
            other => panic!("expected an exception object, got {other:?}"),
        }
        assert_eq!(heap_counts(&vm), (2, 72, 2));
    }

    #[test]
    fn an_uncaught_exception_faults_with_its_message_and_keeps_no_entry() {
        let (out, vm) = divide_by_zero(&[]);
        let info = ExceptionInfo {
            kind: ExKind::DivByZero,
            message: "integer division by zero".into(),
            pc: 5,
        };
        assert_eq!(out, StepOutcome::Unhandled(info));
        assert_eq!(heap_counts(&vm), (1, 72, 2));
    }

    #[test]
    fn unhandled_exception_preserves_frames() {
        let c = main_class(
            vec![Instr::PushI(1), Instr::PushI(0), Instr::Div, Instr::RetV],
            vec![1; 4],
            0,
        );
        let mut vm = vm_with(&[c]);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        let (out, _) = vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
        match out {
            StepOutcome::Unhandled(e) => assert_eq!(e.kind, ExKind::DivByZero),
            other => panic!("expected Unhandled, got {other:?}"),
        }
        // Frames are preserved for policy inspection.
        assert_eq!(vm.thread(tid).unwrap().frames.len(), 1);
    }

    #[test]
    fn null_deref_raises_guest_npe() {
        let c = main_class(
            vec![Instr::PushNull, Instr::ArrLen, Instr::RetV],
            vec![1; 3],
            0,
        );
        let mut vm = vm_with(&[c]);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        let (out, _) = vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
        assert!(matches!(
            out,
            StepOutcome::Unhandled(ExceptionInfo {
                kind: ExKind::NullPointer,
                ..
            })
        ));
    }

    #[test]
    fn host_call_parks_and_resumes() {
        let mut c = ClassDef::new("Main");
        let fs = c.intern("fs_size");
        let path = c.intern("/data/file");
        c.methods.push(MethodDef::new("main", 0, 0).with_code(
            vec![Instr::PushStr(path), Instr::NativeCall(fs, 1), Instr::RetV],
            vec![1; 3],
        ));
        let mut vm = vm_with(&[c]);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        let (out, _) = vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
        match out {
            StepOutcome::HostCall { name, args } => {
                assert_eq!(name, "fs_size");
                assert!(matches!(args[..], [Value::Ref(_)]));
            }
            other => panic!("expected HostCall, got {other:?}"),
        }
        // The arguments left the operand stack when the thread parked.
        assert!(vm.thread(tid).unwrap().operands(0).is_empty());
        vm.resume_host(tid, Value::Int(4096)).unwrap();
        let (out, _) = vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
        assert_eq!(out, StepOutcome::Returned(Some(Value::Int(4096))));
    }

    #[test]
    fn class_miss_parks_until_loaded() {
        // main: Cfg.seen = 4; return Lazy.get(5) — each static site names a
        // class that is not loaded yet. Both must park with their operand
        // still on the stack (the instruction re-executes after the load),
        // in a fast VM and — the same cold path, forever — a reference VM.
        let mut main = ClassDef::new("Main");
        let (cfg, seen) = (main.intern("Cfg"), main.intern("seen"));
        let (lazy, get) = (main.intern("Lazy"), main.intern("get"));
        main.methods.push(MethodDef::new("main", 0, 0).with_code(
            vec![
                Instr::PushI(4),
                Instr::PutStatic(cfg, seen),
                Instr::PushI(5),
                Instr::InvokeStatic(lazy, get, 1),
                Instr::RetV,
            ],
            vec![1; 5],
        ));
        let cfg_def = ClassDef::new("Cfg").with_field(FieldDef::stat("seen", TypeOf::Int));
        // Lazy.get(x) = x + Cfg.seen
        let mut lazy_def = ClassDef::new("Lazy");
        let (cfg, seen) = (lazy_def.intern("Cfg"), lazy_def.intern("seen"));
        lazy_def.methods.push(MethodDef::new("get", 1, 0).with_code(
            vec![
                Instr::Load(0),
                Instr::GetStatic(cfg, seen),
                Instr::Add,
                Instr::RetV,
            ],
            vec![1; 4],
        ));
        for mut vm in [
            vm_with(std::slice::from_ref(&main)),
            load_into(Vm::reference(), std::slice::from_ref(&main)),
        ] {
            let tid = vm.spawn("Main", "main", &[]).unwrap();
            for (missing, pc, operand) in [(&cfg_def, 1, 4), (&lazy_def, 3, 5)] {
                let (out, _) = vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
                assert_eq!(out, StepOutcome::ClassMiss(missing.name.clone()));
                let t = vm.thread(tid).unwrap();
                assert_eq!(t.top().unwrap().pc, pc);
                assert_eq!(t.operands(0), [Value::Int(operand)]);
                vm.load_class(missing).unwrap();
                vm.resume_class_loaded(tid).unwrap();
            }
            let (out, _) = vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
            assert_eq!(out, StepOutcome::Returned(Some(Value::Int(9))));
        }
    }

    #[test]
    fn breakpoint_hits_once() {
        let c = main_class(vec![Instr::PushI(1), Instr::RetV], vec![1, 1], 0);
        let mut vm = vm_with(&[c]);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        vm.set_breakpoint(tid, 0, 0, 0);
        // A different thread on the same location sails through: the
        // breakpoint is armed for `tid` alone.
        let other = vm.spawn("Main", "main", &[]).unwrap();
        let (out, _) = vm.run(other, u64::MAX, RunMode::Normal).unwrap();
        assert!(matches!(out, StepOutcome::Returned(_)));
        let out = vm.step(tid).unwrap();
        assert!(matches!(out, StepOutcome::Breakpoint { pc: 0, .. }));
        // Disarmed: next step executes normally.
        let out = vm.step(tid).unwrap();
        assert_eq!(out, StepOutcome::Continue);
    }

    #[test]
    fn run_budget_slices_execution() {
        // An infinite loop only consumes its budget per slice.
        let c = main_class(vec![Instr::Goto(0)], vec![1], 0);
        let mut vm = vm_with(&[c]);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        let (out, spent) = vm.run(tid, 1000, RunMode::Normal).unwrap();
        assert_eq!(out, StepOutcome::Continue);
        assert!(spent >= 1000);
        assert!(spent < 2000);
    }

    /// Counter class with an instance field `n` and a virtual `bump`, plus a
    /// Main that allocates one Counter and bumps it `iters` times — traffic
    /// for the New / GetField / PutField / InvokeVirtual inline caches
    /// between runs of window instructions.
    fn counter_program(iters: i64) -> Vec<ClassDef> {
        let mut counter = ClassDef::new("Counter").with_field(FieldDef::instance("n", TypeOf::Int));
        let n = counter.intern("n");
        counter.methods.push(MethodDef::new("bump", 1, 0).with_code(
            vec![
                Instr::Load(0),
                Instr::Load(0),
                Instr::GetField(n),
                Instr::PushI(1),
                Instr::Add,
                Instr::PutField(n),
                Instr::PushI(0),
                Instr::RetV,
            ],
            vec![1; 8],
        ));
        let mut main = ClassDef::new("Main");
        let cc = main.intern("Counter");
        let bump = main.intern("bump");
        let n = main.intern("n");
        main.methods.push(
            // l0: counter, l1: i
            MethodDef::new("main", 0, 2).with_code(
                vec![
                    Instr::New(cc),
                    Instr::Store(0),
                    Instr::PushI(0),
                    Instr::Store(1),
                    // loop:
                    Instr::Load(1),
                    Instr::PushI(iters),
                    Instr::If(Cmp::Ge, 15),
                    Instr::Load(0),
                    Instr::InvokeVirtual(bump, 1),
                    Instr::Pop,
                    Instr::Load(1),
                    Instr::PushI(1),
                    Instr::Add,
                    Instr::Store(1),
                    Instr::Goto(4),
                    // end:
                    Instr::Load(0),
                    Instr::GetField(n),
                    Instr::RetV,
                ],
                vec![1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 5, 5, 6, 6, 6],
            ),
        );
        vec![counter, main]
    }

    #[test]
    fn fast_path_matches_reference_slice_by_slice() {
        // Same program in two VMs — warm inline caches, so calls stay in
        // the window loop, vs the reference whose every site takes the full
        // path — run in tiny budget slices so boundaries fall everywhere.
        // Every observable meter must agree after every slice.
        let classes = counter_program(10);
        let mut fast = vm_with(&classes);
        let mut slow = load_into(Vm::reference(), &classes);
        let ft = fast.spawn("Main", "main", &[]).unwrap();
        let st = slow.spawn("Main", "main", &[]).unwrap();
        loop {
            let (fo, fspent) = fast.run(ft, 37, RunMode::Normal).unwrap();
            let (so, sspent) = slow.run(st, 37, RunMode::Normal).unwrap();
            assert_eq!(fo, so);
            assert_eq!(fspent, sspent);
            assert_eq!(fast.meter_ns, slow.meter_ns);
            assert_eq!(fast.instr_count, slow.instr_count);
            assert_eq!(fast.threads[ft].frames, slow.threads[st].frames);
            assert_eq!(fast.threads[ft].stack, slow.threads[st].stack);
            if let StepOutcome::Returned(v) = fo {
                assert_eq!(v, Some(Value::Int(10)));
                break;
            }
        }
        assert_eq!(fast.heap.used_bytes(), slow.heap.used_bytes());
        assert_eq!(fast.heap.alloc_count(), slow.heap.alloc_count());
        assert_eq!(fast.heap.len(), slow.heap.len());
        // The fast VM warmed its caches; the reference VM never fills any.
        // That is the whole difference: both linked the same rows.
        assert!(fast.classes.iter().any(|c| c.ic_warm_count() > 0));
        assert!(slow.classes.iter().all(|c| c.ic_warm_count() == 0));
    }

    #[test]
    fn armed_breakpoint_trips_before_its_pc_exactly_once() {
        // pc 5 (`PushI iters`) sits mid-statement inside the loop: the run
        // stops there with pc 4 retired and pc 5 not, the breakpoint is
        // gone, and later passes over pc 5 run through.
        let classes = counter_program(3);
        let mut vm = vm_with(&classes);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        let main_ci = vm.class_idx("Main").unwrap();
        vm.set_breakpoint(tid, main_ci, 0, 5);
        let (out, _) = vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
        assert!(matches!(out, StepOutcome::Breakpoint { pc: 5, .. }));
        assert_eq!(vm.instr_count, 5);
        assert_eq!(vm.threads[tid].frames[0].pc, 5);
        assert_eq!(vm.threads[tid].operands(0), [Value::Int(0)]);
        assert_eq!(vm.breakpoints_armed(), 0);
        let (out, _) = vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
        assert_eq!(out, StepOutcome::Returned(Some(Value::Int(3))));
    }

    #[test]
    fn a_breakpoint_is_its_threads_business() {
        // Threads A and B run the same program; a breakpoint is armed for A
        // only, at a pc B crosses on every loop pass. B's slices are exactly
        // those of a thread in a VM with nothing armed, in both run modes,
        // and never trip it; A still stops at it.
        let classes = counter_program(4);
        let mut vm = vm_with(&classes);
        let mut quiet = vm_with(&classes);
        let a = vm.spawn("Main", "main", &[]).unwrap();
        let b = vm.spawn("Main", "main", &[]).unwrap();
        let q = quiet.spawn("Main", "main", &[]).unwrap();
        let main_ci = vm.class_idx("Main").unwrap();
        vm.set_breakpoint(a, main_ci, 0, 12);
        for mode in [RunMode::Normal, RunMode::StopAtMsp].into_iter().cycle() {
            let out = vm.run(b, 23, mode).unwrap();
            assert_eq!(out, quiet.run(q, 23, mode).unwrap());
            assert_eq!(
                (vm.meter_ns, vm.instr_count),
                (quiet.meter_ns, quiet.instr_count)
            );
            assert_eq!(vm.threads[b].frames, quiet.threads[q].frames);
            assert_eq!(vm.breakpoints_armed(), 1);
            match out.0 {
                // Step off the safe point, in both.
                StepOutcome::AtMsp { .. } => {
                    assert_eq!(vm.step(b).unwrap(), quiet.step(q).unwrap());
                }
                StepOutcome::Returned(v) => {
                    assert_eq!(v, Some(Value::Int(4)));
                    break;
                }
                _ => {}
            }
        }
        let (out, _) = vm.run(a, u64::MAX, RunMode::Normal).unwrap();
        assert!(matches!(out, StepOutcome::Breakpoint { pc: 12, .. }));
        assert_eq!(vm.breakpoints_armed(), 0);
    }

    #[test]
    fn clear_thread_breakpoints_disarms_only_that_thread() {
        let mut vm = vm_with(&counter_program(1));
        vm.set_breakpoint(0, 0, 0, 1);
        vm.set_breakpoint(1, 0, 0, 1);
        vm.set_breakpoint(0, 1, 0, 4);
        vm.clear_thread_breakpoints(0);
        assert_eq!(vm.breakpoints, [(1, 0, 0, 1)]);
    }

    #[test]
    fn public_step_retires_one_instruction() {
        // Single-stepping retires exactly one instruction per call, calls
        // and returns included, whatever the run loop would do there.
        let classes = counter_program(2);
        let mut vm = vm_with(&classes);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        let mut steps = 0;
        let result = loop {
            let count_before = vm.instr_count;
            match vm.step(tid).unwrap() {
                StepOutcome::Returned(v) => break v,
                StepOutcome::Continue => {
                    assert_eq!(vm.instr_count, count_before + 1);
                    steps += 1;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        };
        assert_eq!(result, Some(Value::Int(2)));
        assert!(steps > 10);
    }

    #[test]
    fn a_failed_slice_leaves_the_meters_flushed() {
        // Three window instructions retire in the loop, then `Add` meets
        // an int and a float: the error surfaces with all four counted
        // (the failing instruction charged exactly once), and a twin that
        // single-steps agrees.
        let c = main_class(
            vec![
                Instr::PushI(1),
                Instr::Pop,
                Instr::PushI(1),
                Instr::PushF(2.0),
                Instr::Add,
                Instr::RetV,
            ],
            vec![1; 6],
            0,
        );
        let mut vm = vm_with(std::slice::from_ref(&c));
        let mut twin = vm_with(&[c]);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        twin.spawn("Main", "main", &[]).unwrap();
        let err = vm.run(tid, u64::MAX, RunMode::Normal).unwrap_err();
        let twin_err = loop {
            match twin.step(tid) {
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        let mismatch = VmError::TypeMismatch {
            expected: "matching numeric operands",
            found: "int",
        };
        assert_eq!((&err, &twin_err), (&mismatch, &mismatch));
        assert_eq!((vm.instr_count, vm.meter_ns), (5, 5));
        assert_eq!(
            (vm.instr_count, vm.meter_ns),
            (twin.instr_count, twin.meter_ns)
        );
        assert_eq!(vm.threads[tid].frames, twin.threads[tid].frames);
        assert_eq!(vm.threads[tid].stack, twin.threads[tid].stack);
    }

    #[test]
    fn stop_at_msp() {
        // line 1: two instrs; line 2 starts at pc 2 with empty stack.
        let c = main_class(
            vec![
                Instr::PushI(1),
                Instr::Store(0),
                Instr::PushI(2),
                Instr::Store(0),
                Instr::Ret,
            ],
            vec![1, 1, 2, 2, 3],
            1,
        );
        let mut vm = vm_with(&[c]);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        // First stop: pc 0 is itself an MSP.
        let (out, _) = vm.run(tid, u64::MAX, RunMode::StopAtMsp).unwrap();
        assert_eq!(out, StepOutcome::AtMsp { pc: 0 });
        vm.step(tid).unwrap();
        let (out, _) = vm.run(tid, u64::MAX, RunMode::StopAtMsp).unwrap();
        assert_eq!(out, StepOutcome::AtMsp { pc: 2 });
    }

    #[test]
    fn force_early_return_pops_and_delivers() {
        // main calls callee; we force-early-return the callee with 123.
        let callee = ClassDef::new("Callee").with_method(MethodDef::new("work", 0, 0).with_code(
            vec![Instr::Goto(0)], // never returns on its own
            vec![1],
        ));
        let mut main = ClassDef::new("Main");
        let cal = main.intern("Callee");
        let work = main.intern("work");
        main.methods.push(MethodDef::new("main", 0, 0).with_code(
            vec![Instr::InvokeStatic(cal, work, 0), Instr::RetV],
            vec![1, 1],
        ));
        let mut vm = vm_with(&[callee, main]);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        // Run a little: enters the callee loop.
        let (out, _) = vm.run(tid, 100, RunMode::Normal).unwrap();
        assert_eq!(out, StepOutcome::Continue);
        assert_eq!(vm.thread(tid).unwrap().frames.len(), 2);
        vm.force_early_return(tid, Some(Value::Int(123))).unwrap();
        let (out, _) = vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
        assert_eq!(out, StepOutcome::Returned(Some(Value::Int(123))));
    }

    #[test]
    fn returns_leave_the_callers_window() {
        // main(1 local) keeps one operand under each call. `get` returns a
        // value, `nop` returns none, `spin` never returns and is popped by
        // force_early_return: each time the value stack must end at the
        // caller's operands, plus the returned value if there is one.
        let mut c = ClassDef::new("Main");
        let main_n = c.intern("Main");
        let (get, nop, spin) = (c.intern("get"), c.intern("nop"), c.intern("spin"));
        c.methods.push(MethodDef::new("main", 0, 1).with_code(
            vec![
                Instr::PushI(7),                      // 0
                Instr::PushI(1),                      // 1
                Instr::InvokeStatic(main_n, get, 1),  // 2
                Instr::Pop,                           // 3
                Instr::InvokeStatic(main_n, nop, 0),  // 4
                Instr::InvokeStatic(main_n, spin, 0), // 5
                Instr::Add,                           // 6
                Instr::RetV,                          // 7
            ],
            vec![1; 8],
        ));
        c.methods.push(MethodDef::new("get", 1, 2).with_code(
            vec![Instr::PushI(5), Instr::PushI(6), Instr::RetV],
            vec![1; 3],
        ));
        c.methods.push(
            MethodDef::new("nop", 0, 2).with_code(vec![Instr::PushI(5), Instr::Ret], vec![1; 2]),
        );
        c.methods
            .push(MethodDef::new("spin", 0, 1).with_code(vec![Instr::Goto(0)], vec![1]));
        let mut vm = vm_with(&[c]);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        let step_to = |vm: &mut Vm, pc: u32| {
            while vm.threads[tid].frames.len() != 1 || vm.threads[tid].frames[0].pc != pc {
                assert_eq!(vm.step(tid).unwrap(), StepOutcome::Continue);
            }
        };
        // 1 local + the operand 7 is main's window while a callee runs.
        step_to(&mut vm, 3);
        assert_eq!(vm.threads[tid].operands(0), [Value::Int(7), Value::Int(6)]);
        assert_eq!(vm.threads[tid].stack.len(), 1 + 2);
        step_to(&mut vm, 5);
        assert_eq!(vm.threads[tid].operands(0), [Value::Int(7)]);
        assert_eq!(vm.threads[tid].stack.len(), 1 + 1);
        vm.step(tid).unwrap();
        vm.step(tid).unwrap();
        assert_eq!(vm.threads[tid].frames.len(), 2);
        vm.force_early_return(tid, Some(Value::Int(35))).unwrap();
        assert_eq!(vm.threads[tid].operands(0), [Value::Int(7), Value::Int(35)]);
        assert_eq!(vm.threads[tid].stack.len(), 1 + 2);
        let (out, _) = vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
        assert_eq!(out, StepOutcome::Returned(Some(Value::Int(42))));
        // A finished thread holds no stack at all.
        assert_eq!(vm.threads[tid].stack_state_bytes(), 0);
    }

    /// `Main.main` calls `Lib.f` passing `site_nargs` arguments; `Lib.f`
    /// declares `decl_nargs`.
    fn cross_class_call(site_nargs: u8, decl_nargs: u16) -> Vec<ClassDef> {
        let mut main = ClassDef::new("Main");
        let (lib, f) = (main.intern("Lib"), main.intern("f"));
        let mut code = vec![Instr::PushI(1); site_nargs as usize];
        code.extend([Instr::InvokeStatic(lib, f, site_nargs), Instr::RetV]);
        let lines = vec![1; code.len()];
        main.methods
            .push(MethodDef::new("main", 0, 0).with_code(code, lines));
        let lib = ClassDef::new("Lib").with_method(
            MethodDef::new("f", decl_nargs, 0)
                .with_code(vec![Instr::PushI(0), Instr::RetV], vec![1; 2]),
        );
        vec![main, lib]
    }

    #[test]
    fn arity_mismatch_is_a_typed_error() {
        // Each class verifies by itself; only the resolved call can tell
        // that the site and the callee disagree — in either direction.
        for (site, decl) in [(2, 1), (1, 2), (0, 3)] {
            for mut vm in [
                vm_with(&cross_class_call(site, decl)),
                load_into(Vm::reference(), &cross_class_call(site, decl)),
            ] {
                let tid = vm.spawn("Main", "main", &[]).unwrap();
                let err = vm.run(tid, u64::MAX, RunMode::Normal).unwrap_err();
                assert_eq!(
                    err,
                    VmError::ArityMismatch {
                        class: "Lib".into(),
                        method: "f".into(),
                        expected: decl,
                        got: u16::from(site),
                    }
                );
            }
        }
        let mut vm = vm_with(&cross_class_call(2, 2));
        assert_eq!(
            vm.run_to_completion("Main", "main", &[]).unwrap(),
            Some(Value::Int(0))
        );
    }

    #[test]
    fn unbounded_recursion_ends_in_stack_overflow() {
        // `deep` recurses forever with four locals a frame, `bare` with
        // none at all (only frame headers grow).
        let mut c = ClassDef::new("Main");
        let main_n = c.intern("Main");
        let (deep, bare) = (c.intern("deep"), c.intern("bare"));
        c.methods.push(MethodDef::new("deep", 1, 3).with_code(
            vec![
                Instr::Load(0),
                Instr::InvokeStatic(main_n, deep, 1),
                Instr::RetV,
            ],
            vec![1; 3],
        ));
        c.methods.push(MethodDef::new("bare", 0, 0).with_code(
            vec![Instr::InvokeStatic(main_n, bare, 0), Instr::RetV],
            vec![1; 2],
        ));
        c.methods.push(
            MethodDef::new("main", 0, 0).with_code(vec![Instr::PushI(3), Instr::RetV], vec![1; 2]),
        );
        let mut vm = vm_with(&[c]);
        let deep = vm.spawn("Main", "deep", &[Value::Int(1)]).unwrap();
        let bare = vm.spawn("Main", "bare", &[]).unwrap();
        for tid in [deep, bare] {
            let err = vm.run(tid, u64::MAX, RunMode::Normal).unwrap_err();
            assert_eq!(err, VmError::StackOverflow);
            let t = vm.thread(tid).unwrap();
            assert!(t.stack.len() + 2 * t.frames.len() <= MAX_STACK_SLOTS);
            // The thread stays where it overflowed: at the Invoke.
            assert_eq!(
                vm.run(tid, 100, RunMode::Normal),
                Err(VmError::StackOverflow)
            );
        }
        // The VM itself is fine: other threads run to completion.
        assert_eq!(
            vm.run_to_completion("Main", "main", &[]).unwrap(),
            Some(Value::Int(3))
        );
    }

    #[test]
    fn interp_mode_charges_more() {
        let code = vec![Instr::PushI(1), Instr::PushI(2), Instr::Add, Instr::RetV];
        let c = main_class(code.clone(), vec![1; 4], 0);
        let mut vm1 = vm_with(std::slice::from_ref(&c));
        vm1.run_to_completion("Main", "main", &[]).unwrap();
        let mut vm2 = vm_with(&[c]);
        let tid = vm2.spawn("Main", "main", &[]).unwrap();
        vm2.threads[tid].interp_mode = true;
        let (out, _) = vm2.run(tid, u64::MAX, RunMode::Normal).unwrap();
        assert!(matches!(out, StepOutcome::Returned(_)));
        assert_eq!(vm2.meter_ns, vm1.meter_ns * u64::from(INTERP_MODE_FACTOR));
    }

    #[test]
    fn cost_scale_applies() {
        let c = main_class(vec![Instr::PushI(1), Instr::RetV], vec![1, 1], 0);
        let mut vm1 = vm_with(std::slice::from_ref(&c));
        vm1.run_to_completion("Main", "main", &[]).unwrap();
        let mut vm2 = vm_with(&[c]);
        vm2.cost_scale_per_mille = 2000;
        vm2.run_to_completion("Main", "main", &[]).unwrap();
        assert_eq!(vm2.meter_ns, vm1.meter_ns * 2);
    }

    #[test]
    fn mem_limit_raises_oom() {
        let c = main_class(
            vec![Instr::PushI(1_000_000), Instr::NewArr, Instr::RetV],
            vec![1; 3],
            0,
        );
        let mut vm = vm_with(&[c]);
        vm.mem_limit = Some(1024);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        let (out, _) = vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
        assert!(matches!(
            out,
            StepOutcome::Unhandled(ExceptionInfo {
                kind: ExKind::OutOfMemory,
                ..
            })
        ));
    }

    #[test]
    fn max_height_tracked() {
        // Recursion depth 5: f(n) = n==0 ? 0 : f(n-1)
        let mut c = ClassDef::new("Main");
        let main_n = c.intern("Main");
        let f = c.intern("f");
        c.methods.push(MethodDef::new("main", 0, 0).with_code(
            vec![
                Instr::PushI(5),
                Instr::InvokeStatic(main_n, f, 1),
                Instr::RetV,
            ],
            vec![1; 3],
        ));
        c.methods.push(MethodDef::new("f", 1, 0).with_code(
            vec![
                Instr::Load(0),                    // 0
                Instr::IfZ(Cmp::Ne, 3),            // 1: if n != 0 goto 3
                Instr::Goto(8),                    // 2  -> return 0 path
                Instr::Load(0),                    // 3
                Instr::PushI(1),                   // 4
                Instr::Sub,                        // 5
                Instr::InvokeStatic(main_n, f, 1), // 6
                Instr::RetV,                       // 7
                Instr::PushI(0),                   // 8
                Instr::RetV,                       // 9
            ],
            vec![1, 1, 1, 2, 2, 2, 2, 2, 3, 3],
        ));
        let mut vm = vm_with(&[c]);
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
        assert_eq!(vm.thread(tid).unwrap().max_height, 7); // main + f(5..0)
    }

    #[test]
    fn print_collects_stdout() {
        let mut c = ClassDef::new("Main");
        let pr = c.intern("print");
        let msg = c.intern("hello");
        c.methods.push(MethodDef::new("main", 0, 0).with_code(
            vec![
                Instr::PushStr(msg),
                Instr::NativeCall(pr, 1),
                Instr::Pop,
                Instr::PushI(0),
                Instr::RetV,
            ],
            vec![1; 5],
        ));
        let mut vm = vm_with(&[c]);
        vm.run_to_completion("Main", "main", &[]).unwrap();
        assert_eq!(vm.stdout, vec!["hello".to_owned()]);
    }

    #[test]
    fn string_interning_dedups() {
        // Two `PushStr` sites of one string share one object: each site
        // has its own inline cache, so the second finds the interned one.
        let mut c = ClassDef::new("Main");
        let (x, y) = (c.intern("x"), c.intern("y"));
        c.methods.push(MethodDef::new("main", 0, 0).with_code(
            vec![
                Instr::PushStr(x),
                Instr::PushStr(x),
                Instr::Pop,
                Instr::Pop,
                Instr::PushStr(y),
                Instr::Pop,
                Instr::Ret,
            ],
            vec![1; 7],
        ));
        let mut vm = vm_with(&[c]);
        vm.run_to_completion("Main", "main", &[]).unwrap();
        assert_eq!(vm.heap.len(), 2, "one object per distinct string");
        assert_ne!(vm.interned["x"], vm.interned["y"]);
    }

    #[test]
    fn a_released_slot_is_let_again_under_a_new_generation() {
        // 100 locals: a value stack past a spawn's 64 slots.
        let wide = main_class(vec![Instr::Ret], vec![1], 100);
        let mut vm = vm_with(&[wide]);
        let a = vm.spawn("Main", "main", &[]).unwrap();
        let b = vm.spawn("Main", "main", &[]).unwrap();
        assert_eq!((a, b), (0, 1), "a slot's first tenant's id is the slot");
        vm.set_breakpoint(a, 0, 0, 0);
        vm.set_breakpoint(b, 0, 0, 0);

        assert!(vm.release(a));
        assert!(!vm.release(a), "an id is released once");
        assert_eq!(vm.breakpoints, [(b, 0, 0, 0)]);
        assert!(matches!(vm.thread(a), Err(VmError::BadThread(_))));
        assert!(vm.step(a).is_err() && vm.run(a, 1_000, RunMode::Normal).is_err());
        assert_eq!(vm.thread_ids().collect::<Vec<_>>(), [b]);

        // The next tenant moves into the vacated slot, grown stack and
        // all, under an id the released thread never had.
        let c = vm.spawn("Main", "main", &[]).unwrap();
        assert_eq!((slot_of(c), vm.threads.len()), (slot_of(a), 2));
        assert_ne!(c, a);
        assert!(vm.thread(a).is_err());
        assert!(vm.thread(c).unwrap().stack.capacity() >= 100);
        let runnable = vm
            .thread_ids()
            .filter(|&t| vm.threads[slot_of(t)].is_runnable());
        assert_eq!(runnable.collect::<Vec<_>>(), [c, b]);
        assert_eq!(
            vm.run(c, u64::MAX, RunMode::Normal).unwrap().0,
            StepOutcome::Returned(None)
        );

        // Stacks no bigger than a spawn's are not kept.
        let small = vm_with(&[main_class(vec![Instr::Ret], vec![1], 0)]);
        let mut vm = small;
        let t = vm.spawn("Main", "main", &[]).unwrap();
        vm.release(t);
        assert_eq!(vm.threads[slot_of(t)].stack.capacity(), 0);
    }

    #[test]
    fn the_free_list_survives_an_outside_clear() {
        let mut vm = vm_with(&[main_class(vec![Instr::Ret], vec![1], 0)]);
        let ids: Vec<usize> = (0..3)
            .map(|_| vm.spawn("Main", "main", &[]).unwrap())
            .collect();
        vm.release(ids[0]);
        vm.release(ids[2]);
        vm.threads.clear();
        // The free list names slots the table no longer has: a fresh table.
        assert_eq!(vm.spawn("Main", "main", &[]).unwrap(), 0);
        assert_eq!(vm.spawn("Main", "main", &[]).unwrap(), 1);
        assert_eq!(vm.threads.len(), 2);
    }

    #[test]
    fn spawn_arity_checked() {
        let c = main_class(vec![Instr::Ret], vec![1], 0);
        let mut vm = vm_with(&[c]);
        assert!(vm.spawn("Main", "main", &[Value::Int(1)]).is_err());
        assert!(vm.spawn("Nope", "main", &[]).is_err());
        assert!(vm.spawn("Main", "nope", &[]).is_err());
    }

    #[test]
    fn duplicate_class_rejected() {
        let c = main_class(vec![Instr::Ret], vec![1], 0);
        let mut vm = vm_with(std::slice::from_ref(&c));
        assert!(matches!(vm.load_class(&c), Err(VmError::DuplicateClass(_))));
    }
}
