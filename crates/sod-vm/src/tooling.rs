//! The tooling interface: a JVMTI work-alike with explicit virtual costs.
//!
//! The SOD paper's middleware deliberately stays *outside* the JVM, using
//! JVMTI to read frames and locals. That choice is portable but not free:
//! the paper measures `GetLocal<Type>` at ≈30 µs against ≈1 µs for
//! `GetFrameLocation`, and it is exactly this asymmetry that makes SODEE's
//! capture slower than JESSICA2's in-kernel capture (Table IV). The
//! `JVMTI_*` rows of the cost table ([`crate::costs`]) price each call.
//!
//! All tooling operations charge a [`CostMeter`] owned by the caller; the
//! meter's total becomes capture time in the migration latency breakdowns
//! when the capture takes the [`ToolingPath::Jvmti`] path. A destination
//! without JVMTI takes [`ToolingPath::Portable`] instead, which reads the
//! same frames and is priced on the captured state's wire size.
//!
//! Frames are read by one walk, [`Tooling::get_frames`]: the operand
//! stacks of a capturable segment are empty, so its locals are one
//! contiguous run of the thread's value stack, and the walk copies it
//! frame by frame instead of making `2 + nlocals` fallible calls per
//! frame. What it charges is still what JVMTI's calls cost one by one —
//! `JVMTI_FRAME` per frame and `JVMTI_GET_LOCAL` per slot — so the
//! asymmetry above stays priced where it is documented: a 129-frame,
//! 5-slot stack costs 19 858 µs of JVMTI virtual time, as it did call by
//! call (`capture.rs` pins the number).

use crate::capture::{CapturedValue, Frames};
use crate::costs::{JVMTI_FRAME, JVMTI_GET_LOCAL, JVMTI_GET_STATIC, JVMTI_SUSPEND};
use crate::error::{VmError, VmResult};
use crate::interp::Vm;

/// Accumulates virtual nanoseconds charged by tooling operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostMeter {
    pub ns: u64,
}

impl CostMeter {
    pub fn new() -> Self {
        CostMeter::default()
    }

    pub fn charge(&mut self, ns: u64) {
        self.ns += ns;
    }

    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.ns)
    }
}

/// How a capture is read and priced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ToolingPath {
    /// Through JVMTI, charging each call (the destination has JVMTI).
    Jvmti,
    /// Saved with Java serialization into a portable format, restorable
    /// without JVMTI: priced by the `PORTABLE_CAPTURE` row on the state's
    /// wire size (paper Table VII).
    Portable,
}

impl ToolingPath {
    /// The path a capture for a destination takes.
    pub fn for_destination(has_jvmti: bool) -> Self {
        match has_jvmti {
            true => ToolingPath::Jvmti,
            false => ToolingPath::Portable,
        }
    }
}

/// A tooling session over a VM: JVMTI-flavoured accessors that charge a
/// cost meter.
pub struct Tooling<'a> {
    vm: &'a mut Vm,
    pub meter: CostMeter,
}

impl<'a> Tooling<'a> {
    pub fn new(vm: &'a mut Vm) -> Self {
        Tooling {
            vm,
            meter: CostMeter::new(),
        }
    }

    /// Suspend the target thread (charges the per-migration fixed cost).
    /// Our VM threads are always suspendable between instructions, so this
    /// is purely an accounting operation.
    pub fn suspend_thread(&mut self, _tid: usize) {
        self.meter.charge(JVMTI_SUSPEND.fixed);
    }

    /// The one frame walk: every frame of thread `tid` from bottom-up index
    /// `bottom` to the top, as the segment a capture ships. Per frame this
    /// is JVMTI's `GetFrameLocation` (class, method, pc), the
    /// `GetLocalVariableTable` step and one `GetLocal<Type>` per slot, with
    /// references mapped to their home object ids — charged in one sum,
    /// `JVMTI_FRAME` per frame and `JVMTI_GET_LOCAL` per slot, which is
    /// what the calls cost one by one. The names are the linked class's own
    /// shared `Arc`s, cloned once per run of same-method frames; the values
    /// are copied straight off the thread's value stack.
    pub fn get_frames(&mut self, tid: usize, bottom: usize) -> VmResult<Frames> {
        let vm = &*self.vm;
        let t = vm.thread(tid)?;
        let segment = t.frames.get(bottom..).unwrap_or_default();
        let Some(first) = segment.first() else {
            return Err(VmError::BadThread(tid));
        };
        let mut frames = Frames::with_capacity(segment.len(), t.stack.len() - first.base);
        let mut run = None;
        for f in segment {
            let method = (f.class_idx, f.method_idx);
            if run != Some(method) {
                let c = &vm.classes[f.class_idx];
                frames.open_run(
                    c.name_arc().clone(),
                    c.method_name_arc(f.method_idx).clone(),
                );
                run = Some(method);
            }
            for &v in &t.stack[f.base..f.floor()] {
                frames.push_value(vm.export_value(v));
            }
            frames.end_frame(f.pc)?;
        }
        let (nframes, nslots) = (frames.len() as u64, frames.value_count() as u64);
        self.meter
            .charge(JVMTI_FRAME.of(nframes) + JVMTI_GET_LOCAL.of(nslots));
        Ok(frames)
    }

    /// Read one static field (for capture).
    pub fn get_static(&mut self, class_idx: usize, static_idx: usize) -> VmResult<CapturedValue> {
        self.meter.charge(JVMTI_GET_STATIC.of(1));
        let v = self.vm.classes[class_idx].statics.get(static_idx);
        Ok(self
            .vm
            .export_value(*v.ok_or_else(|| VmError::BadPoolIndex(static_idx as u16))?))
    }

    /// Access the underlying VM (no charge).
    pub fn vm(&mut self) -> &mut Vm {
        self.vm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassDef, MethodDef};
    use crate::costs::JESSICA2_CAPTURE;
    use crate::instr::Instr;

    fn sample_vm() -> (Vm, usize) {
        let mut c = ClassDef::new("Main");
        let main_n = c.intern("Main");
        let f = c.intern("f");
        c.methods.push(MethodDef::new("main", 0, 1).with_code(
            vec![
                Instr::PushI(7),
                Instr::Store(0),
                Instr::Load(0),
                Instr::InvokeStatic(main_n, f, 1),
                Instr::RetV,
            ],
            vec![1, 1, 2, 2, 2],
        ));
        c.methods
            .push(MethodDef::new("f", 1, 0).with_code(vec![Instr::Goto(0)], vec![1]));
        let mut vm = Vm::new();
        vm.load_class(&c).unwrap();
        let tid = vm.spawn("Main", "main", &[]).unwrap();
        // Run into the callee's infinite loop.
        vm.run(tid, 500, crate::interp::RunMode::Normal).unwrap();
        (vm, tid)
    }

    #[test]
    fn frame_inspection() {
        let (mut vm, tid) = sample_vm();
        let mut t = Tooling::new(&mut vm);
        let frames = t.get_frames(tid, 0).unwrap();
        assert_eq!(frames.len(), 2);
        let (main, f) = (frames.get(0).unwrap(), frames.get(1).unwrap());
        assert_eq!((f.class, f.method), ("Main", "f"));
        assert_eq!(main.method, "main");
        assert_eq!(main.pc, 3); // parked at the invoke
        assert_eq!(f.locals, [CapturedValue::Int(7)]);
        // The walk can start above the bottom frame, not above the top.
        assert_eq!(t.get_frames(tid, 1).unwrap().get(0), Some(f));
        assert!(matches!(t.get_frames(tid, 2), Err(VmError::BadThread(_))));
        assert!(matches!(t.get_frames(9, 0), Err(VmError::BadThread(9))));
    }

    #[test]
    fn jvmti_charges_more_than_internal() {
        let (mut vm, tid) = sample_vm();
        let mut t = Tooling::new(&mut vm);
        t.suspend_thread(tid);
        t.get_frames(tid, 1).unwrap();
        // One frame of one slot: a location, a variable table, a local.
        assert_eq!(t.meter.ns, 250_000 + 2 * 1_000 + 30_000);
        assert_eq!(
            t.meter.ns,
            JVMTI_SUSPEND.fixed + JVMTI_FRAME.of(1) + JVMTI_GET_LOCAL.of(1)
        );
        // JESSICA2 reads the same frame from inside the JVM.
        assert!(t.meter.ns > 5 * JESSICA2_CAPTURE.of(1));
    }

    #[test]
    fn meter_take_resets() {
        let mut m = CostMeter::new();
        m.charge(100);
        assert_eq!(m.take(), 100);
        assert_eq!(m.ns, 0);
    }
}
