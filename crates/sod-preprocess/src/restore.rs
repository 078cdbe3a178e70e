//! Pass 3: restoration-handler injection (the paper's §III.B.2, Fig. 4).
//!
//! Each method gets a whole-body `catch (InvalidStateException)` whose
//! handler
//!
//! 1. pops the injected exception,
//! 2. re-installs every local variable from the shipped `CapturedState`
//!    (the paper's `CapturedState.read<Type>` calls; our fused
//!    [`Instr::RestoreLocal`]),
//! 3. pushes the captured pc and `lookupswitch`-jumps to the point where
//!    the thread was suspended.
//!
//! Switch keys cover every possible captured pc: migration-safe points map
//! to themselves; call sites (the pc a non-top frame is parked at) map to
//! the *start of their source line*, so the re-executed statement re-pushes
//! the arguments — side-effect-free after rearrangement — and re-invokes
//! the next method up, which is how the breakpoint-driven protocol
//! re-creates frame after frame.

use sod_vm::analysis::method_summary;
use sod_vm::class::{ClassDef, ExEntry, ExKind};
use sod_vm::error::VmResult;
use sod_vm::instr::{Call, Instr, SwitchTable};

use crate::splice::{line_start, max_line};

/// Inject a restoration handler into every non-empty method. Returns the
/// number of handlers added.
pub fn inject_restoration_handlers(class: &mut ClassDef) -> VmResult<usize> {
    let mut added = 0;
    for mi in 0..class.methods.len() {
        if class.methods[mi].code.is_empty() {
            continue;
        }
        inject_into_method(class, mi)?;
        added += 1;
    }
    Ok(added)
}

fn inject_into_method(class: &mut ClassDef, method_idx: usize) -> VmResult<()> {
    let summary = method_summary(class, &class.methods[method_idx])?;
    let m = &mut class.methods[method_idx];
    let body_end = m.code.len() as u32;

    // Switch pairs: every resumable pc maps to its re-entry point.
    let mut pairs: Vec<(i64, u32)> = Vec::new();
    for pc in 0..body_end {
        let is_stmt_start = m.is_line_start(pc) && summary.depth[pc as usize] == Some(0);
        if is_stmt_start {
            pairs.push((i64::from(pc), pc));
        } else if m.code[pc as usize].call() == Some(Call::Guest) {
            pairs.push((i64::from(pc), line_start(m, pc)));
        }
    }
    pairs.dedup_by_key(|(k, _)| *k);

    let handler_line = max_line(m) + 1;
    let handler_pc = m.code.len() as u32;
    let nlocals = m.nlocals;

    let emit = |m: &mut sod_vm::class::MethodDef, i: Instr| {
        m.code.push(i);
        m.lines.push(handler_line);
    };

    emit(m, Instr::Pop);
    for slot in 0..nlocals {
        emit(m, Instr::RestoreLocal(slot));
    }
    emit(m, Instr::ReadCapturedPc);
    let switch_idx = m.switches.len() as u16;
    emit(m, Instr::Switch(switch_idx));
    // Default target: a stub that loudly rejects an unexpected captured pc.
    let stub_pc = m.code.len() as u32;
    emit(m, Instr::ThrowKind(ExKind::User(998)));

    m.switches.push(SwitchTable {
        pairs,
        default: stub_pc,
    });
    m.ex_table
        .push(ExEntry::new(0, body_end, handler_pc, ExKind::InvalidState));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::inject_fault_handlers;
    use crate::rearrange::rearrange_class;
    use sod_asm::builder::ClassBuilder;
    use sod_vm::analysis::class_summaries;
    use sod_vm::capture::{begin_handler_restore, capture_segment, restore_segment_direct};
    use sod_vm::interp::{RunMode, StepOutcome, Vm};
    use sod_vm::tooling::ToolingPath;
    use sod_vm::value::{TypeOf, Value};

    /// Two-level program: main(a) computes f(a) + 100 where f loops.
    fn program() -> ClassDef {
        let c = ClassBuilder::new("W")
            .static_field("bias", TypeOf::Int)
            .method("f", &["n"], |m| {
                m.line();
                m.pushi(0).store("i");
                m.pushi(0).store("acc");
                m.line();
                m.label("loop");
                m.load("i").load("n").if_cmp(sod_vm::instr::Cmp::Ge, "done");
                m.line();
                m.load("acc").load("i").add().store("acc");
                m.line();
                m.load("i").pushi(1).add().store("i").goto("loop");
                m.line();
                m.label("done");
                m.load("acc").getstatic("W", "bias").add().retv();
            })
            .method("main", &["a"], |m| {
                m.line();
                m.pushi(100).putstatic("W", "bias");
                m.line();
                m.load("a").invoke("W", "f", 1).store("r");
                m.line();
                m.load("r").retv();
            })
            .build()
            .unwrap();
        let mut p = c;
        rearrange_class(&mut p).unwrap();
        inject_fault_handlers(&mut p).unwrap();
        inject_restoration_handlers(&mut p).unwrap();
        class_summaries(&p).unwrap();
        p
    }

    /// Drive the breakpoint → InvalidState → handler protocol to completion
    /// on a fresh VM, then run to the final result.
    fn handler_restore_and_run(
        class: &ClassDef,
        state: &sod_vm::capture::CapturedState,
    ) -> Option<Value> {
        let mut vm = Vm::new();
        vm.load_class(class).unwrap();
        let tid = begin_handler_restore(&mut vm, state).unwrap();
        let mut restored = 0usize;
        loop {
            let (out, _) = vm.run(tid, u64::MAX, RunMode::Normal).unwrap();
            match out {
                StepOutcome::Breakpoint { .. } => {
                    // cbBreakpoint: arm next frame's entry breakpoint, set
                    // the cursor, throw InvalidState.
                    vm.threads[tid].restore_session.as_mut().unwrap().cursor = restored;
                    restored += 1;
                    if let Some(next) = state.frames.get(restored) {
                        let (ci, mi) = next.resolve_in(&vm).unwrap();
                        vm.set_breakpoint(tid, ci, mi, 0);
                    }
                    vm.throw_into(tid, ExKind::InvalidState, "restore", false)
                        .unwrap();
                }
                StepOutcome::Returned(v) => {
                    // The top handler's last read released the captured values.
                    assert!(vm.threads[tid].restore_session.is_none());
                    return v;
                }
                other => panic!("unexpected outcome during restore: {other:?}"),
            }
        }
    }

    #[test]
    fn handler_restore_matches_direct_restore() {
        let p = program();
        // Run at home until somewhere inside f's loop, then capture both
        // frames at an MSP.
        let n: i64 = 100_000;
        let mut home = Vm::new();
        home.load_class(&p).unwrap();
        let tid = home.spawn("W", "main", &[Value::Int(n)]).unwrap();
        while home.thread(tid).unwrap().frames.len() != 2 {
            home.step(tid).unwrap();
        }
        // Let the loop spin a while before interrupting.
        home.run(tid, 5_000, RunMode::Normal).unwrap();
        assert_eq!(home.thread(tid).unwrap().frames.len(), 2, "should be in f");
        let (out, _) = home.run(tid, u64::MAX, RunMode::StopAtMsp).unwrap();
        assert!(matches!(out, StepOutcome::AtMsp { .. }));
        let (state, _) = capture_segment(&mut home, tid, 2, ToolingPath::Jvmti).unwrap();

        // Direct restore path.
        let direct = {
            let mut vm = Vm::new();
            vm.load_class(&p).unwrap();
            let wtid = restore_segment_direct(&mut vm, &state).unwrap();
            let (out, _) = vm.run(wtid, u64::MAX, RunMode::Normal).unwrap();
            match out {
                StepOutcome::Returned(v) => v,
                other => panic!("direct restore failed: {other:?}"),
            }
        };

        // Handler-based restore path.
        let via_handlers = handler_restore_and_run(&p, &state);

        // Both must equal the uninterrupted result: sum 0..n + bias.
        let expected = Some(Value::Int(n * (n - 1) / 2 + 100));
        assert_eq!(direct, expected);
        assert_eq!(via_handlers, expected);
    }

    #[test]
    fn switch_covers_invoke_sites() {
        let p = program();
        let main = p.method("main").unwrap();
        // The last switch table belongs to the restoration handler.
        let table = main.switches.last().unwrap();
        // Find the invoke pc.
        let invoke_pc = main
            .code
            .iter()
            .position(|i| matches!(i, Instr::InvokeStatic(_, _, _)))
            .unwrap() as i64;
        let target = table
            .pairs
            .iter()
            .find(|(k, _)| *k == invoke_pc)
            .map(|(_, t)| *t);
        assert!(target.is_some(), "invoke site must be a switch key");
        // Its target is the start of the invoke's line.
        let t = target.unwrap();
        assert!(main.is_line_start(t));
    }

    #[test]
    fn every_method_gets_one_handler() {
        let p = program();
        for m in &p.methods {
            let n = m
                .ex_table
                .iter()
                .filter(|e| e.kind == ExKind::InvalidState)
                .count();
            assert_eq!(n, 1, "method {}", m.name);
        }
    }
}
