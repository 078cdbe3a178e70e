//! Pass 2a: object-fault handler injection (the paper's §III.C).
//!
//! For every statement that dereferences an object reference, append a
//! `catch (NullPointerException)` handler that
//!
//! 1. pops the exception,
//! 2. calls the object manager to bring the missed object from the home
//!    node and rebind the null link that faulted (`BringObj*`),
//! 3. `goto`s back to the start of the statement to retry it — "the
//!    handler realizes this by a goto instruction jumping to where the null
//!    pointer exception just occurs", with rearrangement guaranteeing the
//!    operand stack is empty at the retry point.
//!
//! After rearrangement every dereferenced base is loaded from a local slot
//! within the statement, so the handler is almost always a single
//! `BringObjLocal(slot)`. For non-rearranged code (an ablation mode) the
//! pass also recognises `base.field` and `base[idx]` chains and emits the
//! paper's hardcoded-slot chain handlers.
//!
//! The injected exception-table entries are marked `fault_handler` and
//! placed ahead of user entries: a *genuine* application NPE detected by the
//! object manager is re-delivered with fault handlers suppressed, exactly
//! like the paper's application-level NPE rethrow.

use sod_vm::analysis::method_summary;
use sod_vm::class::{ClassDef, ExEntry, ExKind};
use sod_vm::error::VmResult;
use sod_vm::instr::{Instr, StackEffect};

use crate::splice::max_line;

/// Provenance of a dereferenced reference within one statement. There is
/// no unknown case: the analysis holds `None` where provenance is unknown,
/// so every `Prov` is one a handler can repair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Prov {
    /// Loaded from a local slot.
    Local(u16),
    /// `local.field` (pool index of the field name).
    FieldOfLocal(u16, u16),
    /// `Class.field` static (pool indices).
    Static(u16, u16),
    /// `local[local]` array element.
    ElemOfLocal(u16, u16),
}

/// Inject fault handlers into every method of `class`; returns the number
/// of handlers added.
pub fn inject_fault_handlers(class: &mut ClassDef) -> VmResult<usize> {
    let mut total = 0;
    for mi in 0..class.methods.len() {
        total += inject_into_method(class, mi)?;
    }
    Ok(total)
}

fn inject_into_method(class: &mut ClassDef, method_idx: usize) -> VmResult<usize> {
    let summary = method_summary(class, &class.methods[method_idx])?;
    let body_end = class.methods[method_idx].code.len() as u32;

    // Collect statements: (start, end) half-open pc ranges of one line.
    let mut statements: Vec<(u32, u32)> = Vec::new();
    {
        let m = &class.methods[method_idx];
        let mut start = 0u32;
        for pc in 1..=m.code.len() as u32 {
            let boundary =
                pc == m.code.len() as u32 || m.lines[pc as usize] != m.lines[start as usize];
            if boundary {
                statements.push((start, pc));
                start = pc;
            }
        }
    }

    // Plan handlers: (statement start/end, provenance).
    let mut plans: Vec<(u32, u32, Prov)> = Vec::new();
    for &(start, end) in &statements {
        if summary.depth[start as usize] != Some(0) {
            continue; // not a statement start (e.g. handler entry)
        }
        let m = &class.methods[method_idx];
        if let Some(prov) = statement_deref_prov(m, start, end) {
            plans.push((start, end, prov));
        }
    }

    if plans.is_empty() {
        return Ok(0);
    }

    // Scratch slot for Static/Elem rebinds.
    let needs_scratch = plans
        .iter()
        .any(|(_, _, p)| matches!(p, Prov::Static(_, _) | Prov::ElemOfLocal(_, _)));
    let scratch = class.methods[method_idx].nlocals;
    if needs_scratch {
        class.methods[method_idx].nlocals += 1;
    }

    let first_handler_line = max_line(&class.methods[method_idx]) + 1;
    let mut new_entries: Vec<ExEntry> = Vec::new();
    let count = plans.len();

    for (handler_line, (start, end, prov)) in (first_handler_line..).zip(plans) {
        let m = &mut class.methods[method_idx];
        let handler_pc = m.code.len() as u32;
        let emit = |code: &mut Vec<Instr>, lines: &mut Vec<u32>, i: Instr| {
            code.push(i);
            lines.push(handler_line);
        };
        // Split borrows: take code & lines out to satisfy the borrow checker.
        let mut code = std::mem::take(&mut m.code);
        let mut lines = std::mem::take(&mut m.lines);
        emit(&mut code, &mut lines, Instr::Pop);
        match prov {
            Prov::Local(s) => {
                emit(&mut code, &mut lines, Instr::BringObjLocal(s));
                emit(&mut code, &mut lines, Instr::Goto(start));
            }
            Prov::FieldOfLocal(s, f) => {
                // if (local[s] == null) fix the base, else fix base.field.
                let lb = handler_pc + 1 /*Pop*/ + 4;
                emit(&mut code, &mut lines, Instr::Load(s));
                emit(&mut code, &mut lines, Instr::IfNull(lb));
                emit(&mut code, &mut lines, Instr::BringObjField(s, f));
                emit(&mut code, &mut lines, Instr::Goto(start));
                debug_assert_eq!(code.len() as u32, lb);
                emit(&mut code, &mut lines, Instr::BringObjLocal(s));
                emit(&mut code, &mut lines, Instr::Goto(start));
            }
            Prov::Static(c, f) => {
                emit(
                    &mut code,
                    &mut lines,
                    Instr::BringObjStaticTo(c, f, scratch),
                );
                emit(&mut code, &mut lines, Instr::Goto(start));
            }
            Prov::ElemOfLocal(s, i) => {
                let lb = handler_pc + 1 + 4;
                emit(&mut code, &mut lines, Instr::Load(s));
                emit(&mut code, &mut lines, Instr::IfNull(lb));
                emit(&mut code, &mut lines, Instr::BringObjElemTo(s, i, scratch));
                emit(&mut code, &mut lines, Instr::Goto(start));
                debug_assert_eq!(code.len() as u32, lb);
                emit(&mut code, &mut lines, Instr::BringObjLocal(s));
                emit(&mut code, &mut lines, Instr::Goto(start));
            }
        }
        m.code = code;
        m.lines = lines;
        new_entries.push(
            ExEntry::new(start, end.min(body_end), handler_pc, ExKind::NullPointer)
                .as_fault_handler(),
        );
    }

    // Fault entries go first so they win over user NPE handlers; the
    // interpreter suppresses them for application-level NPEs.
    let m = &mut class.methods[method_idx];
    new_entries.append(&mut m.ex_table);
    m.ex_table = new_entries;
    Ok(count)
}

/// Analyse the derefs of one statement and pick a handler provenance.
///
/// * **Single-deref statements** (guaranteed by rearrangement): the
///   provenance of the dereferenced reference — almost always `Local`.
/// * **Multi-deref statements** (non-rearranged ablation input): only the
///   two-level chain `local.field.<deref>` is supported — the chain handler
///   can repair either link without retry livelock. Anything else gets no
///   handler (the NPE surfaces as an application NPE), which quantifies
///   exactly why the paper pairs fault handlers with rearrangement.
///
/// `None` (no handler) also when control flow is inside the statement.
fn statement_deref_prov(m: &sod_vm::class::MethodDef, start: u32, end: u32) -> Option<Prov> {
    let mut stack: Vec<Option<Prov>> = Vec::with_capacity(8);
    // The first deref's provenance, once the statement has one.
    let mut first: Option<Option<Prov>> = None;
    for pc in start..end {
        let instr = &m.code[pc as usize];
        let is_deref = instr.is_deref() && !matches!(instr, Instr::Throw);
        if is_deref {
            let depth = instr.deref_depth()? as usize;
            let p = *stack.get(stack.len().checked_sub(1 + depth)?)?;
            if first.is_some() {
                // Second deref: safe only for the two-level chain.
                return p.filter(|p| matches!(p, Prov::FieldOfLocal(..) | Prov::ElemOfLocal(..)));
            }
            first = Some(p);
        }
        match instr {
            Instr::Load(s) => stack.push(Some(Prov::Local(*s))),
            Instr::GetStatic(c, f) => stack.push(Some(Prov::Static(*c, *f))),
            Instr::GetField(f) => {
                let base = stack.pop()?;
                stack.push(match base {
                    Some(Prov::Local(s)) => Some(Prov::FieldOfLocal(s, *f)),
                    _ => None,
                });
            }
            Instr::ALoad => {
                let idx = stack.pop()?;
                let base = stack.pop()?;
                stack.push(match (base, idx) {
                    (Some(Prov::Local(s)), Some(Prov::Local(i))) => Some(Prov::ElemOfLocal(s, i)),
                    _ => None,
                });
            }
            Instr::Dup => {
                let top = *stack.last()?;
                stack.push(top);
            }
            Instr::Swap => {
                let n = stack.len();
                if n < 2 {
                    return None;
                }
                stack.swap(n - 1, n - 2);
            }
            Instr::If(_, _)
            | Instr::IfZ(_, _)
            | Instr::IfNull(_)
            | Instr::IfNonNull(_)
            | Instr::Goto(_)
            | Instr::Switch(_) => return None,
            other => {
                // Generic: pop per demand, push unknowns per effect.
                let StackEffect { pops, pushes } = other.stack_effect();
                if pops as usize > stack.len() {
                    return None;
                }
                for _ in 0..pops {
                    stack.pop();
                }
                let Some(pushes) = pushes else {
                    return first.flatten(); // return/throw ends the statement
                };
                for _ in 0..pushes {
                    stack.push(None);
                }
            }
        }
    }
    first.flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rearrange::rearrange_class;
    use sod_asm::builder::ClassBuilder;
    use sod_vm::class::ExKind;
    use sod_vm::interp::Vm;
    use sod_vm::value::{TypeOf, Value};

    fn point_class() -> ClassDef {
        ClassBuilder::new("P")
            .field("x", TypeOf::Int)
            .field("next", TypeOf::Ref)
            .vmethod("getx", &[], |m| {
                m.line();
                m.load("this").getfield("x").retv();
            })
            .method("main", &[], |m| {
                m.line();
                m.new_obj("P").store("p");
                m.line();
                m.load("p").pushi(7).putfield("x");
                m.line();
                m.load("p").invokev("getx", 1).retv();
            })
            .build()
            .unwrap()
    }

    #[test]
    fn handlers_added_and_marked() {
        let mut c = point_class();
        rearrange_class(&mut c).unwrap();
        let n = inject_fault_handlers(&mut c).unwrap();
        assert!(
            n >= 3,
            "expected handlers for field/call statements, got {n}"
        );
        let main = c.method("main").unwrap();
        assert!(main.ex_table.iter().any(|e| e.fault_handler));
        assert!(main
            .ex_table
            .iter()
            .all(|e| e.kind == ExKind::NullPointer || !e.fault_handler));
    }

    #[test]
    fn preprocessed_code_still_runs_locally() {
        let mut c = point_class();
        rearrange_class(&mut c).unwrap();
        inject_fault_handlers(&mut c).unwrap();
        let mut vm = Vm::new();
        vm.load_class(&c).unwrap();
        let r = vm.run_to_completion("P", "main", &[]).unwrap();
        assert_eq!(r, Some(Value::Int(7)));
    }

    #[test]
    fn genuine_npe_still_surfaces() {
        // q is never initialised: q.getx() must raise an application NPE
        // even though a fault handler covers the statement.
        let c = ClassBuilder::new("P")
            .field("x", TypeOf::Int)
            .vmethod("getx", &[], |m| {
                m.line();
                m.load("this").getfield("x").retv();
            })
            .method("main", &[], |m| {
                m.line();
                m.pushnull().store("q");
                m.line();
                m.load("q").invokev("getx", 1).retv();
            })
            .build()
            .unwrap();
        let mut p = c.clone();
        rearrange_class(&mut p).unwrap();
        inject_fault_handlers(&mut p).unwrap();
        let mut vm = Vm::new();
        vm.load_class(&p).unwrap();
        let err = vm.run_to_completion("P", "main", &[]).unwrap_err();
        assert!(matches!(
            err,
            sod_vm::error::VmError::UnhandledException {
                kind: ExKind::NullPointer,
                ..
            }
        ));
    }

    #[test]
    fn user_catch_still_sees_app_npe() {
        // User code catches NPE around a deref of a genuine null; the fault
        // handler must not swallow it.
        let c = ClassBuilder::new("P")
            .field("x", TypeOf::Int)
            .method("main", &[], |m| {
                m.line();
                m.pushnull().store("q");
                m.line();
                m.label("t0");
                m.load("q").getfield("x").retv();
                m.label("t1");
                m.line();
                m.label("h");
                m.pop().pushi(-1).retv();
                m.catch("t0", "t1", "h", ExKind::NullPointer);
            })
            .build()
            .unwrap();
        let mut p = c.clone();
        rearrange_class(&mut p).unwrap();
        inject_fault_handlers(&mut p).unwrap();
        let mut vm = Vm::new();
        vm.load_class(&p).unwrap();
        let r = vm.run_to_completion("P", "main", &[]).unwrap();
        assert_eq!(r, Some(Value::Int(-1)));
    }

    #[test]
    fn provenance_detects_local_chain() {
        // Without rearrangement, this.next.getx() derefs the result of a
        // GetField: provenance is FieldOfLocal(this, next).
        let c = ClassBuilder::new("P")
            .field("next", TypeOf::Ref)
            .vmethod("m", &[], |m| {
                m.line();
                m.load("this").getfield("next").invokev("getx", 1).retv();
            })
            .build()
            .unwrap();
        let m = c.method("m").unwrap();
        let prov = statement_deref_prov(m, 0, m.code.len() as u32).unwrap();
        match prov {
            Prov::FieldOfLocal(0, _) => {}
            other => panic!("expected FieldOfLocal, got {other:?}"),
        }
    }
}
