//! Static analysis over method bodies.
//!
//! Two results feed the SOD machinery:
//!
//! 1. **Operand-stack depth at every pc**, computed by abstract
//!    interpretation over the control-flow graph. Verification requires the
//!    depth to be consistent across all paths reaching a pc (the same rule
//!    the JVM verifier enforces), which is what makes depths well-defined.
//! 2. **Migration-safe points (MSPs)**: pcs that start a source line *and*
//!    have depth 0. The paper: "migration-safe points are essentially
//!    located at the first bytecode instruction of a source code line where
//!    the operand stack is always empty."
//!
//! The preprocessor's statement rearrangement exists precisely to maximise
//! MSP density; [`method_summary`] is how it (and the capture machinery)
//! observes the result.

use crate::class::{ClassDef, MethodDef};
use crate::error::{VmError, VmResult};
use crate::instr::Instr;

/// Analysis results for one method.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodSummary {
    /// Operand-stack depth on entry to each instruction; `None` for
    /// unreachable instructions.
    pub depth: Vec<Option<u32>>,
    /// Maximum operand-stack depth anywhere in the method.
    pub max_stack: u32,
    /// `msp[pc]` — pc is a migration-safe point.
    pub msp: Vec<bool>,
}

impl MethodSummary {
    /// Whether `pc` is a migration-safe point.
    pub fn is_msp(&self, pc: u32) -> bool {
        self.msp.get(pc as usize).copied().unwrap_or(false)
    }

    /// All migration-safe pcs.
    pub fn msp_pcs(&self) -> impl Iterator<Item = u32> + '_ {
        self.msp
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(pc, _)| pc as u32)
    }
}

/// Compute the [`MethodSummary`] for `method` of `class`, verifying stack
/// discipline along the way.
///
/// Exception-handler entry points are seeded with depth 1 (the thrown
/// exception reference is on the stack), matching JVM semantics.
pub fn method_summary(class: &ClassDef, method: &MethodDef) -> VmResult<MethodSummary> {
    let n = method.code.len();
    let mut depth: Vec<Option<u32>> = vec![None; n];
    let mut work: Vec<(u32, u32)> = Vec::with_capacity(16);

    if n > 0 {
        work.push((0, 0));
    }
    // Exception handlers are entered with the exception ref on the stack.
    for e in &method.ex_table {
        work.push((e.target, 1));
    }

    let verify_err = |reason: String| VmError::Verify {
        method: format!("{}.{}", class.name, method.name),
        reason,
    };

    // Arguments arrive in the first local slots, so a method's window must
    // hold at least its arguments.
    if method.nlocals < method.nargs {
        return Err(verify_err(format!(
            "{} local slots cannot hold {} arguments",
            method.nlocals, method.nargs
        )));
    }

    while let Some((pc, d)) = work.pop() {
        let idx = pc as usize;
        if idx >= n {
            return Err(verify_err(format!("branch to pc {pc} out of range")));
        }
        match depth[idx] {
            Some(existing) => {
                if existing != d {
                    return Err(verify_err(format!(
                        "inconsistent stack depth at pc {pc}: {existing} vs {d}"
                    )));
                }
                continue;
            }
            None => depth[idx] = Some(d),
        }

        let instr = &method.code[idx];
        let pops = instr.stack_effect().pops;
        if d < pops {
            return Err(verify_err(format!(
                "stack underflow at pc {pc}: {instr:?} needs {pops} values, has {d}"
            )));
        }

        // A virtual call dispatches on its receiver, the deepest argument.
        if let Instr::InvokeVirtual(_, 0) = instr {
            return Err(verify_err(format!(
                "virtual call at pc {pc} has no receiver"
            )));
        }

        if let Instr::Switch(t) = instr {
            let table = method
                .switches
                .get(*t as usize)
                .ok_or_else(|| verify_err(format!("switch table {t} missing")))?;
            let after = d - 1;
            for target in table.targets() {
                work.push((target, after));
            }
            continue;
        }

        match instr.stack_delta() {
            Some(delta) => {
                let after = (d as i32 + delta) as u32;
                for t in instr.branch_targets() {
                    work.push((t, after));
                }
                if instr.falls_through() {
                    work.push((pc + 1, after));
                }
            }
            None => {
                // Return or throw: no successors.
            }
        }
    }

    let max_stack = depth
        .iter()
        .zip(&method.code)
        .map(|(d, i)| d.map_or(0, |d| d.saturating_add(positive_delta(i))))
        .max()
        .unwrap_or(0);

    let mut msp = vec![false; n];
    for pc in 0..n {
        if method.is_line_start(pc as u32) && depth[pc] == Some(0) {
            msp[pc] = true;
        }
    }

    Ok(MethodSummary {
        depth,
        max_stack,
        msp,
    })
}

fn positive_delta(i: &Instr) -> u32 {
    i.stack_delta().map_or(0, |d| d.max(0) as u32)
}

/// Verify every method in a class, returning summaries in method order.
pub fn class_summaries(class: &ClassDef) -> VmResult<Vec<MethodSummary>> {
    class
        .methods
        .iter()
        .map(|m| method_summary(class, m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassDef, ExEntry, ExKind, MethodDef};
    use crate::instr::{Cmp, Instr, SwitchTable};

    fn cls(m: MethodDef) -> ClassDef {
        ClassDef::new("T").with_method(m)
    }

    #[test]
    fn straight_line_depths() {
        // line 1: push push add store ; line 2: ret
        let m = MethodDef::new("m", 0, 1).with_code(
            vec![
                Instr::PushI(1),
                Instr::PushI(2),
                Instr::Add,
                Instr::Store(0),
                Instr::Ret,
            ],
            vec![1, 1, 1, 1, 2],
        );
        let c = cls(m);
        let s = method_summary(&c, c.method("m").unwrap()).unwrap();
        assert_eq!(s.depth, vec![Some(0), Some(1), Some(2), Some(1), Some(0)]);
        assert_eq!(s.max_stack, 2);
        // pc 0 is a line start at depth 0 => MSP; pc 4 (line 2) also.
        assert!(s.is_msp(0));
        assert!(!s.is_msp(1));
        assert!(s.is_msp(4));
    }

    #[test]
    fn branch_join_consistent() {
        // if (x == 0) goto L; push; L: (depth must match: 0 via both)
        let m = MethodDef::new("m", 1, 0).with_code(
            vec![
                Instr::Load(0),
                Instr::IfZ(Cmp::Eq, 4),
                Instr::PushI(1),
                Instr::Store(0),
                Instr::Ret,
            ],
            vec![1, 1, 2, 2, 3],
        );
        let c = cls(m);
        let s = method_summary(&c, c.method("m").unwrap()).unwrap();
        assert_eq!(s.depth[4], Some(0));
        assert!(s.is_msp(4));
    }

    #[test]
    fn inconsistent_depth_rejected() {
        // Path A reaches pc 3 with depth 1, path B with depth 0.
        let m = MethodDef::new("m", 1, 0).with_code(
            vec![
                Instr::Load(0),
                Instr::IfZ(Cmp::Eq, 3), // jumps to 3 with depth 0
                Instr::PushI(7),        // falls into 3 with depth 1
                Instr::Ret,
            ],
            vec![1, 1, 2, 3],
        );
        let c = cls(m);
        let err = method_summary(&c, c.method("m").unwrap()).unwrap_err();
        assert!(matches!(err, VmError::Verify { .. }));
    }

    #[test]
    fn underflow_rejected() {
        let m = MethodDef::new("m", 0, 0).with_code(vec![Instr::Add, Instr::Ret], vec![1, 1]);
        let c = cls(m);
        assert!(method_summary(&c, c.method("m").unwrap()).is_err());
    }

    #[test]
    fn fewer_locals_than_arguments_rejected() {
        // Only a hand-built (or hostile, wire-decoded) definition can say
        // this; the builder always allots `nargs + extra` slots.
        let mut m = MethodDef::new("m", 2, 0).with_code(vec![Instr::Ret], vec![1]);
        m.nlocals = 1;
        let c = cls(m);
        let err = method_summary(&c, c.method("m").unwrap()).unwrap_err();
        assert!(matches!(err, VmError::Verify { .. }));
    }

    #[test]
    fn a_virtual_call_without_a_receiver_is_refused() {
        // `InvokeVirtual(_, 0)` pops nothing, so the depth rules admit it;
        // run, it would read its receiver from past the stack's top.
        let mut c = ClassDef::new("T");
        let m = c.intern("m");
        c.methods.push(
            MethodDef::new("m", 0, 0)
                .with_code(vec![Instr::InvokeVirtual(m, 0), Instr::Ret], vec![1, 1]),
        );
        let shipped = crate::wire::decode_class(crate::wire::encode_class(&c).unwrap()).unwrap();
        for def in [&c, &shipped] {
            let err = crate::interp::Vm::new().load_class(def).unwrap_err();
            assert!(matches!(err, VmError::Verify { .. }), "{err:?}");
        }
        // Nor does the preprocessor, which reads every pc, find a receiver.
        assert_eq!(Instr::InvokeVirtual(m, 0).deref_depth(), None);
        assert_eq!(Instr::InvokeVirtual(m, 2).deref_depth(), Some(1));
    }

    #[test]
    fn branch_out_of_range_rejected() {
        let m = MethodDef::new("m", 0, 0).with_code(vec![Instr::Goto(9)], vec![1]);
        let c = cls(m);
        assert!(method_summary(&c, c.method("m").unwrap()).is_err());
    }

    #[test]
    fn handler_entered_with_exception_on_stack() {
        let m = MethodDef::new("m", 0, 1)
            .with_code(
                vec![
                    Instr::PushNull, // 0 (line 1)
                    Instr::Store(0), // 1
                    Instr::Ret,      // 2 (line 2)
                    Instr::Pop,      // 3 handler: pops the exception
                    Instr::Ret,      // 4
                ],
                vec![1, 1, 2, 3, 3],
            )
            .with_ex_table(vec![ExEntry::new(0, 2, 3, ExKind::NullPointer)]);
        let c = cls(m);
        let s = method_summary(&c, c.method("m").unwrap()).unwrap();
        assert_eq!(s.depth[3], Some(1));
        // Handler start is a line start but has depth 1 => not an MSP.
        assert!(!s.is_msp(3));
    }

    #[test]
    fn switch_targets_analysed() {
        let m = MethodDef::new("m", 1, 0)
            .with_code(
                vec![
                    Instr::Load(0),   // 0
                    Instr::Switch(0), // 1
                    Instr::Ret,       // 2
                    Instr::Ret,       // 3
                ],
                vec![1, 1, 2, 3],
            )
            .with_switches(vec![SwitchTable {
                pairs: vec![(5, 3)],
                default: 2,
            }]);
        let c = cls(m);
        let s = method_summary(&c, c.method("m").unwrap()).unwrap();
        assert_eq!(s.depth[2], Some(0));
        assert_eq!(s.depth[3], Some(0));
    }

    #[test]
    fn unreachable_code_has_no_depth() {
        let m = MethodDef::new("m", 0, 0)
            .with_code(vec![Instr::Ret, Instr::PushI(1), Instr::Ret], vec![1, 2, 2]);
        let c = cls(m);
        let s = method_summary(&c, c.method("m").unwrap()).unwrap();
        assert_eq!(s.depth[1], None);
        assert!(!s.is_msp(1));
    }

    #[test]
    fn max_stack_accounts_for_peak_inside_instruction() {
        // Depth before Add is 2, and Add's positive contribution is 0, so
        // max_stack is 2 at the Add.
        let m = MethodDef::new("m", 0, 0).with_code(
            vec![Instr::PushI(1), Instr::PushI(2), Instr::Add, Instr::RetV],
            vec![1, 1, 1, 1],
        );
        let c = cls(m);
        let s = method_summary(&c, c.method("m").unwrap()).unwrap();
        assert_eq!(s.max_stack, 2);
    }
}
