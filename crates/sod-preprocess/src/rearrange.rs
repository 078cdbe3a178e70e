//! Pass 1: statement rearrangement.
//!
//! The paper restricts migration to points where "the operand stacks of all
//! frames are empty"; to make such points dense, the preprocessor rewrites
//! each source line so intermediate values live in temporary locals rather
//! than on the operand stack. Concretely: after every *barrier* instruction
//! (field/array access, call, allocation, static access — see
//! [`sod_vm::instr::Instr::is_barrier`]) that is followed by more
//! instructions of the same line, we
//!
//! 1. spill the entire simulated operand stack into per-depth temporary
//!    locals (`Store tN .. t0`),
//! 2. start a new source line,
//! 3. reload the temporaries (`Load t0 .. tN`).
//!
//! The spill point ends a statement with an empty stack, so the new line
//! start is a migration-safe-point candidate; and since a cut follows
//! *every* barrier, each statement performs at most one barrier — the
//! property the object-fault pass relies on (the faulting reference is
//! always loaded from a local within the same statement).
//!
//! Because both the spill and the reload copy values verbatim, the
//! transformation preserves semantics exactly; a property test in this
//! crate runs randomized programs in both forms and compares results.

use sod_vm::analysis::method_summary;
use sod_vm::class::ClassDef;
use sod_vm::error::VmResult;
use sod_vm::instr::{Instr, StackEffect};

use crate::splice::remap_pcs;

/// Rearrangement statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RearrangeStats {
    pub cuts: usize,
    pub temps_added: usize,
}

/// Rearrange every method of `class` in place.
pub fn rearrange_class(class: &mut ClassDef) -> VmResult<RearrangeStats> {
    let mut stats = RearrangeStats::default();
    for mi in 0..class.methods.len() {
        let s = rearrange_method(class, mi)?;
        stats.cuts += s.cuts;
        stats.temps_added += s.temps_added;
    }
    Ok(stats)
}

/// Rearrange one method in place.
pub fn rearrange_method(class: &mut ClassDef, method_idx: usize) -> VmResult<RearrangeStats> {
    let summary = method_summary(class, &class.methods[method_idx])?;
    let method = &mut class.methods[method_idx];
    let old_len = method.code.len();

    let spill_base = method.nlocals;
    let mut max_spill = 0u16;
    let mut cuts = 0usize;

    let mut new_code: Vec<Instr> = Vec::with_capacity(old_len * 2);
    let mut new_lines: Vec<u32> = Vec::with_capacity(old_len * 2);
    let mut map: Vec<u32> = Vec::with_capacity(old_len);

    // Output line numbering: bump on each original line change and on each
    // cut, so every statement has a distinct line id.
    let mut out_line = 0u32;
    let mut last_in_line = u32::MAX;

    for pc in 0..old_len {
        let in_line = method.lines[pc];
        if in_line != last_in_line {
            out_line += 1;
            last_in_line = in_line;
        }

        let instr = method.code[pc];
        let falls = instr.falls_through();
        let is_barrier = instr.is_barrier();
        let is_call = matches!(
            instr,
            Instr::InvokeStatic(_, _, _) | Instr::InvokeVirtual(_, _) | Instr::NativeCall(_, _)
        );
        let depth_before = summary.depth[pc];
        let StackEffect { pops, pushes } = instr.stack_effect();

        // Calls with values *beneath* their arguments: spill everything,
        // reload just the arguments, call, then re-materialise the excess
        // under the result. This keeps the caller's operand stack equal to
        // the argument list at every call site, so migration-safe points
        // inside callees satisfy "the operand stacks of all frames are
        // empty" once the arguments are consumed.
        if let (true, true, Some(d), Some(pushes)) = (is_call, falls, depth_before, pushes) {
            if d > pops {
                cuts += 1;
                let excess = d - pops;
                for i in (0..d).rev() {
                    new_code.push(Instr::Store(spill_base + i as u16));
                    new_lines.push(out_line);
                }
                out_line += 1;
                for i in excess..d {
                    new_code.push(Instr::Load(spill_base + i as u16));
                    new_lines.push(out_line);
                }
                map.push(new_code.len() as u32);
                new_code.push(instr);
                new_lines.push(out_line);
                // Result(s) spill above the excess temps.
                for j in (0..pushes).rev() {
                    new_code.push(Instr::Store(spill_base + (d + j) as u16));
                    new_lines.push(out_line);
                }
                max_spill = max_spill.max((d + pushes) as u16);
                out_line += 1;
                for i in 0..excess {
                    new_code.push(Instr::Load(spill_base + i as u16));
                    new_lines.push(out_line);
                }
                for j in 0..pushes {
                    new_code.push(Instr::Load(spill_base + (d + j) as u16));
                    new_lines.push(out_line);
                }
                cuts += 1;
                continue;
            }
        }

        map.push(new_code.len() as u32);
        new_code.push(instr);
        new_lines.push(out_line);

        // Depth after executing this instruction (reachable instrs only).
        let depth_after = match (depth_before, method.code[pc].stack_delta()) {
            (Some(d), Some(delta)) => Some((d as i32 + delta) as u32),
            _ => None,
        };

        let more_in_line = pc + 1 < old_len && method.lines[pc + 1] == in_line;
        if is_barrier && falls && more_in_line {
            if let Some(depth) = depth_after {
                cuts += 1;
                // Spill the whole stack (top first), new line, reload.
                for i in (0..depth).rev() {
                    new_code.push(Instr::Store(spill_base + i as u16));
                    new_lines.push(out_line);
                }
                max_spill = max_spill.max(depth as u16);
                out_line += 1;
                for i in 0..depth {
                    new_code.push(Instr::Load(spill_base + i as u16));
                    new_lines.push(out_line);
                }
            }
        }
    }

    method.code = new_code;
    method.lines = new_lines;
    method.nlocals += max_spill;
    let new_len = method.code.len() as u32;
    remap_pcs(method, &map, new_len);

    Ok(RearrangeStats {
        cuts,
        temps_added: max_spill as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod_asm::builder::ClassBuilder;
    use sod_vm::analysis::method_summary;
    use sod_vm::interp::Vm;
    use sod_vm::value::{TypeOf, Value};

    /// A class with one long expression line mixing calls and field reads.
    fn sample() -> ClassDef {
        ClassBuilder::new("S")
            .static_field("acc", TypeOf::Int)
            .method("twice", &["x"], |m| {
                m.line();
                m.load("x").pushi(2).mul().retv();
            })
            .method("main", &["a"], |m| {
                m.line();
                // acc = twice(a) + twice(a + 1) + a  — one long line.
                m.invoke_twice_chain();
                m.line();
                m.getstatic("S", "acc").retv();
            })
            .build()
            .unwrap()
    }

    trait Chain {
        fn invoke_twice_chain(&mut self) -> &mut Self;
    }

    impl Chain for sod_asm::builder::MethodBuilder<'_> {
        fn invoke_twice_chain(&mut self) -> &mut Self {
            self.load("a")
                .invoke("S", "twice", 1)
                .load("a")
                .pushi(1)
                .add()
                .invoke("S", "twice", 1)
                .add()
                .load("a")
                .add()
                .putstatic("S", "acc")
        }
    }

    fn run(class: &ClassDef, arg: i64) -> Option<Value> {
        let mut vm = Vm::new();
        vm.load_class(class).unwrap();
        vm.run_to_completion("S", "main", &[Value::Int(arg)])
            .unwrap()
    }

    #[test]
    fn semantics_preserved() {
        let original = sample();
        let mut rearranged = original.clone();
        rearrange_class(&mut rearranged).unwrap();
        for a in [0, 1, 5, -3] {
            assert_eq!(run(&original, a), run(&rearranged, a));
        }
    }

    #[test]
    fn cuts_after_barriers() {
        let mut c = sample();
        let stats = rearrange_class(&mut c).unwrap();
        // main's long line has two calls + putstatic; the putstatic ends
        // the line (no cut), the two invokes each cut.
        assert!(stats.cuts >= 2, "stats: {stats:?}");
        assert!(stats.temps_added >= 1);
    }

    #[test]
    fn statement_starts_have_empty_stacks() {
        let mut c = sample();
        rearrange_class(&mut c).unwrap();
        for m in &c.methods {
            let s = method_summary(&c, m).unwrap();
            for pc in 0..m.code.len() as u32 {
                if m.is_line_start(pc) {
                    if let Some(d) = s.depth[pc as usize] {
                        assert_eq!(d, 0, "line start pc {pc} of {} has depth {d}", m.name);
                    }
                }
            }
        }
    }

    #[test]
    fn at_most_one_barrier_per_statement() {
        let mut c = sample();
        rearrange_class(&mut c).unwrap();
        for m in &c.methods {
            let mut barriers_in_line = 0;
            let mut cur_line = u32::MAX;
            for pc in 0..m.code.len() {
                if m.lines[pc] != cur_line {
                    cur_line = m.lines[pc];
                    barriers_in_line = 0;
                }
                if m.code[pc].is_barrier() {
                    barriers_in_line += 1;
                    assert!(
                        barriers_in_line <= 1,
                        "statement at line {cur_line} in {} has several barriers",
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn msp_density_increases() {
        let original = sample();
        let mut rearranged = original.clone();
        rearrange_class(&mut rearranged).unwrap();
        let count = |c: &ClassDef| -> usize {
            c.methods
                .iter()
                .map(|m| method_summary(c, m).unwrap().msp_pcs().count())
                .sum()
        };
        assert!(count(&rearranged) > count(&original));
    }

    #[test]
    fn branches_remap_correctly() {
        // Loop with a call inside: branch targets must survive splicing.
        let c = ClassBuilder::new("S")
            .method("twice", &["x"], |m| {
                m.line();
                m.load("x").pushi(2).mul().retv();
            })
            .method("main", &["a"], |m| {
                m.line();
                m.pushi(0).store("i");
                m.pushi(0).store("sum");
                m.line();
                m.label("loop");
                m.load("i").pushi(4).if_cmp(sod_vm::instr::Cmp::Ge, "done");
                m.line();
                // sum = twice(sum) + 1  (call mid-line forces a cut)
                m.load("sum")
                    .invoke("S", "twice", 1)
                    .pushi(1)
                    .add()
                    .store("sum");
                m.line();
                m.load("i").pushi(1).add().store("i").goto("loop");
                m.line();
                m.label("done");
                m.load("sum").retv();
            })
            .build()
            .unwrap();
        let mut r = c.clone();
        rearrange_class(&mut r).unwrap();
        let run = |class: &ClassDef| {
            let mut vm = Vm::new();
            vm.load_class(class).unwrap();
            vm.run_to_completion("S", "main", &[Value::Int(0)]).unwrap()
        };
        // sum: 0->1 ->3 ->7 ->15
        assert_eq!(run(&c), Some(Value::Int(15)));
        assert_eq!(run(&r), Some(Value::Int(15)));
    }

    #[test]
    fn already_clean_code_untouched() {
        let c = ClassBuilder::new("S")
            .method("main", &["a"], |m| {
                m.line();
                m.load("a").pushi(1).add().store("b");
                m.line();
                m.load("b").retv();
            })
            .build()
            .unwrap();
        let mut r = c.clone();
        let stats = rearrange_class(&mut r).unwrap();
        assert_eq!(stats.cuts, 0);
        assert_eq!(c.methods[0].code, r.methods[0].code);
    }
}
