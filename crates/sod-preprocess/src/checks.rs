//! Pass 2b: per-access status checks — the traditional object-based DSM
//! instrumentation (the paper's Fig. 5 B1, modelled on JavaSplit).
//!
//! Before every dereferencing instruction we insert a
//! [`Instr::CheckStatus`] that peeks the reference about to be
//! dereferenced and, if it is a remote/invalid stub, fetches it. The check
//! costs a status-word load, a compare, and a branch **on every single
//! access**, local or not — which is precisely the overhead Table V
//! contrasts with SOD's free-on-fast-path object faulting.
//!
//! The pass also appends a `__status` instance field to the class (the
//! paper: "each class needs to be augmented with an extra status field",
//! with rewritten classes renamed `_Geometry` etc. — we keep the name and
//! add the field).

use sod_vm::class::{ClassDef, FieldDef};
use sod_vm::error::VmResult;
use sod_vm::instr::Instr;
use sod_vm::value::TypeOf;

use crate::splice::remap_pcs;

/// Inject status checks into every method; returns the number inserted.
pub fn inject_status_checks(class: &mut ClassDef) -> VmResult<usize> {
    let mut total = 0;
    for mi in 0..class.methods.len() {
        total += inject_into_method(class, mi);
    }
    if total > 0 && !class.fields.iter().any(|f| f.name == "__status") {
        class
            .fields
            .push(FieldDef::instance("__status", TypeOf::Int));
    }
    Ok(total)
}

fn inject_into_method(class: &mut ClassDef, method_idx: usize) -> usize {
    let m = &mut class.methods[method_idx];
    let old_len = m.code.len();
    let mut new_code = Vec::with_capacity(old_len + old_len / 4);
    let mut new_lines = Vec::with_capacity(new_code.capacity());
    let mut map = Vec::with_capacity(old_len);
    let mut inserted = 0;

    for pc in 0..old_len {
        let instr = m.code[pc];
        if let Some(depth) = instr.deref_depth() {
            new_code.push(Instr::CheckStatus(depth as u8));
            new_lines.push(m.lines[pc]);
            inserted += 1;
        }
        map.push(new_code.len() as u32);
        new_code.push(instr);
        new_lines.push(m.lines[pc]);
    }

    m.code = new_code;
    m.lines = new_lines;
    let new_len = m.code.len() as u32;
    remap_pcs(m, &map, new_len);
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod_asm::builder::ClassBuilder;
    use sod_vm::analysis::class_summaries;
    use sod_vm::interp::Vm;
    use sod_vm::value::Value;

    fn sample() -> ClassDef {
        ClassBuilder::new("C")
            .field("x", TypeOf::Int)
            .vmethod("getx", &[], |m| {
                m.line();
                m.load("this").getfield("x").retv();
            })
            .method("main", &[], |m| {
                m.line();
                m.new_obj("C").store("c");
                m.line();
                m.load("c").pushi(3).putfield("x");
                m.line();
                m.pushi(4).newarr().store("arr");
                m.line();
                m.load("arr").pushi(0).pushi(9).astore();
                m.line();
                m.load("arr").pushi(0).aload();
                m.load("c").invokev("getx", 1).add().retv();
            })
            .build()
            .unwrap()
    }

    #[test]
    fn checks_inserted_before_each_deref() {
        let mut c = sample();
        let n = inject_status_checks(&mut c).unwrap();
        // main: putfield, astore, aload, invokev; getx: getfield.
        assert_eq!(n, 5);
        assert!(c.fields.iter().any(|f| f.name == "__status"));
        class_summaries(&c).unwrap();
    }

    #[test]
    fn semantics_preserved_when_all_local() {
        let plain = sample();
        let mut checked = plain.clone();
        inject_status_checks(&mut checked).unwrap();
        let run = |class: &ClassDef| {
            let mut vm = Vm::new();
            vm.load_class(class).unwrap();
            vm.run_to_completion("C", "main", &[]).unwrap()
        };
        assert_eq!(run(&plain), run(&checked));
        assert_eq!(run(&checked), Some(Value::Int(12)));
    }

    #[test]
    fn execution_cost_rises_with_checks() {
        let plain = sample();
        let mut checked = plain.clone();
        inject_status_checks(&mut checked).unwrap();
        let cost = |class: &ClassDef| {
            let mut vm = Vm::new();
            vm.load_class(class).unwrap();
            vm.run_to_completion("C", "main", &[]).unwrap();
            vm.meter_ns
        };
        assert!(cost(&checked) > cost(&plain));
    }

    #[test]
    fn idempotent_branch_targets() {
        // Branches around derefs must still land correctly.
        let c = ClassBuilder::new("C")
            .field("x", TypeOf::Int)
            .method("main", &["flag"], |m| {
                m.line();
                m.new_obj("C").store("c");
                m.line();
                m.load("flag").ifz(sod_vm::instr::Cmp::Eq, "skip");
                m.line();
                m.load("c").pushi(1).putfield("x");
                m.line();
                m.label("skip");
                m.load("c").getfield("x").retv();
            })
            .build()
            .unwrap();
        let mut checked = c.clone();
        inject_status_checks(&mut checked).unwrap();
        let run = |class: &ClassDef, flag: i64| {
            let mut vm = Vm::new();
            vm.load_class(class).unwrap();
            vm.run_to_completion("C", "main", &[Value::Int(flag)])
                .unwrap()
        };
        for flag in [0, 1] {
            assert_eq!(run(&c, flag), run(&checked, flag));
        }
    }
}
