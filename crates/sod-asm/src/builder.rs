//! Fluent builder API for classes and method bodies.
//!
//! The builder tracks three things the raw data model leaves implicit:
//!
//! * **named locals** — arguments are named at method creation; extra
//!   locals are allocated on first use via [`MethodBuilder::slot`];
//! * **labels** — branch targets are symbolic and resolved at build time;
//! * **source lines** — [`MethodBuilder::line`] starts a new line; every
//!   emitted instruction belongs to the current line. Line starts become
//!   migration-safe-point candidates downstream.
//!
//! [`ClassBuilder::build`] verifies every method (stack discipline, branch
//! ranges) through `sod_vm::analysis`, so malformed programs fail at build
//! time rather than at load time on a remote node.

use std::collections::HashMap;

use sod_vm::analysis::class_summaries;
use sod_vm::class::{ClassDef, ExEntry, ExKind, FieldDef, MethodDef, TypeTag};
use sod_vm::error::VmResult;
use sod_vm::instr::{Cmp, Instr, SwitchTable};

/// Builds a [`ClassDef`] from fields and methods.
#[derive(Debug)]
pub struct ClassBuilder {
    def: ClassDef,
}

impl ClassBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        ClassBuilder {
            def: ClassDef::new(name),
        }
    }

    /// Declare an instance field.
    pub fn field(mut self, name: &str, ty: TypeTag) -> Self {
        self.def.fields.push(FieldDef::instance(name, ty));
        self
    }

    /// Declare a static field.
    pub fn static_field(mut self, name: &str, ty: TypeTag) -> Self {
        self.def.fields.push(FieldDef::stat(name, ty));
        self
    }

    /// Define a static method; `args` are the argument names (slot 0..n).
    pub fn method(mut self, name: &str, args: &[&str], f: impl FnOnce(&mut MethodBuilder)) -> Self {
        let mut mb = MethodBuilder::new(&mut self.def, name, args, false);
        f(&mut mb);
        let method = mb.finish();
        self.def.methods.push(method);
        self
    }

    /// Define a virtual method: the receiver is named `this` in slot 0 and
    /// `args` follow.
    pub fn vmethod(
        mut self,
        name: &str,
        args: &[&str],
        f: impl FnOnce(&mut MethodBuilder),
    ) -> Self {
        let mut mb = MethodBuilder::new(&mut self.def, name, args, true);
        f(&mut mb);
        let method = mb.finish();
        self.def.methods.push(method);
        self
    }

    /// Finish: verify all methods and return the class.
    pub fn build(self) -> VmResult<ClassDef> {
        class_summaries(&self.def)?;
        Ok(self.def)
    }
}

/// A pending `switch` patch: instruction index, `(case value, label)`
/// pairs, and the default label.
type SwitchFixup = (usize, Vec<(i64, String)>, String);

/// Builds one method body. Returned by [`ClassBuilder::method`]'s closure.
#[derive(Debug)]
pub struct MethodBuilder<'c> {
    class: &'c mut ClassDef,
    name: String,
    code: Vec<Instr>,
    lines: Vec<u32>,
    cur_line: u32,
    nargs: u16,
    locals: Vec<String>,
    labels: HashMap<String, u32>,
    branch_fixups: Vec<(usize, String)>,
    switch_fixups: Vec<SwitchFixup>,
    switches: Vec<SwitchTable>,
    catch_fixups: Vec<(String, String, String, ExKind, bool)>,
}

impl<'c> MethodBuilder<'c> {
    fn new(class: &'c mut ClassDef, name: &str, args: &[&str], virtual_recv: bool) -> Self {
        let mut locals: Vec<String> = Vec::new();
        if virtual_recv {
            locals.push("this".to_owned());
        }
        locals.extend(args.iter().map(|s| (*s).to_owned()));
        let nargs = locals.len() as u16;
        MethodBuilder {
            class,
            name: name.to_owned(),
            code: Vec::new(),
            lines: Vec::new(),
            cur_line: 0,
            nargs,
            locals,
            labels: HashMap::new(),
            branch_fixups: Vec::new(),
            switch_fixups: Vec::new(),
            switches: Vec::new(),
            catch_fixups: Vec::new(),
        }
    }

    /// Slot of a named local, allocating it on first use.
    pub fn slot(&mut self, name: &str) -> u16 {
        if let Some(i) = self.locals.iter().position(|l| l == name) {
            return i as u16;
        }
        self.locals.push(name.to_owned());
        (self.locals.len() - 1) as u16
    }

    /// Start the next source line.
    pub fn line(&mut self) -> &mut Self {
        self.cur_line += 1;
        self
    }

    /// Place a label at the current pc. Placing a label does *not* start a
    /// new line; call [`MethodBuilder::line`] first if the label starts a
    /// statement.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let pc = self.code.len() as u32;
        assert!(
            self.labels.insert(name.to_owned(), pc).is_none(),
            "duplicate label {name}"
        );
        self
    }

    fn emit(&mut self, i: Instr) -> &mut Self {
        assert!(self.cur_line > 0, "emit before first line() call");
        self.code.push(i);
        self.lines.push(self.cur_line);
        self
    }

    // -- constants -----------------------------------------------------------

    pub fn pushi(&mut self, v: i64) -> &mut Self {
        self.emit(Instr::PushI(v))
    }

    pub fn pushf(&mut self, v: f64) -> &mut Self {
        self.emit(Instr::PushF(v))
    }

    pub fn pushstr(&mut self, s: &str) -> &mut Self {
        let idx = self.class.intern(s);
        self.emit(Instr::PushStr(idx))
    }

    pub fn pushnull(&mut self) -> &mut Self {
        self.emit(Instr::PushNull)
    }

    // -- locals & stack ------------------------------------------------------

    pub fn load(&mut self, name: &str) -> &mut Self {
        let s = self.slot(name);
        self.emit(Instr::Load(s))
    }

    pub fn store(&mut self, name: &str) -> &mut Self {
        let s = self.slot(name);
        self.emit(Instr::Store(s))
    }

    pub fn dup(&mut self) -> &mut Self {
        self.emit(Instr::Dup)
    }

    pub fn pop(&mut self) -> &mut Self {
        self.emit(Instr::Pop)
    }

    pub fn swap(&mut self) -> &mut Self {
        self.emit(Instr::Swap)
    }

    // -- arithmetic ------------------------------------------------------------

    pub fn add(&mut self) -> &mut Self {
        self.emit(Instr::Add)
    }

    pub fn sub(&mut self) -> &mut Self {
        self.emit(Instr::Sub)
    }

    pub fn mul(&mut self) -> &mut Self {
        self.emit(Instr::Mul)
    }

    pub fn div(&mut self) -> &mut Self {
        self.emit(Instr::Div)
    }

    pub fn rem(&mut self) -> &mut Self {
        self.emit(Instr::Rem)
    }

    pub fn neg(&mut self) -> &mut Self {
        self.emit(Instr::Neg)
    }

    pub fn shl(&mut self) -> &mut Self {
        self.emit(Instr::Shl)
    }

    pub fn shr(&mut self) -> &mut Self {
        self.emit(Instr::Shr)
    }

    pub fn band(&mut self) -> &mut Self {
        self.emit(Instr::BAnd)
    }

    pub fn bor(&mut self) -> &mut Self {
        self.emit(Instr::BOr)
    }

    pub fn bxor(&mut self) -> &mut Self {
        self.emit(Instr::BXor)
    }

    pub fn i2f(&mut self) -> &mut Self {
        self.emit(Instr::I2F)
    }

    pub fn f2i(&mut self) -> &mut Self {
        self.emit(Instr::F2I)
    }

    // -- control flow ------------------------------------------------------------

    pub fn if_cmp(&mut self, cmp: Cmp, target: &str) -> &mut Self {
        self.branch_fixups
            .push((self.code.len(), target.to_owned()));
        self.emit(Instr::If(cmp, u32::MAX))
    }

    pub fn ifz(&mut self, cmp: Cmp, target: &str) -> &mut Self {
        self.branch_fixups
            .push((self.code.len(), target.to_owned()));
        self.emit(Instr::IfZ(cmp, u32::MAX))
    }

    pub fn ifnull(&mut self, target: &str) -> &mut Self {
        self.branch_fixups
            .push((self.code.len(), target.to_owned()));
        self.emit(Instr::IfNull(u32::MAX))
    }

    pub fn ifnonnull(&mut self, target: &str) -> &mut Self {
        self.branch_fixups
            .push((self.code.len(), target.to_owned()));
        self.emit(Instr::IfNonNull(u32::MAX))
    }

    pub fn goto(&mut self, target: &str) -> &mut Self {
        self.branch_fixups
            .push((self.code.len(), target.to_owned()));
        self.emit(Instr::Goto(u32::MAX))
    }

    /// Emit a `lookupswitch` over `(key, label)` pairs with a default label.
    pub fn switch(&mut self, pairs: &[(i64, &str)], default: &str) -> &mut Self {
        let table_idx = self.switches.len() as u16;
        self.switches.push(SwitchTable::default());
        self.switch_fixups.push((
            self.switches.len() - 1,
            pairs.iter().map(|(k, l)| (*k, (*l).to_owned())).collect(),
            default.to_owned(),
        ));
        self.emit(Instr::Switch(table_idx))
    }

    // -- objects ------------------------------------------------------------------

    pub fn new_obj(&mut self, class: &str) -> &mut Self {
        let idx = self.class.intern(class);
        self.emit(Instr::New(idx))
    }

    pub fn getfield(&mut self, field: &str) -> &mut Self {
        let idx = self.class.intern(field);
        self.emit(Instr::GetField(idx))
    }

    pub fn putfield(&mut self, field: &str) -> &mut Self {
        let idx = self.class.intern(field);
        self.emit(Instr::PutField(idx))
    }

    pub fn getstatic(&mut self, class: &str, field: &str) -> &mut Self {
        let c = self.class.intern(class);
        let f = self.class.intern(field);
        self.emit(Instr::GetStatic(c, f))
    }

    pub fn putstatic(&mut self, class: &str, field: &str) -> &mut Self {
        let c = self.class.intern(class);
        let f = self.class.intern(field);
        self.emit(Instr::PutStatic(c, f))
    }

    pub fn newarr(&mut self) -> &mut Self {
        self.emit(Instr::NewArr)
    }

    pub fn aload(&mut self) -> &mut Self {
        self.emit(Instr::ALoad)
    }

    pub fn astore(&mut self) -> &mut Self {
        self.emit(Instr::AStore)
    }

    pub fn arrlen(&mut self) -> &mut Self {
        self.emit(Instr::ArrLen)
    }

    // -- calls --------------------------------------------------------------------

    pub fn invoke(&mut self, class: &str, method: &str, nargs: u8) -> &mut Self {
        let c = self.class.intern(class);
        let m = self.class.intern(method);
        self.emit(Instr::InvokeStatic(c, m, nargs))
    }

    /// Virtual invoke; `nargs` counts the receiver.
    pub fn invokev(&mut self, method: &str, nargs: u8) -> &mut Self {
        let m = self.class.intern(method);
        self.emit(Instr::InvokeVirtual(m, nargs))
    }

    pub fn ret(&mut self) -> &mut Self {
        self.emit(Instr::Ret)
    }

    pub fn retv(&mut self) -> &mut Self {
        self.emit(Instr::RetV)
    }

    // -- exceptions -------------------------------------------------------------------

    pub fn throw_kind(&mut self, kind: ExKind) -> &mut Self {
        self.emit(Instr::ThrowKind(kind))
    }

    pub fn throw(&mut self) -> &mut Self {
        self.emit(Instr::Throw)
    }

    /// Register a catch clause: exceptions of `kind` thrown in
    /// `[from_label, to_label)` jump to `handler_label`.
    pub fn catch(&mut self, from: &str, to: &str, handler: &str, kind: ExKind) -> &mut Self {
        self.catch_fixups.push((
            from.to_owned(),
            to.to_owned(),
            handler.to_owned(),
            kind,
            false,
        ));
        self
    }

    // -- host ---------------------------------------------------------------------------

    pub fn native(&mut self, name: &str, nargs: u8) -> &mut Self {
        let idx = self.class.intern(name);
        self.emit(Instr::NativeCall(idx, nargs))
    }

    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instr::Nop)
    }

    // -- finish ----------------------------------------------------------------------------

    fn resolve(&self, label: &str) -> u32 {
        *self
            .labels
            .get(label)
            .unwrap_or_else(|| panic!("undefined label {label} in method {}", self.name))
    }

    fn finish(mut self) -> MethodDef {
        for (pc, label) in std::mem::take(&mut self.branch_fixups) {
            let target = self.resolve(&label);
            self.code[pc].map_targets(|_| target);
        }
        for (sidx, pairs, default) in std::mem::take(&mut self.switch_fixups) {
            let resolved: Vec<(i64, u32)> =
                pairs.iter().map(|(k, l)| (*k, self.resolve(l))).collect();
            self.switches[sidx] = SwitchTable {
                pairs: resolved,
                default: self.resolve(&default),
            };
        }
        let ex_table: Vec<ExEntry> = std::mem::take(&mut self.catch_fixups)
            .iter()
            .map(|(from, to, handler, kind, fault)| {
                let mut e = ExEntry::new(
                    self.resolve(from),
                    self.resolve(to),
                    self.resolve(handler),
                    *kind,
                );
                e.fault_handler = *fault;
                e
            })
            .collect();

        let nlocals = self.locals.len() as u16;
        MethodDef {
            name: self.name,
            nargs: self.nargs,
            nlocals,
            code: self.code,
            lines: self.lines,
            ex_table,
            switches: self.switches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod_vm::interp::Vm;
    use sod_vm::value::{TypeOf, Value};

    /// Recursive Fibonacci: a call, two self-invocations and a branch.
    #[test]
    fn fib_runs() {
        let class = ClassBuilder::new("Fib")
            .method("fib", &["n"], |m| {
                m.line().load("n").pushi(2).if_cmp(Cmp::Lt, "base");
                m.line().load("n").pushi(1).sub().invoke("Fib", "fib", 1);
                m.load("n")
                    .pushi(2)
                    .sub()
                    .invoke("Fib", "fib", 1)
                    .add()
                    .retv();
                m.line().label("base").load("n").retv();
            })
            .build()
            .unwrap();
        let mut vm = Vm::new();
        vm.load_class(&class).unwrap();
        let r = vm
            .run_to_completion("Fib", "fib", &[Value::Int(10)])
            .unwrap();
        assert_eq!(r, Some(Value::Int(55)));
    }

    #[test]
    fn named_locals_allocate_slots() {
        let class = ClassBuilder::new("T")
            .method("m", &["a", "b"], |m| {
                m.line();
                assert_eq!(m.slot("a"), 0);
                assert_eq!(m.slot("b"), 1);
                assert_eq!(m.slot("c"), 2);
                assert_eq!(m.slot("a"), 0); // stable
                m.load("c").retv();
            })
            .build()
            .unwrap();
        assert_eq!(class.methods[0].nargs, 2);
        assert_eq!(class.methods[0].nlocals, 3);
    }

    #[test]
    fn vmethod_has_this_slot() {
        let class = ClassBuilder::new("T")
            .field("x", TypeOf::Int)
            .vmethod("getx", &[], |m| {
                m.line();
                assert_eq!(m.slot("this"), 0);
                m.load("this").getfield("x").retv();
            })
            .build()
            .unwrap();
        assert_eq!(class.methods[0].nargs, 1);
    }

    #[test]
    fn switch_builds_and_runs() {
        let class = ClassBuilder::new("T")
            .method("pick", &["k"], |m| {
                m.line();
                m.load("k").switch(&[(1, "one"), (2, "two")], "other");
                m.line();
                m.label("one");
                m.pushi(100).retv();
                m.line();
                m.label("two");
                m.pushi(200).retv();
                m.line();
                m.label("other");
                m.pushi(-1).retv();
            })
            .build()
            .unwrap();
        let mut vm = Vm::new();
        vm.load_class(&class).unwrap();
        for (k, want) in [(1, 100), (2, 200), (9, -1)] {
            let r = vm.run_to_completion("T", "pick", &[Value::Int(k)]).unwrap();
            assert_eq!(r, Some(Value::Int(want)));
            vm = Vm::new();
            vm.load_class(&class).unwrap();
        }
    }

    #[test]
    fn catch_clause_resolves_labels() {
        let class = ClassBuilder::new("T")
            .method("m", &[], |m| {
                m.line();
                m.label("try_start");
                m.pushi(1).pushi(0).div().retv();
                m.label("try_end");
                m.line();
                m.label("handler");
                m.pop().pushi(-7).retv();
                m.catch("try_start", "try_end", "handler", ExKind::DivByZero);
            })
            .build()
            .unwrap();
        let mut vm = Vm::new();
        vm.load_class(&class).unwrap();
        let r = vm.run_to_completion("T", "m", &[]).unwrap();
        assert_eq!(r, Some(Value::Int(-7)));
    }

    #[test]
    #[should_panic(expected = "undefined label")]
    fn undefined_label_panics() {
        let _ = ClassBuilder::new("T")
            .method("m", &[], |m| {
                m.line();
                m.goto("nowhere").ret();
            })
            .build();
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let _ = ClassBuilder::new("T")
            .method("m", &[], |m| {
                m.line();
                m.label("l").label("l").ret();
            })
            .build();
    }

    #[test]
    #[should_panic(expected = "emit before first line")]
    fn emit_without_line_panics() {
        let _ = ClassBuilder::new("T")
            .method("m", &[], |m| {
                m.pushi(1);
            })
            .build();
    }

    #[test]
    fn build_verifies() {
        // Stack underflow is rejected at build time.
        let err = ClassBuilder::new("T")
            .method("m", &[], |m| {
                m.line();
                m.add().ret();
            })
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn fields_and_strings() {
        let class = ClassBuilder::new("T")
            .static_field("greeting", TypeOf::Ref)
            .method("m", &[], |m| {
                m.line();
                m.pushstr("hi").putstatic("T", "greeting");
                m.line();
                m.getstatic("T", "greeting").native("str_len", 1).retv();
            })
            .build()
            .unwrap();
        let mut vm = Vm::new();
        vm.load_class(&class).unwrap();
        let r = vm.run_to_completion("T", "m", &[]).unwrap();
        assert_eq!(r, Some(Value::Int(2)));
    }
}
