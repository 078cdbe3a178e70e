//! Class, method, and field definitions — the unit of code shipping.
//!
//! A [`ClassDef`] is pure data: it can be serialized with the [wire
//! codec](crate::wire) and shipped between nodes, which is how SOD's
//! on-demand code migration works (the paper's
//! `JVMTI_EVENT_CLASS_FILE_LOAD_HOOK` path). All intra-class references are
//! by name through a string pool, so a class loaded on a worker node links
//! against the worker's own loaded classes.

use crate::error::{VmError, VmResult};
use crate::instr::{Instr, SwitchTable};
use crate::value::{TypeOf, Value};

/// Storage class of a field. Re-exported alias of [`TypeOf`].
pub type TypeTag = TypeOf;

/// Guest exception kinds. A small closed set mirrors the exceptions the SOD
/// paper manipulates, plus `User` codes for application-defined ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExKind {
    /// `java.lang.NullPointerException` — the carrier of SOD object faults.
    NullPointer,
    /// The paper's `InvalidStateException` — drives restoration handlers.
    InvalidState,
    /// `OutOfMemoryError` — drives exception-triggered offload to the cloud.
    OutOfMemory,
    /// `ClassNotFoundException` — also a trigger for speculative offload.
    ClassNotFound,
    /// Array index out of bounds.
    ArrayBounds,
    /// Integer division by zero.
    DivByZero,
    /// Application-defined exception code.
    User(u16),
}

impl ExKind {
    /// Whether a catch clause for `self` catches a thrown `thrown`: it
    /// catches its own kind only, and no kind (`User(0)` included) is a
    /// catch-all.
    pub fn catches(self, thrown: ExKind) -> bool {
        self == thrown
    }
}

/// One exception-table entry: pcs in `[from, to)` route a matching thrown
/// exception to `target`. Entries are matched in order, first match wins —
/// the preprocessor relies on this to put object-fault handlers ahead of
/// user handlers.
#[derive(Clone, Debug, PartialEq)]
pub struct ExEntry {
    pub from: u32,
    pub to: u32,
    pub target: u32,
    pub kind: ExKind,
    /// Fault-handler entries are skipped when dispatching application-level
    /// NPEs (the paper's "another null pointer exception ... from the
    /// application level"). Set by the preprocessor on injected handlers.
    pub fault_handler: bool,
}

impl ExEntry {
    pub fn new(from: u32, to: u32, target: u32, kind: ExKind) -> Self {
        ExEntry {
            from,
            to,
            target,
            kind,
            fault_handler: false,
        }
    }

    /// Mark this entry as a preprocessor-injected object-fault handler.
    pub fn as_fault_handler(mut self) -> Self {
        self.fault_handler = true;
        self
    }

    pub fn covers(&self, pc: u32) -> bool {
        self.from <= pc && pc < self.to
    }
}

/// A field declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldDef {
    pub name: String,
    pub ty: TypeTag,
    pub is_static: bool,
}

impl FieldDef {
    pub fn instance(name: impl Into<String>, ty: TypeTag) -> Self {
        FieldDef {
            name: name.into(),
            ty,
            is_static: false,
        }
    }

    pub fn stat(name: impl Into<String>, ty: TypeTag) -> Self {
        FieldDef {
            name: name.into(),
            ty,
            is_static: true,
        }
    }
}

/// A method body plus metadata.
///
/// `lines` runs parallel to `code`: `lines[pc]` is the source line of the
/// instruction at `pc`. Line boundaries with empty operand stacks define
/// migration-safe points, exactly as in the paper ("the first bytecode
/// instruction of a source code line where the operand stack is always
/// empty").
#[derive(Clone, Debug, PartialEq)]
pub struct MethodDef {
    pub name: String,
    /// Number of declared parameters (for virtual methods this includes the
    /// receiver in slot 0).
    pub nargs: u16,
    /// Total local slots (≥ `nargs`).
    pub nlocals: u16,
    pub code: Vec<Instr>,
    pub lines: Vec<u32>,
    pub ex_table: Vec<ExEntry>,
    pub switches: Vec<SwitchTable>,
}

impl MethodDef {
    pub fn new(name: impl Into<String>, nargs: u16, extra_locals: u16) -> Self {
        MethodDef {
            name: name.into(),
            nargs,
            nlocals: nargs + extra_locals,
            code: Vec::new(),
            lines: Vec::new(),
            ex_table: Vec::new(),
            switches: Vec::new(),
        }
    }

    /// Attach a body. `lines` must be the same length as `code`.
    pub fn with_code(mut self, code: Vec<Instr>, lines: Vec<u32>) -> Self {
        assert_eq!(code.len(), lines.len(), "lines must parallel code");
        self.code = code;
        self.lines = lines;
        self
    }

    pub fn with_ex_table(mut self, ex: Vec<ExEntry>) -> Self {
        self.ex_table = ex;
        self
    }

    pub fn with_switches(mut self, switches: Vec<SwitchTable>) -> Self {
        self.switches = switches;
        self
    }

    /// Line number of the instruction at `pc` (0 if out of range).
    pub fn line_of(&self, pc: u32) -> u32 {
        self.lines.get(pc as usize).copied().unwrap_or(0)
    }

    /// Whether `pc` is the first instruction of its source line.
    pub fn is_line_start(&self, pc: u32) -> bool {
        let pc = pc as usize;
        if pc >= self.code.len() {
            return false;
        }
        pc == 0 || self.lines[pc] != self.lines[pc - 1]
    }
}

/// A class definition: the unit of loading, preprocessing, and code shipping.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ClassDef {
    pub name: String,
    pub fields: Vec<FieldDef>,
    pub methods: Vec<MethodDef>,
    /// String pool: class/method/field/intrinsic names and string literals
    /// referenced by `u16` operands in instructions.
    pub pool: Vec<String>,
}

impl ClassDef {
    pub fn new(name: impl Into<String>) -> Self {
        ClassDef {
            name: name.into(),
            ..Default::default()
        }
    }

    pub fn with_field(mut self, f: FieldDef) -> Self {
        self.fields.push(f);
        self
    }

    pub fn with_method(mut self, m: MethodDef) -> Self {
        self.methods.push(m);
        self
    }

    /// Intern `s` in the pool, returning its index.
    pub fn intern(&mut self, s: &str) -> u16 {
        if let Some(i) = self.pool.iter().position(|p| p == s) {
            return i as u16;
        }
        assert!(self.pool.len() < u16::MAX as usize, "string pool overflow");
        self.pool.push(s.to_owned());
        (self.pool.len() - 1) as u16
    }

    /// Pool lookup.
    pub fn pool_str(&self, idx: u16) -> VmResult<&str> {
        self.pool
            .get(idx as usize)
            .map(String::as_str)
            .ok_or_else(|| VmError::BadPoolIndex(idx))
    }

    pub fn method(&self, name: &str) -> Option<&MethodDef> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Instance fields in declaration order (their indices define the object
    /// layout).
    pub fn instance_fields(&self) -> impl Iterator<Item = (usize, &FieldDef)> {
        self.fields.iter().filter(|f| !f.is_static).enumerate()
    }

    /// Default values for this class's statics.
    pub fn default_static_values(&self) -> Vec<Value> {
        self.fields
            .iter()
            .filter(|f| f.is_static)
            .map(|f| Value::default_for(f.ty))
            .collect()
    }

    /// Names of the classes this class's code statically references —
    /// `InvokeStatic` targets, `New` allocations, and static-field owners
    /// — excluding itself. Sorted and deduplicated, so callers walking
    /// the reference graph (the code-shipping closure) are deterministic.
    ///
    /// Virtual-call targets dispatch on the receiver's runtime class and
    /// are *not* included; anything missed here still ships through the
    /// on-demand class-request path.
    pub fn referenced_classes(&self) -> Vec<String> {
        let mut out = std::collections::BTreeSet::new();
        for m in &self.methods {
            for i in &m.code {
                let idx = match i {
                    Instr::New(c)
                    | Instr::GetStatic(c, _)
                    | Instr::PutStatic(c, _)
                    | Instr::InvokeStatic(c, _, _)
                    | Instr::BringObjStaticTo(c, _, _) => *c,
                    _ => continue,
                };
                if let Ok(name) = self.pool_str(idx) {
                    if name != self.name {
                        out.insert(name.to_owned());
                    }
                }
            }
        }
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;

    fn sample_class() -> ClassDef {
        let mut c = ClassDef::new("Geometry")
            .with_field(FieldDef::instance("r", TypeOf::Ref))
            .with_field(FieldDef::instance("p", TypeOf::Ref))
            .with_field(FieldDef::stat("count", TypeOf::Int));
        let i = c.intern("displaceX");
        assert_eq!(c.pool_str(i).unwrap(), "displaceX");
        c.methods.push(MethodDef::new("displaceX", 1, 2).with_code(
            vec![Instr::PushI(0), Instr::Store(1), Instr::Ret],
            vec![1, 1, 2],
        ));
        c
    }

    #[test]
    fn pool_interning_dedups() {
        let mut c = ClassDef::new("C");
        let a = c.intern("foo");
        let b = c.intern("foo");
        let d = c.intern("bar");
        assert_eq!(a, b);
        assert_ne!(a, d);
        assert_eq!(c.pool.len(), 2);
    }

    #[test]
    fn field_partitioning() {
        let c = sample_class();
        assert_eq!(c.instance_fields().count(), 2);
        assert_eq!(c.default_static_values(), vec![Value::Int(0)]);
    }

    #[test]
    fn line_starts() {
        let c = sample_class();
        let m = c.method("displaceX").unwrap();
        assert!(m.is_line_start(0));
        assert!(!m.is_line_start(1));
        assert!(m.is_line_start(2));
        assert!(!m.is_line_start(99));
    }

    #[test]
    fn ex_entry_coverage() {
        let e = ExEntry::new(2, 5, 10, ExKind::NullPointer);
        assert!(!e.covers(1));
        assert!(e.covers(2));
        assert!(e.covers(4));
        assert!(!e.covers(5));
    }

    #[test]
    fn referenced_classes_are_static_refs_minus_self() {
        let mut c = ClassDef::new("Main");
        let helper = c.intern("Helper");
        let util = c.intern("Util");
        let this = c.intern("Main");
        let f = c.intern("f");
        c.methods.push(MethodDef::new("m", 0, 0).with_code(
            vec![
                Instr::New(helper),
                Instr::InvokeStatic(util, f, 0),
                Instr::GetStatic(util, f),
                // Self-references are excluded.
                Instr::InvokeStatic(this, f, 0),
                Instr::Ret,
            ],
            vec![1, 1, 1, 1, 1],
        ));
        assert_eq!(c.referenced_classes(), vec!["Helper", "Util"]);
        // A class with no code references nothing.
        assert!(ClassDef::new("Leaf").referenced_classes().is_empty());
    }

    #[test]
    #[should_panic(expected = "lines must parallel code")]
    fn with_code_length_mismatch_panics() {
        let _ = MethodDef::new("m", 0, 0).with_code(vec![Instr::Ret], vec![]);
    }
}
