//! # sod-vm — a stack-machine virtual machine substrate
//!
//! This crate implements the stack-machine VM on which the stack-on-demand
//! (SOD) execution model is built. It is a from-scratch, JVM-like virtual
//! machine:
//!
//! * dynamically-typed [`value::Value`]s (64-bit ints, doubles, heap
//!   references),
//! * classes with fields, methods, string constant pools, exception tables
//!   and line-number tables ([`class`]),
//! * a bytecode instruction set close to a JVM subset ([`instr`]),
//! * per-thread stacks of frames, each with locals and an operand stack
//!   ([`frame`], [`interp`]),
//! * a heap with per-object status words and byte-size accounting ([`heap`]),
//! * exception dispatch through per-method exception tables,
//! * a *tooling interface* modelled on JVMTI — suspension, frame inspection,
//!   `GetLocal`, `ForceEarlyReturn`, breakpoints — with a virtual cost meter
//!   so that migration systems built on top can be charged realistic costs
//!   ([`tooling`]),
//! * capture/restore of partial stacks, i.e. *segments* of frames
//!   ([`capture`]),
//! * a binary wire codec that doubles as the Java-serialization cost model
//!   ([`wire`]),
//! * static analysis: operand-stack depth abstract interpretation and
//!   migration-safe-point (MSP) computation ([`analysis`]).
//!
//! The VM is a *pure state machine*: all host interaction (file systems,
//! sockets, remote-object fetches) surfaces as [`interp::StepOutcome`]
//! values, making every thread trivially suspendable, serializable and
//! resumable — the property the SOD model depends on.
//!
//! Outside its tests the crate has no `unwrap`, `expect`, `panic!` or
//! `unreachable!` (clippy denies them below): guest code and a peer's bytes
//! end as a [`error::VmError`]. Two builder contracts for classes authored
//! in Rust stay `assert!`s: [`class::MethodDef::with_code`] checks that the
//! line table parallels the code, and [`class::ClassDef::intern`] refuses a
//! 65 536th pool string. The class decoder reaches neither: [`wire`] builds
//! each `MethodDef` and its pool directly.
//!
//! ## Quick example
//!
//! ```
//! use sod_vm::class::{ClassDef, MethodDef};
//! use sod_vm::instr::Instr;
//! use sod_vm::interp::Vm;
//! use sod_vm::value::Value;
//!
//! // fn main() { return 40 + 2; }
//! let method = MethodDef::new("main", 0, 0)
//!     .with_code(
//!         vec![Instr::PushI(40), Instr::PushI(2), Instr::Add, Instr::RetV],
//!         vec![1, 1, 1, 1],
//!     );
//! let class = ClassDef::new("Main").with_method(method);
//! let mut vm = Vm::new();
//! vm.load_class(&class).unwrap();
//! let result = vm.run_to_completion("Main", "main", &[]).unwrap();
//! assert_eq!(result, Some(Value::Int(42)));
//! ```

// `crates/clippy.toml` disallows `ok_or` (an eager `VmError` cost 8.5 % of
// a fleet's host time); this lint would ask for it back.
#![allow(clippy::unnecessary_lazy_evaluations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod analysis;
pub mod capture;
pub mod class;
pub mod costs;
pub mod error;
pub mod fastpath;
pub mod frame;
pub mod heap;
pub mod idhash;
pub mod instr;
pub mod interp;
pub mod intrinsics;
pub mod tooling;
pub mod value;
pub mod wire;

/// Convenience re-exports of the most frequently used types.
pub mod prelude {
    pub use crate::capture::{CapturedFrame, CapturedState, CapturedValue};
    pub use crate::class::{ClassDef, ExEntry, ExKind, FieldDef, MethodDef, TypeTag};
    pub use crate::error::{VmError, VmResult};
    pub use crate::frame::Frame;
    pub use crate::heap::{Heap, HeapObj, ObjKind, ObjStatus};
    pub use crate::instr::{Cmp, Instr};
    pub use crate::interp::{ExceptionInfo, StepOutcome, Vm};
    pub use crate::tooling::{CostMeter, Tooling};
    pub use crate::value::{ObjId, Value};
}
