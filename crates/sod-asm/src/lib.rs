//! # sod-asm — assembler for the sod-vm stack machine
//!
//! [`builder`] produces verified [`ClassDef`](sod_vm::class::ClassDef)s
//! through a fluent Rust API with named locals, labels, and source lines.
//! Every guest in the repository — the paper workloads (`sod-workloads`),
//! the examples and the tests — is written with it.
//!
//! Source *lines* matter here more than in a typical assembler: the SOD
//! preprocessor defines migration-safe points at line starts, so the
//! assembler forces every instruction to belong to an explicit line.
//!
//! The assembler builds trusted guests, written in Rust by their author,
//! so it is not held to the system crates' panic lints: a panic here is a
//! programmer error, not a guest's or a peer's doing.
//!
//! ```
//! use sod_asm::builder::ClassBuilder;
//! use sod_vm::interp::Vm;
//! use sod_vm::value::Value;
//!
//! let class = ClassBuilder::new("Main")
//!     .method("main", &[], |m| {
//!         m.line();
//!         m.pushi(40).pushi(2).add().retv();
//!     })
//!     .build()
//!     .unwrap();
//! let mut vm = Vm::new();
//! vm.load_class(&class).unwrap();
//! assert_eq!(
//!     vm.run_to_completion("Main", "main", &[]).unwrap(),
//!     Some(Value::Int(42))
//! );
//! ```

pub mod builder;

pub use builder::{ClassBuilder, MethodBuilder};
