//! # sod — stack-on-demand elastic execution
//!
//! Facade crate re-exporting the full reproduction of *"A Stack-on-Demand
//! Execution Model for Elastic Computing"* (Ma, Lam, Wang, Zhang — ICPP
//! 2010):
//!
//! * [`vm`] — the stack-machine VM substrate (frames, heap, exceptions,
//!   JVMTI-like tooling, capture/restore, wire codec);
//! * [`asm`] — builder and text assembler for authoring guest programs;
//! * [`preprocess`] — the SOD bytecode preprocessor (migration-safe-point
//!   rearrangement, object-fault handlers, restoration handlers);
//! * [`net`] — the deterministic discrete-event cluster simulator;
//! * [`runtime`] — SODEE: segment migration, object manager, workflows,
//!   roaming, exception-driven offload;
//! * [`baselines`] — G-JavaMPI / JESSICA2 / Xen migration models;
//! * [`workloads`] — the paper's benchmarks and applications;
//! * [`scenario`] — the declarative experiment builder (start here).
//!
//! ## Quick start
//!
//! Author a program, preprocess it, and describe the experiment as a
//! [`scenario::Scenario`]: nodes by name, programs placed on them, and
//! migration expressed as *policy* — a fixed virtual time
//! ([`scenario::When::At`]), memory pressure
//! ([`scenario::When::OnOom`]), object-fault locality
//! ([`scenario::When::OnObjectFaults`]), or a CPU budget
//! ([`scenario::When::OnCpuSliceBudget`]):
//!
//! ```
//! use sod::asm::builder::ClassBuilder;
//! use sod::net::MS;
//! use sod::preprocess::preprocess_sod;
//! use sod::runtime::NodeConfig;
//! use sod::scenario::{Plan, Scenario, ScenarioError, When};
//! use sod::vm::instr::Cmp;
//! use sod::vm::value::Value;
//!
//! fn main() -> Result<(), ScenarioError> {
//!     let class = ClassBuilder::new("App")
//!         .method("work", &["n"], |m| {
//!             m.line();
//!             m.pushi(0).store("acc");
//!             m.pushi(0).store("i");
//!             m.line();
//!             m.label("loop");
//!             m.load("i").load("n").if_cmp(Cmp::Ge, "done");
//!             m.line();
//!             m.load("acc").load("i").add().store("acc");
//!             m.line();
//!             m.load("i").pushi(1).add().store("i").goto("loop");
//!             m.line();
//!             m.label("done");
//!             m.load("acc").retv();
//!         })
//!         .method("main", &["n"], |m| {
//!             m.line();
//!             m.load("n").invoke("App", "work", 1).store("r");
//!             m.line();
//!             m.load("r").retv();
//!         })
//!         .build()
//!         .expect("valid program");
//!     let class = preprocess_sod(&class).expect("preprocess");
//!
//!     let report = Scenario::new()
//!         .node("home", NodeConfig::cluster("home"))
//!         .deploys(&class)
//!         .node("worker", NodeConfig::cluster("worker"))
//!         .program("App", "main", vec![Value::Int(500_000)])
//!         .on("home")
//!         .migrate(When::At(MS), Plan::top_to("worker", 1))
//!         .run()?;
//!
//!     let r = report.first();
//!     assert_eq!(r.result, Some((0..500_000i64).sum()));
//!     assert_eq!(r.migrations.len(), 1);
//!     Ok(())
//! }
//! ```
//!
//! `examples/quickstart.rs` is the same flow as a runnable walkthrough;
//! the raw engine wiring remains available through [`runtime`] for code
//! that needs sub-scenario control.

pub mod scenario;

pub use sod_asm as asm;
pub use sod_baselines as baselines;
pub use sod_net as net;
pub use sod_preprocess as preprocess;
pub use sod_runtime as runtime;
pub use sod_vm as vm;
pub use sod_workloads as workloads;

pub use scenario::{
    Chaos, Fleet, Plan, Pool, Preset, Scenario, ScenarioError, ScenarioReport, When,
};
#[doc(hidden)]
pub use sod_net::Scheduler;
pub use sod_runtime::{
    ChaosCounters, ChaosPlan, ClusterReport, CodeShipping, NetBytes, PoolReport, RetryPolicy,
    ScalePolicy,
};
pub use sod_workloads::ArrivalSchedule;
