//! # sod-baselines — the migration systems SOD is compared against
//!
//! The paper evaluates SODEE against three existing systems (Tables II–IV,
//! VI):
//!
//! * **G-JavaMPI** — eager-copy *process* migration over an older JVM
//!   debugger interface: the whole stack **and the whole heap** serialize
//!   and ship in one transfer ([`process_mig`]).
//! * **JESSICA2** — *thread* migration implemented inside a modified Kaffe
//!   JVM: capture is nearly free (direct kernel access), but the JIT is a
//!   generation older (≈4× slower execution) and static arrays are
//!   allocated at class-load time, which makes restores with large statics
//!   expensive ([`thread_mig`]).
//! * **Xen live migration** — iterative pre-copy of the whole guest-OS
//!   image ([`vm_live`] implements Clark et al.'s algorithm).
//!
//! Each baseline produces the same [`MigrationBreakdown`] (capture /
//! transfer / restore) so the Table IV comparison is apples-to-apples. The
//! models run over *real measurements* of the workload executing on the
//! sod-vm (state sizes, heap bytes, stack heights) — only the mechanism
//! costs are analytic, each a row of the cost table (`sod_vm::costs`)
//! with its paper anchor.

pub mod process_mig;
pub mod systems;
pub mod thread_mig;
pub mod vm_live;

pub use systems::{measure_workload, MigrationBreakdown, System, WorkloadMeasure};
