//! # sod-workloads — the paper's benchmark programs
//!
//! Table I of the paper characterises four compute benchmarks: recursive
//! Fibonacci (`Fib`), n-queens (`NQ`), a 2-D FFT over a large static array
//! (`FFT`), and a branch-and-bound travelling-salesman solver (`TSP`). The
//! evaluation also uses a full-text document-search application (Table VI,
//! roaming) and a photo-sharing web server driven from a phone (Table VII).
//!
//! All programs are authored with `sod-asm`'s builder and are *plain*
//! classes: run them through `sod_preprocess::preprocess_sod` before
//! deploying to a migration-capable node. Problem sizes are scaled down
//! from the paper (e.g. `fib(28)` instead of `fib(46)`) so simulations
//! finish in laptop-seconds; `EXPERIMENTS.md` documents the scaling.
//!
//! These are trusted guests and the code that builds them, so the crate
//! is not held to the system crates' panic lints: a panic here is a
//! programmer error, not a guest's or a peer's doing.

pub mod apps;
pub mod characteristics;
pub mod fleet;
pub mod programs;

pub use characteristics::{characterize_on, Characteristics};
pub use fleet::ArrivalSchedule;
pub use programs::{
    fft_class, fib_class, handler_fleet_classes, handler_fleet_expected, nqueens_class, tsp_class,
    Workload, WORKLOADS,
};
