//! # sod-bench — the evaluation harness
//!
//! One function per table/figure of the paper's §IV; each returns the
//! formatted table so binaries print it and tests assert on its shape.
//! `bin/all` regenerates the full evaluation and is what `EXPERIMENTS.md`
//! records.

pub mod chaos;
pub mod codec;
pub mod codecache;
pub mod elastic;
pub mod scale;
pub mod tables;
pub mod vmdispatch;

pub use chaos::{chaos_json, chaos_table, run_chaos_fleet};
pub use codecache::{codecache_json, codecache_table, run_codecache_fleet};
pub use elastic::{elastic_json, elastic_table, run_elastic_fleet};
pub use scale::{run_scale_fleet, scale_json, scale_table, scale_table_for, ScaleRow};
pub use tables::*;
