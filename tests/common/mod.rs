//! Helpers shared by the integration tests in this directory (each test
//! file is its own crate and pulls this in with `mod common;`).
//!
//! The scenario corpus, `corpus.rs`, is not declared here: its suites
//! include it by path (`#[path = "common/corpus.rs"] mod corpus;`), so they
//! run without the counting allocator this module installs.

pub mod counting_alloc;
