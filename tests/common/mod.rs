//! Helpers shared by the integration tests in this directory (each test
//! file is its own crate and pulls this in with `mod common;`).

pub mod counting_alloc;
