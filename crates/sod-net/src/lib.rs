//! # sod-net — a deterministic discrete-event cluster/network simulator
//!
//! The SOD paper's evaluation runs on a Gigabit cluster, a simulated
//! WAN-connected grid, and a bandwidth-limited Wi-Fi link to an iPhone.
//! This crate provides the deterministic substrate those experiments run on
//! here: a virtual clock in nanoseconds, one event queue (a heap of keys
//! ordered by time, then submission order, over a slab of events — see
//! [`Sim`]), and
//! point-to-point links with latency and bandwidth (FIFO serialization of
//! concurrent transfers).
//!
//! Everything is deterministic: given the same initial world and
//! messages, a simulation always produces the same timeline. The
//! [`World`] trait is implemented by the
//! distributed runtime (`sod-runtime`) — nodes exchange messages whose
//! delivery times are computed from the [`Topology`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod chaos;
pub mod link;
pub mod sim;
pub mod time;
pub mod topology;

pub use chaos::{ChaosAction, ChaosEntry, ChaosPlan, ChaosState, DropReason};
pub use link::{Link, LinkSpec};
#[doc(hidden)]
pub use sim::{Choice, Fault, Scheduler};
pub use sim::{QueueStats, Sim, SimCtx, World};
pub use time::{ns_to_ms_string, ns_to_s_string, MS, NS_PER_MS, NS_PER_SEC, NS_PER_US, SEC, US};
pub use topology::Topology;
