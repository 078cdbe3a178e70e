//! Xen-style iterative pre-copy live migration (Clark et al., NSDI'05).
//!
//! The guest's memory image transfers in rounds: round 0 ships every used
//! page; each later round ships the pages dirtied during the previous
//! round; when the dirty set stops shrinking (or a round budget runs out),
//! the VM pauses and the final dirty set ships (stop-and-copy). The paper
//! treats the *whole* latency as migration cost — several seconds — even
//! though the freeze is short, which is why it's "excluded from the
//! lightweight comparison" of Table IV.

use sod_net::NS_PER_SEC;
use sod_vm::costs::{XEN_PAGE, XEN_PAUSE};

/// Pre-copy parameters.
#[derive(Clone, Copy, Debug)]
pub struct PrecopyConfig {
    /// Pages in active use by the guest (4 KiB pages).
    pub used_pages: u64,
    /// Pages the workload dirties per second.
    pub dirty_pages_per_sec: u64,
    /// Link bandwidth, bits per second.
    pub bandwidth_bps: u64,
    /// Maximum iterative rounds before forcing stop-and-copy.
    pub max_rounds: u32,
    /// Stop when a round's dirty set is below this page count.
    pub stop_threshold_pages: u64,
}

impl PrecopyConfig {
    /// The paper's testbed: a 2 GB guest with a few hundred MB in use on
    /// Gigabit Ethernet.
    pub fn paper_testbed(used_mb: u64, dirty_mb_per_sec: u64) -> Self {
        PrecopyConfig {
            used_pages: used_mb * 256,
            dirty_pages_per_sec: dirty_mb_per_sec * 256,
            bandwidth_bps: 1_000_000_000,
            max_rounds: 30,
            stop_threshold_pages: 256, // 1 MB
        }
    }
}

/// Result of one simulated pre-copy migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrecopyResult {
    /// Total migration latency (first byte to resume).
    pub total_ns: u64,
    /// Stop-and-copy freeze time.
    pub freeze_ns: u64,
    /// Rounds executed (including the final stop-and-copy).
    pub rounds: u32,
    /// Total bytes shipped (≥ image size; the pre-copy overhead).
    pub bytes_sent: u64,
}

fn send_time_ns(pages: u64, bandwidth_bps: u64) -> u64 {
    XEN_PAGE.of(pages) * 8 * NS_PER_SEC / bandwidth_bps.max(1)
}

/// Simulate iterative pre-copy.
pub fn simulate(cfg: &PrecopyConfig) -> PrecopyResult {
    let mut to_send = cfg.used_pages;
    let mut total_ns = 0u64;
    let mut bytes = 0u64;
    let mut rounds = 0u32;

    loop {
        rounds += 1;
        let t = send_time_ns(to_send, cfg.bandwidth_bps);
        total_ns += t;
        bytes += XEN_PAGE.of(to_send);
        // Pages dirtied while this round was in flight.
        let dirtied = (cfg.dirty_pages_per_sec as u128 * t as u128 / NS_PER_SEC as u128) as u64;
        let dirtied = dirtied.min(cfg.used_pages);
        if dirtied <= cfg.stop_threshold_pages || rounds >= cfg.max_rounds || dirtied >= to_send {
            // Stop-and-copy the remainder.
            let freeze = send_time_ns(dirtied, cfg.bandwidth_bps) + XEN_PAUSE.fixed;
            total_ns += freeze;
            bytes += XEN_PAGE.of(dirtied);
            return PrecopyResult {
                total_ns,
                freeze_ns: freeze,
                rounds: rounds + 1,
                bytes_sent: bytes,
            };
        }
        to_send = dirtied;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod_net::time::MS;

    #[test]
    fn quiet_guest_converges_fast() {
        let r = simulate(&PrecopyConfig::paper_testbed(400, 4));
        assert!(r.rounds <= 4);
        // 400 MB at 1 Gbps ≈ 3.4 s: the paper's multi-second overhead.
        assert!(r.total_ns > 3 * MS * 1000 && r.total_ns < 8 * MS * 1000);
        // Freeze stays sub-second (that is live migration's selling point).
        assert!(r.freeze_ns < 1_000 * MS);
        assert!(r.bytes_sent >= 400 << 20);
    }

    #[test]
    fn dirty_guest_sends_more_rounds_and_bytes() {
        let quiet = simulate(&PrecopyConfig::paper_testbed(400, 2));
        let busy = simulate(&PrecopyConfig::paper_testbed(400, 60));
        assert!(busy.rounds >= quiet.rounds);
        assert!(busy.bytes_sent > quiet.bytes_sent);
        assert!(busy.freeze_ns >= quiet.freeze_ns);
    }

    #[test]
    fn round_cap_terminates_hot_guests() {
        // Dirtying faster than the link can drain never converges on its
        // own; the round cap must force stop-and-copy.
        let r = simulate(&PrecopyConfig {
            used_pages: 100_000,
            dirty_pages_per_sec: 10_000_000,
            bandwidth_bps: 1_000_000_000,
            max_rounds: 10,
            stop_threshold_pages: 16,
        });
        assert!(r.rounds <= 11);
        assert!(r.freeze_ns > 0);
    }

    #[test]
    fn freeze_le_total_and_bytes_ge_image() {
        for dirty in [1, 16, 128, 1024] {
            let r = simulate(&PrecopyConfig::paper_testbed(256, dirty));
            assert!(r.freeze_ns <= r.total_ns);
            assert!(r.bytes_sent >= 256 << 20);
        }
    }
}
