//! Host-time cost of the wire codec: encode-once pooled framing versus
//! the pre-codec habit of re-serializing a payload at every size-query
//! site.
//!
//! Before the encode-once rework, a shipped state was a deep Rust value
//! whose byte size was recomputed arithmetically everywhere it was
//! needed; anything that wanted the *actual* wire image (or deep-cloned
//! the value per hop) paid a fresh serialization each time. Now the
//! payload is serialized exactly once into a pooled buffer and travels
//! as a cheap-to-clone frame whose length *is* the byte metric, so every
//! subsequent "how big is this?" is a field read. Virtual-time results
//! are bit-identical by construction (`tests/codec_equivalence.rs` pins
//! it); the only thing this measures is host nanoseconds.
//!
//! `bin/codec` emits the one-shot `BENCH_codec.json` summary with host
//! provenance.

use std::fmt::Write as _;
use std::time::Instant;

use sod_vm::capture::{CapturedFrame, CapturedState, CapturedStatics, CapturedValue, Frames};
use sod_vm::wire::{decode_state, encode_state, encode_state_pooled, BufferPool};

/// Timing repetitions per row; the minimum is reported to shed scheduler
/// noise.
pub const REPS: usize = 5;

/// Size-query sites a shipped segment hits on one clean migration in the
/// engine (send accounting, wire-size charge, transfer-window split,
/// timings, deserialize charge, report aggregation, plus the lost-credit
/// paths chaos adds): the per-query multiplier of the legacy path.
pub const QUERIES_PER_HOP: usize = 8;

/// Inner iterations per timed run, so a row measures microseconds of
/// aggregate work rather than one sub-microsecond call.
const INNER: usize = 256;

/// A synthetic captured stack shaped like the paper's workloads: `depth`
/// frames of `locals` locals each, plus one statics block. Deterministic
/// — no clocks, no RNG — so every run encodes identical bytes.
pub fn synthetic_state(depth: usize, locals: usize) -> CapturedState {
    let frames = (0..depth).map(|i| CapturedFrame {
        class: format!("Workload{}", i % 4).into(),
        method: format!("step{i}").into(),
        pc: (i * 7) as u32,
        locals: (0..locals)
            .map(|j| match j % 3 {
                0 => CapturedValue::Int((i * locals + j) as i64),
                1 => CapturedValue::Num(j as f64 * 0.5),
                _ => CapturedValue::Null,
            })
            .collect(),
    });
    let frames = Frames::from_frames(frames).expect("a synthetic segment fits its u32 indexes");
    let statics = vec![CapturedStatics {
        class: "Workload0".into(),
        values: vec![CapturedValue::Int(42), CapturedValue::Null],
    }];
    CapturedState { frames, statics }
}

/// The shipped row set: a shallow edge offload, a mid-size stack, and a
/// deep roaming stack.
pub fn states() -> Vec<(&'static str, CapturedState)> {
    vec![
        ("shallow_2f", synthetic_state(2, 6)),
        ("stack_8f", synthetic_state(8, 12)),
        ("deep_32f", synthetic_state(32, 16)),
    ]
}

/// One measured row: host ns for a hop's worth of byte-size answers on
/// the legacy path (re-encode per query) and the encode-once path (one
/// pooled encode, then length reads), plus the decode cost both pay.
pub struct CodecRow {
    pub state: &'static str,
    /// Wire frame length (== `wire_bytes()`, asserted).
    pub bytes: u64,
    /// Host ns per hop when every size query re-serializes the payload.
    pub reencode_ns: f64,
    /// Host ns per hop with one pooled encode and `len()` queries.
    pub once_ns: f64,
    /// Host ns to decode the frame at the destination.
    pub decode_ns: f64,
}

impl CodecRow {
    pub fn speedup(&self) -> f64 {
        self.reencode_ns / self.once_ns.max(f64::MIN_POSITIVE)
    }
}

fn time(mut f: impl FnMut() -> u64) -> f64 {
    let mut best = u64::MAX;
    for _ in 0..REPS {
        let started = Instant::now();
        let guard = f();
        let ns = started.elapsed().as_nanos() as u64;
        assert!(guard > 0, "work must not be optimized away");
        best = best.min(ns);
    }
    best as f64 / INNER as f64
}

/// Measure one captured state on both paths.
pub fn measure(name: &'static str, state: &CapturedState) -> CodecRow {
    let pool = BufferPool::new();
    let frame = encode_state_pooled(&pool, state).expect("state encodes");
    assert_eq!(frame.len() as u64, state.wire_bytes(), "{name}: size drift");
    let bytes = frame.len() as u64;

    // Legacy: each size-query site serializes the whole payload again.
    let reencode_ns = time(|| {
        let mut total = 0u64;
        for _ in 0..INNER {
            for _ in 0..QUERIES_PER_HOP {
                total += encode_state(state).expect("encode").len() as u64;
            }
        }
        total
    });
    // Encode-once: one pooled serialization per hop, then length reads.
    let once_ns = time(|| {
        let mut total = 0u64;
        for _ in 0..INNER {
            let f = encode_state_pooled(&pool, state).expect("encode");
            for _ in 0..QUERIES_PER_HOP {
                total += f.len() as u64;
            }
            pool.recycle(f);
        }
        total
    });
    let decode_ns = time(|| {
        let mut total = 0u64;
        for _ in 0..INNER {
            total += decode_state(frame.clone()).expect("decode").frames.len() as u64;
        }
        total
    });

    CodecRow {
        state: name,
        bytes,
        reencode_ns,
        once_ns,
        decode_ns,
    }
}

/// Measure the shipped state set.
pub fn sweep() -> Vec<CodecRow> {
    states().iter().map(|(n, s)| measure(n, s)).collect()
}

/// Render measured rows as the human-readable table.
pub fn render_table(rows: &[CodecRow]) -> String {
    let mut out = String::from(
        "TABLE CODEC. WIRE PATH (host ns per shipped hop; min of reps; \
         before = re-encode per size query, after = encode once + length reads)\n\
         state        bytes    before(ns)   after(ns)   decode(ns)  speedup\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:<8} {:<12.0} {:<11.0} {:<11.0} {:.1}x",
            r.state,
            r.bytes,
            r.reencode_ns,
            r.once_ns,
            r.decode_ns,
            r.speedup(),
        );
    }
    out
}

/// Render measured rows as the `BENCH_codec.json` summary. Host-derived
/// numbers are not deterministic, so the blob carries provenance: the
/// host's core count and the fixed workload seed (the encoded bytes *are*
/// deterministic — identical frames every run).
pub fn render_json(rows: &[CodecRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"state\":\"{}\",\"bytes\":{},\"reencode_hop_ns\":{:.1},\
                 \"encode_once_hop_ns\":{:.1},\"decode_ns\":{:.1},\"speedup\":{:.2}}}",
                r.state,
                r.bytes,
                r.reencode_ns,
                r.once_ns,
                r.decode_ns,
                r.speedup(),
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"codec\",\"seed\":{},\"host_cores\":{},\"reps\":{},\
         \"queries_per_hop\":{},\"rows\":[{}]}}\n",
        crate::scale::SCALE_SEED,
        cores,
        REPS,
        QUERIES_PER_HOP,
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_measure_and_render() {
        // Tiny shape: pins the size-drift assertion inside `measure` and
        // the render shapes, not host performance.
        let s = synthetic_state(2, 3);
        let rows = vec![measure("tiny", &s)];
        assert_eq!(rows[0].bytes, s.wire_bytes());
        let t = render_table(&rows);
        assert!(t.contains("TABLE CODEC") && t.contains("tiny"));
        let j = render_json(&rows);
        assert!(j.starts_with("{\"bench\":\"codec\""));
        assert!(j.contains("\"queries_per_hop\":") && j.contains("\"speedup\":"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
