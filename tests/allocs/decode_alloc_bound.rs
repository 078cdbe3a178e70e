//! Decoding a state frame allocates at most a constant times the frame.
//!
//! `wire::decode_state` checks every declared count against the bytes left
//! before it allocates for it, and reserves its value array once, from the
//! first frame's shape, capped by the bytes that can still hold values: a
//! value is at least one byte on the wire and 16 in memory, so whatever a
//! header claims, the decoder asks the allocator for at most 16 bytes per
//! byte of frame (plus the names and the frame heads, a small constant
//! here). This file turns that argument into an assertion: two valid
//! frames — the benchmark's 128-frame `Deep` segment and one of more
//! alternating names than the decoder's name window holds — are damaged
//! where a length lives (counts inflated to `u32::MAX` and to the largest
//! value the length checks let through), cut at every offset, and flipped
//! bit by bit through their first 64 bytes; every outcome is `Ok` or a
//! typed `Decode` error, and none asks for more than `16 * len + 4 KiB`.

use crate::counted;
use bytes::Bytes;
use sod::vm::capture::{CapturedFrame, CapturedState, CapturedStatics, CapturedValue, Frames};
use sod::vm::error::VmError;
use sod::vm::wire::{decode_state, encode_state};

/// The lower segment of a whole-stack `stack-churn` migration: 128 frames
/// of `Deep.down`, five integer slots each — 8 336 bytes.
fn deep_frame() -> Vec<u8> {
    let frame = |depth: i64| CapturedFrame {
        class: "Deep".into(),
        method: "down".into(),
        pc: 7,
        locals: (0..5)
            .map(|slot| CapturedValue::Int(depth + slot))
            .collect(),
    };
    let state = CapturedState {
        frames: Frames::from_frames((0..128).map(frame)).unwrap(),
        statics: vec![],
    };
    let bytes = encode_state(&state).expect("encodes").to_vec();
    assert_eq!(bytes.len(), 8_336);
    bytes
}

/// 96 frames cycling through twelve classes and methods — more names than
/// the decoder remembers, no two neighbours alike — with locals of every
/// kind and of every count from none to six, and a statics entry.
fn many_method_frame() -> Vec<u8> {
    let value = |i: usize| match i % 4 {
        0 => CapturedValue::Null,
        1 => CapturedValue::Int(i as i64),
        2 => CapturedValue::Num(i as f64 / 3.0),
        _ => CapturedValue::HomeRef(i as u32),
    };
    let frame = |i: usize| CapturedFrame {
        class: format!("Class{}", i % 12).into(),
        method: format!("method{}", i % 12).into(),
        pc: i as u32,
        locals: (0..(i + 3) % 7).map(|slot| value(i + slot)).collect(),
    };
    let state = CapturedState {
        frames: Frames::from_frames((0..96).map(frame)).unwrap(),
        statics: vec![CapturedStatics {
            class: "Class0".into(),
            values: (0..4).map(value).collect(),
        }],
    };
    encode_state(&state).expect("encodes").to_vec()
}

/// Offset of the first frame's `u32 nlocals`: past the 16-byte header, the
/// two u16-prefixed names and the pc.
fn first_nlocals_at(frame: &[u8]) -> usize {
    let name_len = |at: usize| 2 + usize::from(u16::from_le_bytes([frame[at], frame[at + 1]]));
    let class = 16;
    let method = class + name_len(class);
    method + name_len(method) + 4
}

/// Every damaged copy of `valid` the header comment lists, with a label.
fn damaged(valid: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = vec![("intact".to_owned(), valid.to_vec())];
    let with_u32 = |at: usize, v: u32| {
        let mut bytes = valid.to_vec();
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        bytes
    };
    // `nframes`: absurd, and the most the 12-byte minimum lets through.
    let fits = ((valid.len() - 16) / 12) as u32;
    for n in [u32::MAX, fits + 1, fits, fits / 2] {
        out.push((format!("nframes = {n}"), with_u32(8, n)));
    }
    // The first frame's `nlocals` — the input of the one-shot reservation.
    let at = first_nlocals_at(valid);
    let fits = (valid.len() - at - 4) as u32;
    for n in [u32::MAX, fits + 1, fits, fits / 2, 1 << 16] {
        out.push((format!("first nlocals = {n}"), with_u32(at, n)));
    }
    // Both at once: as many frames as fit, each claiming all that is left.
    let mut both = with_u32(8, ((valid.len() - 16) / 12) as u32);
    both[at..at + 4].copy_from_slice(&fits.to_le_bytes());
    out.push(("nframes and first nlocals inflated".to_owned(), both));
    for cut in 0..valid.len() {
        out.push((format!("cut at {cut}"), valid[..cut].to_vec()));
    }
    for bit in 0..64 * 8 {
        let mut bytes = valid.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        out.push((format!("bit {bit} flipped"), bytes));
    }
    out
}

#[test]
fn decoding_a_state_allocates_at_most_a_constant_times_the_frame() {
    let mut accepted = 0;
    for valid in [deep_frame(), many_method_frame()] {
        for (what, bytes) in damaged(&valid) {
            let len = bytes.len() as u64;
            let frame = Bytes::from(bytes);
            let (outcome, _, asked) = counted(|| decode_state(frame));
            match &outcome {
                Ok(_) => accepted += 1,
                Err(VmError::Decode(_)) => {}
                Err(other) => panic!("{what}: {other:?} is not a decode error"),
            }
            assert!(
                asked <= 16 * len + 4096,
                "{what}: decoding {len} bytes asked the allocator for {asked}"
            );
        }
    }
    // Both intact frames decode, and a flipped bit in a pc or a value
    // still leaves a well-formed message.
    assert!(accepted > 2, "{accepted} frames were accepted");
}
