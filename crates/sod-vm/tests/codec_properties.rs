//! Property tests for the wire codec: randomized classes, states, and
//! objects round-trip losslessly (directly and through [`FrameBatch`]
//! delivery frames), the encoded frame length equals the arithmetic
//! `*_wire_bytes()` size model for every sample, and arbitrary byte garbage
//! never panics the decoder.

use std::sync::Arc;

use proptest::prelude::*;
use sod_vm::capture::{CapturedFrame, CapturedState, CapturedStatics, CapturedValue};
use sod_vm::class::{ClassDef, ExEntry, ExKind, FieldDef, MethodDef};
use sod_vm::instr::{Cmp, Instr, SwitchTable};
use sod_vm::value::TypeOf;
use sod_vm::wire::{
    class_wire_bytes, decode_class, decode_object, decode_state, encode_class, encode_object,
    encode_state, BufferPool, FrameBatch, WireObjBody, WireObject,
};

fn captured_value() -> impl Strategy<Value = CapturedValue> {
    prop_oneof![
        Just(CapturedValue::Null),
        any::<i64>().prop_map(CapturedValue::Int),
        any::<i64>().prop_map(|b| CapturedValue::Num(b as f64 / 7.0)),
        (0u32..1_000_000).prop_map(CapturedValue::HomeRef),
    ]
}

fn instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        any::<i64>().prop_map(Instr::PushI),
        (0u16..64).prop_map(Instr::Load),
        (0u16..64).prop_map(Instr::Store),
        Just(Instr::Add),
        Just(Instr::Mul),
        (0u32..1000).prop_map(|t| Instr::If(Cmp::Le, t)),
        (0u16..32).prop_map(Instr::GetField),
        ((0u16..32), (0u16..32)).prop_map(|(c, m)| Instr::InvokeStatic(c, m, 2)),
        Just(Instr::RetV),
        (0u16..16).prop_map(Instr::BringObjLocal),
        (0u8..4).prop_map(Instr::CheckStatus),
        (0u16..16).prop_map(Instr::RestoreLocal),
    ]
}

fn class_def() -> impl Strategy<Value = ClassDef> {
    (
        "[A-Za-z][A-Za-z0-9]{0,12}",
        proptest::collection::vec(("[a-z][a-z0-9]{0,8}", any::<bool>()), 0..6),
        proptest::collection::vec(instr(), 1..40),
        proptest::collection::vec("[a-z]{1,10}".prop_map(String::from), 0..8),
    )
        .prop_map(|(name, fields, code, pool)| {
            let n = code.len();
            let mut c = ClassDef::new(name);
            for (fname, is_static) in fields {
                c.fields.push(FieldDef {
                    name: fname,
                    ty: TypeOf::Int,
                    is_static,
                });
            }
            c.pool = pool;
            let mut m = MethodDef::new("m", 1, 7);
            m.code = code;
            m.lines = (0..n as u32).map(|i| i / 3 + 1).collect();
            m.ex_table = vec![ExEntry::new(0, n as u32 / 2, 0, ExKind::NullPointer)];
            m.switches = vec![SwitchTable {
                pairs: vec![(1, 0), (9, 0)],
                default: 0,
            }];
            c.methods.push(m);
            c
        })
}

fn captured_state() -> impl Strategy<Value = CapturedState> {
    (
        proptest::collection::vec(
            (
                "[A-Z][a-z]{0,6}",
                "[a-z]{1,6}",
                0u32..500,
                proptest::collection::vec(captured_value(), 0..12),
            ),
            1..6,
        ),
        proptest::collection::vec(
            (
                "[A-Z][a-z]{0,6}",
                proptest::collection::vec(captured_value(), 0..6),
            ),
            0..3,
        ),
    )
        .prop_map(|(frames, statics)| CapturedState {
            frames: frames
                .into_iter()
                .map(|(class, method, pc, locals)| CapturedFrame {
                    class: class.into(),
                    method: method.into(),
                    pc,
                    locals: locals.into(),
                })
                .collect(),
            statics: statics
                .into_iter()
                .map(|(class, values)| CapturedStatics {
                    class: class.into(),
                    values,
                })
                .collect(),
        })
}

/// A state whose frames draw their names from `classes` × `methods`, so
/// names repeat within the message the way a real stack's do.
fn state_naming(
    classes: &'static [&'static str],
    methods: &'static [&'static str],
    frames: std::ops::Range<usize>,
) -> impl Strategy<Value = CapturedState> {
    let frame = (
        0..classes.len(),
        0..methods.len(),
        proptest::collection::vec(captured_value(), 0..6),
    );
    proptest::collection::vec(frame, frames).prop_map(move |frames| CapturedState {
        frames: frames
            .into_iter()
            .map(|(c, m, locals)| CapturedFrame {
                class: classes[c].into(),
                method: methods[m].into(),
                pc: (c * 7 + m) as u32,
                locals: locals.into(),
            })
            .collect(),
        statics: vec![CapturedStatics {
            class: classes[0].into(),
            values: vec![CapturedValue::Int(1)],
        }],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn class_roundtrip(c in class_def()) {
        let encoded = encode_class(&c).unwrap();
        // Encode-once contract: the frame length IS the byte metric.
        prop_assert_eq!(encoded.len() as u64, class_wire_bytes(&c));
        let decoded = decode_class(encoded).unwrap();
        prop_assert_eq!(c, decoded);
    }

    #[test]
    fn state_roundtrip(state in captured_state()) {
        let encoded = encode_state(&state).unwrap();
        // The framed layout is sized so the frame length equals the
        // arithmetic size model exactly — no re-encoding at size queries.
        prop_assert_eq!(encoded.len() as u64, state.wire_bytes());
        let decoded = decode_state(encoded).unwrap();
        prop_assert_eq!(&state, &decoded);
    }

    #[test]
    fn object_roundtrip(
        home in 0u32..1_000_000,
        fields in proptest::collection::vec(captured_value(), 0..20),
        tag in 0u8..3,
    ) {
        let body = match tag {
            0 => WireObjBody::Obj { class: "C".into(), fields },
            1 => WireObjBody::Arr { elems: fields },
            _ => WireObjBody::Str("hello world".into()),
        };
        let obj = WireObject { home_id: home, body };
        let encoded = encode_object(&obj).unwrap();
        prop_assert_eq!(encoded.len() as u64, obj.wire_bytes());
        let decoded = decode_object(encoded).unwrap();
        prop_assert_eq!(obj, decoded);
    }

    /// Seven distinct names fit the decoder's name window, so within one
    /// message a name is one `Arc` however often and wherever it appears
    /// (frame class, frame method — "A" is both — or statics class), and
    /// two different names are never handed the same one.
    #[test]
    fn repeated_names_decode_to_one_shared_arc(
        state in state_naming(&["A", "Bb", "Ccc"], &["f", "g", "run", "A"], 1..40),
    ) {
        let decoded = decode_state(encode_state(&state).unwrap()).unwrap();
        prop_assert_eq!(&state, &decoded);
        let names: Vec<&Arc<str>> = decoded
            .frames
            .iter()
            .flat_map(|f| [&f.class, &f.method])
            .chain(decoded.statics.iter().map(|s| &s.class))
            .collect();
        for a in &names {
            for b in &names {
                prop_assert_eq!(Arc::ptr_eq(a, b), a == b, "{} vs {}", a, b);
            }
        }
    }

    /// More distinct names than the window holds: sharing degrades, the
    /// decoded state does not.
    #[test]
    fn more_names_than_the_window_still_roundtrip(
        state in state_naming(
            &["A", "B", "C", "D", "E", "F", "G"],
            &["a", "b", "c", "d", "e", "f", "g"],
            10..60,
        ),
    ) {
        let decoded = decode_state(encode_state(&state).unwrap()).unwrap();
        prop_assert_eq!(&state, &decoded);
    }

    /// Payloads batched into one delivery frame survive the trip and the
    /// batch's payload metric equals the sum of the members' wire sizes.
    #[test]
    fn batched_frames_roundtrip(
        c in class_def(),
        state in captured_state(),
        home in 0u32..1_000_000,
    ) {
        let pool = BufferPool::new();
        let obj = WireObject { home_id: home, body: WireObjBody::Str("s".into()) };
        let mut batch = FrameBatch::new();
        batch.push(encode_class(&c).unwrap());
        batch.push(encode_state(&state).unwrap());
        batch.push(encode_object(&obj).unwrap());
        prop_assert_eq!(
            batch.payload_bytes(),
            class_wire_bytes(&c) + state.wire_bytes() + obj.wire_bytes()
        );
        let delivered = batch.encode_pooled(&pool).unwrap();
        let back = FrameBatch::decode(delivered.clone()).unwrap();
        prop_assert_eq!(decode_class(back.frames()[0].clone()).unwrap(), c);
        prop_assert_eq!(decode_state(back.frames()[1].clone()).unwrap(), state);
        prop_assert_eq!(decode_object(back.frames()[2].clone()).unwrap(), obj);
        // After the last handle drops, the pool reclaims the delivery buffer.
        drop(back);
        prop_assert!(pool.recycle(delivered));
        prop_assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let b = bytes::Bytes::from(bytes);
        let _ = decode_class(b.clone());
        let _ = decode_state(b.clone());
        let _ = decode_object(b.clone());
        let _ = FrameBatch::decode(b);
    }

    #[test]
    fn truncation_of_valid_class_errors_not_panics(c in class_def(), cut in 1usize..32) {
        let encoded = encode_class(&c).unwrap();
        if encoded.len() > cut {
            let truncated = encoded.slice(0..encoded.len() - cut);
            prop_assert!(decode_class(truncated).is_err());
        }
    }

    #[test]
    fn truncation_of_valid_state_errors_not_panics(state in captured_state(), cut in 1usize..32) {
        let encoded = encode_state(&state).unwrap();
        if encoded.len() > cut {
            let truncated = encoded.slice(0..encoded.len() - cut);
            prop_assert!(decode_state(truncated).is_err());
        }
    }
}
