//! Property tests for the wire codec: randomized classes, states, and
//! objects round-trip losslessly (directly and through [`FrameBatch`]
//! delivery frames), the encoded frame length equals the arithmetic
//! `*_wire_bytes()` size model for every sample, and arbitrary byte garbage
//! never panics the decoder.
//!
//! A captured segment is held as three arrays (`capture::Frames`); a group
//! of properties pins that form against the plain list of frames it
//! replaced: cuts, bytes, round trips and restores must be those of a
//! `Vec<CapturedFrame>`.
//!
//! The second half pins the object path's two routes against each other
//! over random heaps: what the runtime does — write a frame from the heap,
//! read a frame into the heap — must equal, byte for byte and heap for
//! heap, the same trip taken through the decoded [`WireObject`] view.

use std::sync::Arc;

use proptest::prelude::*;
use sod_vm::capture::{
    capture_segment, restore_segment_direct, CapturedFrame, CapturedState, CapturedStatics,
    CapturedValue, Frames,
};
use sod_vm::class::{ClassDef, ExEntry, ExKind, FieldDef, MethodDef};
use sod_vm::error::VmError;
use sod_vm::heap::{Heap, ObjKind};
use sod_vm::instr::{Cmp, Instr, SwitchTable};
use sod_vm::interp::Vm;
use sod_vm::tooling::ToolingPath;
use sod_vm::value::{ObjId, TypeOf, Value};
use sod_vm::wire::{
    class_wire_bytes, closure_ids, decode_class, decode_object, decode_state, encode_class,
    encode_object, encode_state, extract_closure, extract_dirty, extract_object,
    install_object_from, put_dirty_object, put_home_object, BatchWriter, BufferPool, FrameBatch,
    FrameBody, ObjectFrame, WireObjBody, WireObject,
};

fn captured_value() -> impl Strategy<Value = CapturedValue> {
    prop_oneof![
        Just(CapturedValue::Null),
        any::<i64>().prop_map(CapturedValue::Int),
        any::<i64>().prop_map(|b| CapturedValue::Num(b as f64 / 7.0)),
        (0u32..1_000_000).prop_map(CapturedValue::HomeRef),
    ]
}

fn cmp() -> impl Strategy<Value = Cmp> {
    prop_oneof![
        Just(Cmp::Eq),
        Just(Cmp::Ne),
        Just(Cmp::Lt),
        Just(Cmp::Le),
        Just(Cmp::Gt),
        Just(Cmp::Ge),
    ]
}

/// Every kind, `User` over its whole encodable range.
fn ex_kind() -> impl Strategy<Value = ExKind> {
    prop_oneof![
        Just(ExKind::NullPointer),
        Just(ExKind::InvalidState),
        Just(ExKind::OutOfMemory),
        Just(ExKind::ClassNotFound),
        Just(ExKind::ArrayBounds),
        Just(ExKind::DivByZero),
        (0u16..65520).prop_map(ExKind::User),
    ]
}

/// Every instruction, with arbitrary operands.
fn instr() -> impl Strategy<Value = Instr> {
    use Instr::*;
    let u16 = any::<u16>;
    let u32 = any::<u32>;
    let u8 = any::<u8>;
    prop_oneof![
        any::<i64>().prop_map(PushI),
        any::<f64>().prop_map(PushF),
        u16().prop_map(PushStr),
        Just(PushNull),
        u16().prop_map(Load),
        u16().prop_map(Store),
        Just(Dup),
        Just(Pop),
        Just(Swap),
        Just(Add),
        Just(Sub),
        Just(Mul),
        Just(Div),
        Just(Rem),
        Just(Neg),
        Just(Shl),
        Just(Shr),
        Just(BAnd),
        Just(BOr),
        Just(BXor),
        Just(I2F),
        Just(F2I),
        (cmp(), u32()).prop_map(|(c, t)| If(c, t)),
        (cmp(), u32()).prop_map(|(c, t)| IfZ(c, t)),
        u32().prop_map(IfNull),
        u32().prop_map(IfNonNull),
        u32().prop_map(Goto),
        u16().prop_map(Switch),
        u16().prop_map(New),
        u16().prop_map(GetField),
        u16().prop_map(PutField),
        (u16(), u16()).prop_map(|(c, f)| GetStatic(c, f)),
        (u16(), u16()).prop_map(|(c, f)| PutStatic(c, f)),
        Just(NewArr),
        Just(ALoad),
        Just(AStore),
        Just(ArrLen),
        (u16(), u16(), u8()).prop_map(|(c, m, n)| InvokeStatic(c, m, n)),
        (u16(), u8()).prop_map(|(m, n)| InvokeVirtual(m, n)),
        Just(Ret),
        Just(RetV),
        ex_kind().prop_map(ThrowKind),
        Just(Throw),
        (u16(), u8()).prop_map(|(f, n)| NativeCall(f, n)),
        u16().prop_map(ReadCaptured),
        Just(ReadCapturedPc),
        u16().prop_map(RestoreLocal),
        u16().prop_map(BringObjLocal),
        (u16(), u16()).prop_map(|(b, f)| BringObjField(b, f)),
        (u16(), u16(), u16()).prop_map(|(c, f, d)| BringObjStaticTo(c, f, d)),
        (u16(), u16(), u16()).prop_map(|(b, x, d)| BringObjElemTo(b, x, d)),
        Just(RethrowAppNpe),
        u8().prop_map(CheckStatus),
        Just(Nop),
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
            frames: Frames::from_frames(frames.into_iter().map(|(class, method, pc, locals)| {
                CapturedFrame {
                    class: class.into(),
                    method: method.into(),
                    pc,
                    locals,
                }
            }))
            .unwrap(),
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
        frames: Frames::from_frames(frames.into_iter().map(|(c, m, locals)| CapturedFrame {
            class: classes[c].into(),
            method: methods[m].into(),
            pc: (c * 7 + m) as u32,
            locals,
        }))
        .unwrap(),
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
            .runs()
            .iter()
            .flat_map(|(class, method)| [class, method])
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

    /// The frame's length is the byte metric at every touch point after
    /// the encode, so a frame longer than the message it holds is refused.
    #[test]
    fn trailing_bytes_after_a_valid_state_are_rejected(
        state in captured_state(),
        extra in proptest::collection::vec(any::<u8>(), 1..17),
    ) {
        let mut bytes = encode_state(&state).unwrap().to_vec();
        bytes.extend(extra);
        prop_assert_eq!(
            decode_state(bytes::Bytes::from(bytes)),
            Err(VmError::Decode("trailing bytes after state"))
        );
    }
}

// ---------------------------------------------------------------------------
// The three-array segment against a plain list of frames
// ---------------------------------------------------------------------------

/// Local slots of `Seg.m0` … `Seg.m5`.
const SEG_LOCALS: [u16; 6] = [0, 1, 3, 5, 8, 2];

/// `Seg`, whose six methods differ in their locals; pc 0 of each is a line
/// start, so a thread restored there can be captured again.
fn seg_class() -> ClassDef {
    let mut c = ClassDef::new("Seg");
    for (i, &nlocals) in SEG_LOCALS.iter().enumerate() {
        let code = vec![Instr::PushI(0), Instr::RetV];
        let m = MethodDef::new(format!("m{i}"), 0, nlocals).with_code(code, vec![1, 1]);
        c.methods.push(m);
    }
    c
}

/// A segment as the list of frames it was before it was three arrays:
/// 1–200 frames of `Seg`'s first 1–6 methods in random runs, every frame
/// with its method's locals, of every value kind.
fn frame_list() -> impl Strategy<Value = Vec<CapturedFrame>> {
    (
        1..SEG_LOCALS.len() + 1,
        proptest::collection::vec((0..SEG_LOCALS.len(), 1usize..40), 1..10),
        proptest::collection::vec(captured_value(), 8..64),
    )
        .prop_map(|(nmethods, runs, values)| {
            let methods = runs.iter().flat_map(|&(m, len)| [m % nmethods].repeat(len));
            let frame = |(at, m): (usize, usize)| CapturedFrame {
                class: "Seg".into(),
                method: format!("m{m}").into(),
                pc: 0,
                locals: (0..usize::from(SEG_LOCALS[m]))
                    .map(|slot| values[(at * 7 + slot) % values.len()])
                    .collect(),
            };
            methods.take(200).enumerate().map(frame).collect()
        })
}

/// The state wire layout written the long way from a list of frames, one
/// field at a time — the bytes every state had before this form existed.
fn listed_bytes(frames: &[CapturedFrame], statics: &[CapturedStatics]) -> Vec<u8> {
    fn name(out: &mut Vec<u8>, s: &str) {
        out.extend((s.len() as u16).to_le_bytes());
        out.extend(s.as_bytes());
    }
    fn value(out: &mut Vec<u8>, v: &CapturedValue) {
        match *v {
            CapturedValue::Null => out.push(0),
            CapturedValue::Int(i) => {
                out.push(1);
                out.extend(i.to_le_bytes());
            }
            CapturedValue::Num(n) => {
                out.push(2);
                out.extend(n.to_bits().to_le_bytes());
            }
            CapturedValue::HomeRef(id) => {
                out.push(3);
                out.extend(u64::from(id).to_le_bytes());
            }
        }
    }
    let mut out = Vec::new();
    for word in [0x534F_4457, 1, frames.len() as u32, statics.len() as u32] {
        out.extend(word.to_le_bytes());
    }
    for f in frames {
        name(&mut out, &f.class);
        name(&mut out, &f.method);
        out.extend(f.pc.to_le_bytes());
        out.extend((f.locals.len() as u32).to_le_bytes());
        f.locals.iter().for_each(|v| value(&mut out, v));
    }
    for s in statics {
        name(&mut out, &s.class);
        out.extend((s.values.len() as u16).to_le_bytes());
        s.values.iter().for_each(|v| value(&mut out, v));
    }
    out
}

/// Frames and values of thread `tid`, for comparing two restores.
fn thread_shape(vm: &Vm, tid: usize) -> String {
    let t = vm.thread(tid).unwrap();
    let locals: Vec<_> = (0..t.frames.len()).map(|fi| t.locals(fi)).collect();
    format!("{:?} {:?} {}", t.frames, locals, t.seg_frames)
}

/// Three frames of two methods, with statics: its bytes are committed, so
/// the layout cannot drift together with the test's own model of it.
#[test]
fn a_three_frame_state_has_its_committed_bytes() {
    let frame = |method: &str, pc, locals| CapturedFrame {
        class: "Main".into(),
        method: method.into(),
        pc,
        locals,
    };
    let frames = vec![
        frame(
            "main",
            5,
            vec![CapturedValue::Int(-3), CapturedValue::HomeRef(12)],
        ),
        frame("f", 2, vec![CapturedValue::Num(2.5), CapturedValue::Null]),
        frame("f", 7, vec![]),
    ];
    let statics = vec![CapturedStatics {
        class: "Main".into(),
        values: vec![CapturedValue::Int(7)],
    }];
    let state = CapturedState {
        frames: Frames::from_frames(frames.iter().cloned()).unwrap(),
        statics: statics.clone(),
    };
    assert_eq!(state.frames.runs().len(), 2);
    let hex = "57444f5301000000030000000100000004004d61696e04006d61696e0500000002000000\
               01fdffffffffffffff030c0000000000000004004d61696e0100660200000002000000\
               0200000000000004400004004d61696e010066070000000000000004004d61696e0100\
               010700000000000000";
    let encoded = encode_state(&state).unwrap();
    let as_hex: String = encoded.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(as_hex, hex);
    assert_eq!(encoded.len(), 115);
    assert_eq!(listed_bytes(&frames, &statics), encoded.to_vec());
    assert_eq!(decode_state(encoded).unwrap(), state);
}

/// One class that holds every opcode, every `Cmp`, every `TypeOf`, a
/// built-in and a `User` exception kind, a fault-handler entry and a
/// switch: its bytes are committed, so the class frame cannot drift
/// together with its decoder.
#[test]
fn a_class_of_every_opcode_has_its_committed_bytes() {
    use Instr::*;
    let code = vec![
        PushI(-2),
        PushF(0.5),
        PushStr(1),
        PushNull,
        Load(2),
        Store(3),
        Dup,
        Pop,
        Swap,
        Add,
        Sub,
        Mul,
        Div,
        Rem,
        Neg,
        Shl,
        Shr,
        BAnd,
        BOr,
        BXor,
        I2F,
        F2I,
        If(Cmp::Eq, 4),
        If(Cmp::Ne, 5),
        If(Cmp::Lt, 6),
        IfZ(Cmp::Le, 7),
        IfZ(Cmp::Gt, 8),
        IfZ(Cmp::Ge, 9),
        IfNull(10),
        IfNonNull(11),
        Goto(12),
        Switch(0),
        New(0),
        GetField(1),
        PutField(2),
        GetStatic(0, 3),
        PutStatic(0, 4),
        NewArr,
        ALoad,
        AStore,
        ArrLen,
        InvokeStatic(0, 5, 2),
        InvokeVirtual(6, 3),
        Ret,
        RetV,
        ThrowKind(ExKind::DivByZero),
        ThrowKind(ExKind::User(3)),
        Throw,
        NativeCall(7, 1),
        ReadCaptured(4),
        ReadCapturedPc,
        RestoreLocal(5),
        BringObjLocal(6),
        BringObjField(7, 1),
        BringObjStaticTo(0, 2, 8),
        BringObjElemTo(9, 10, 11),
        RethrowAppNpe,
        CheckStatus(2),
        Nop,
    ];
    let lines = (0..code.len() as u32).map(|pc| pc / 4 + 1).collect();
    let method = MethodDef::new("m", 1, 11)
        .with_code(code, lines)
        .with_ex_table(vec![
            ExEntry::new(0, 9, 40, ExKind::NullPointer).as_fault_handler(),
            ExEntry::new(9, 20, 41, ExKind::User(3)),
        ])
        .with_switches(vec![SwitchTable {
            pairs: vec![(-1, 13), (8, 14)],
            default: 15,
        }]);
    let mut c = ClassDef::new("All")
        .with_field(FieldDef::instance("i", TypeOf::Int))
        .with_field(FieldDef::stat("n", TypeOf::Num))
        .with_field(FieldDef::instance("r", TypeOf::Ref))
        .with_method(method);
    c.intern("All");
    c.intern("f");
    let hex = "03000000416c6c0200000003000000416c6c010000006603000000010000006900000100\
               00006e01010100000072020001000000010000006d01000c003b00000000feffffffffff\
               ffff01000000000000e03f02010003040200050300060708090a0b0c0d0e0f1011121314\
               151600040000001601050000001602060000001703070000001704080000001705090000\
               00180a000000190b0000001a0c0000001b00001c00001d01001e02001f00000300200000\
               0400212223242500000500022606000327282905002913002a2b0700012c04002d350500\
               2e06002f07000100300000020008003109000a000b003234023301000000010000000100\
               000001000000020000000200000002000000020000000300000003000000030000000300\
               000004000000040000000400000004000000050000000500000005000000050000000600\
               000006000000060000000600000007000000070000000700000007000000080000000800\
               00000800000008000000090000000900000009000000090000000a0000000a0000000a00\
               00000a0000000b0000000b0000000b0000000b0000000c0000000c0000000c0000000c00\
               00000d0000000d0000000d0000000d0000000e0000000e0000000e0000000e0000000f00\
               00000f0000000f0000000200000000000000090000002800000000000109000000140000\
               00290000001300000100000002000000ffffffffffffffff0d0000000800000000000000\
               0e0000000f000000";
    let encoded = encode_class(&c).unwrap();
    let as_hex: String = encoded.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(as_hex, hex);
    assert_eq!(encoded.len(), 548);
    assert_eq!(class_wire_bytes(&c), encoded.len() as u64);
    assert_eq!(decode_class(encoded).unwrap(), c);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Built frame by frame, cut at every height: both halves list the
    /// frames a `Vec` cut there would, and encode to the bytes the list
    /// form did; the whole round-trips by contents.
    #[test]
    fn a_segment_cuts_and_encodes_like_a_list_of_frames(list in frame_list()) {
        let mut whole = Frames::new();
        for frame in &list {
            whole.push(frame.clone()).unwrap();
        }
        prop_assert_eq!(whole.len(), list.len());
        let statics = vec![CapturedStatics {
            class: "Seg".into(),
            values: vec![CapturedValue::Int(9), CapturedValue::Null],
        }];
        for at in 0..=list.len() {
            let mut below = whole.clone();
            let above = below.split_off(at);
            let (list_below, list_above) = list.split_at(at);
            prop_assert!(below.iter().eq(list_below.iter().map(CapturedFrame::view)));
            prop_assert!(above.iter().eq(list_above.iter().map(CapturedFrame::view)));
            prop_assert_eq!(above.first(), list_above.first().map(CapturedFrame::view));
            // A run the cut goes through is named on both sides of it.
            let through = matches!(
                (list_below.last(), list_above.first()),
                (Some(b), Some(a)) if b.method == a.method
            );
            let runs = below.runs().len() + above.runs().len();
            prop_assert_eq!(runs, whole.runs().len() + usize::from(through));
            for (half, list_half) in [(below, list_below), (above, list_above)] {
                prop_assert_eq!(
                    half.value_count(),
                    list_half.iter().map(|f| f.locals.len()).sum::<usize>()
                );
                let state = CapturedState { frames: half, statics: statics.clone() };
                let encoded = encode_state(&state).unwrap();
                prop_assert_eq!(&encoded[..], &listed_bytes(list_half, &statics)[..]);
                prop_assert_eq!(encoded.len() as u64, state.wire_bytes());
                // By contents: the decoder opens its runs from the bytes,
                // `push` from the names — the partitions need not agree.
                prop_assert_eq!(decode_state(encoded).unwrap(), state);
            }
        }
    }

    /// Restored into a VM and captured again, a segment is the list it was
    /// built from; and a restore of what the wire delivers is the restore
    /// of what was captured.
    #[test]
    fn a_restore_of_the_decoded_capture_equals_a_restore_of_the_capture(list in frame_list()) {
        let mut home = Vm::new();
        home.load_class(&seg_class()).unwrap();
        let built = CapturedState { frames: Frames::from_frames(list.iter().cloned()).unwrap(), statics: vec![] };
        let tid = restore_segment_direct(&mut home, &built).unwrap();
        let (captured, _) =
            capture_segment(&mut home, tid, list.len(), ToolingPath::Jvmti).unwrap();
        prop_assert!(captured.frames.iter().eq(list.iter().map(CapturedFrame::view)));
        prop_assert_eq!(&captured, &built);

        let delivered = decode_state(encode_state(&captured).unwrap()).unwrap();
        let mut direct = Vm::new();
        direct.load_class(&seg_class()).unwrap();
        let mut wired = direct.clone();
        let a = restore_segment_direct(&mut direct, &captured).unwrap();
        let b = restore_segment_direct(&mut wired, &delivered).unwrap();
        prop_assert_eq!(thread_shape(&direct, a), thread_shape(&wired, b));
        prop_assert_eq!(thread_shape(&direct, a), thread_shape(&home, tid));
    }
}

// ---------------------------------------------------------------------------
// The direct object paths against the `WireObject` route
// ---------------------------------------------------------------------------

/// Classes the random heaps instantiate: the first two are loaded into the
/// installing VM, with `LAYOUTS` instance fields, the third is not.
const CLASSES: [&str; 3] = ["A", "Node", "Unloaded"];
const LAYOUTS: [usize; 2] = [1, 2];
const TEMP_BASE: ObjId = 1 << 30;

/// One slot of a random heap object; `Ref` indexes the heap modulo its
/// size, so it always names an object (possibly itself, possibly a later
/// one).
#[derive(Clone, Debug)]
enum SlotSpec {
    Null,
    Int(i64),
    Num(f64),
    Ref(usize),
    Nulled(ObjId),
}

#[derive(Clone, Debug)]
enum KindSpec {
    Obj(usize, Vec<SlotSpec>),
    Arr(Vec<SlotSpec>),
    Str(String),
    Exception(String),
}

#[derive(Clone, Debug)]
struct ObjSpec {
    kind: KindSpec,
    /// `(origin, home id)` of a cached copy; `None` for an object made here.
    home: Option<(u32, ObjId)>,
    dirty: bool,
}

fn slot_spec() -> impl Strategy<Value = SlotSpec> {
    prop_oneof![
        Just(SlotSpec::Null),
        any::<i64>().prop_map(SlotSpec::Int),
        any::<f64>().prop_map(SlotSpec::Num),
        (0usize..64).prop_map(SlotSpec::Ref),
        (0u32..40).prop_map(SlotSpec::Nulled),
    ]
}

fn obj_spec() -> impl Strategy<Value = ObjSpec> {
    let slots = || proptest::collection::vec(slot_spec(), 0..6);
    let kind = prop_oneof![
        (0..CLASSES.len(), slots()).prop_map(|(c, s)| KindSpec::Obj(c, s)),
        (0..CLASSES.len(), slots()).prop_map(|(c, s)| KindSpec::Obj(c, s)),
        slots().prop_map(KindSpec::Arr),
        "[a-z ]{0,12}".prop_map(KindSpec::Str),
        "[a-z ]{0,12}".prop_map(KindSpec::Exception),
    ];
    // Homes are drawn from a small space so copies of one master, and
    // installs that hit an existing copy, actually happen.
    let home = prop_oneof![
        Just(None),
        ((0u32..3), (0u32..12)).prop_map(Some),
        ((0u32..3), (0u32..12)).prop_map(Some),
    ];
    (kind, home, any::<bool>()).prop_map(|(kind, home, dirty)| ObjSpec { kind, home, dirty })
}

fn heap_spec() -> impl Strategy<Value = Vec<ObjSpec>> {
    proptest::collection::vec(obj_spec(), 1..14)
}

fn build_heap(spec: &[ObjSpec]) -> Heap {
    let n = spec.len();
    let slots = |specs: &[SlotSpec]| -> Vec<Value> {
        specs
            .iter()
            .map(|s| match *s {
                SlotSpec::Null => Value::Null,
                SlotSpec::Int(i) => Value::Int(i),
                SlotSpec::Num(x) => Value::Num(x),
                SlotSpec::Ref(k) => Value::Ref((k % n) as ObjId),
                SlotSpec::Nulled(h) => Value::NulledRef(h),
            })
            .collect()
    };
    let mut heap = Heap::new();
    for obj in spec {
        match &obj.kind {
            KindSpec::Obj(c, s) => {
                let class = heap.class_ix(CLASSES[*c]).unwrap();
                heap.alloc_obj(class, slots(s)).unwrap()
            }
            KindSpec::Arr(s) => heap.alloc_arr_from(slots(s)).unwrap(),
            KindSpec::Str(s) => heap.alloc_str(s).unwrap(),
            KindSpec::Exception(m) => heap.alloc_exception(ExKind::NullPointer, m).unwrap(),
        };
    }
    for (id, obj) in spec.iter().enumerate() {
        if let Some((origin, home_id)) = obj.home {
            heap.set_home(id as ObjId, origin, home_id).unwrap();
        }
        if obj.dirty {
            heap.get_mut(id as ObjId).unwrap().dirty = true;
        }
    }
    heap
}

/// Run a `put_*` writer into a fresh buffer.
fn written(
    put: impl FnOnce(&mut bytes::BytesMut) -> Result<(), VmError>,
) -> Result<Vec<u8>, VmError> {
    let mut buf = bytes::BytesMut::new();
    put(&mut buf)?;
    Ok(buf.to_vec())
}

/// Everything observable about a heap: entries, byte and allocation
/// counters, cache index, dirty list.
fn snapshot(heap: &Heap) -> String {
    format!("{heap:?}")
}

/// A VM holding `heap`, with the first two of [`CLASSES`] loaded into it
/// (which interns their names in `heap`).
fn vm_with(heap: Heap) -> Vm {
    let mut vm = Vm::new();
    vm.heap = heap;
    for (name, fields) in CLASSES.iter().zip(LAYOUTS) {
        let class = (0..fields).fold(ClassDef::new(*name), |c, i| {
            c.with_field(FieldDef::instance(format!("f{i}"), TypeOf::Int))
        });
        vm.load_class(&class).unwrap();
    }
    vm
}

/// Both install routes for one frame into copies of one heap. They must
/// agree on the outcome — except that the direct route also refuses an
/// instance of a loaded class without that class's slot count, which the
/// view's route cannot know; on `Ok` the heaps must be equal (index oracles
/// included) and the direct route must have given an instance of a loaded
/// class that class's own index; on `Err` the direct route's heap must be untouched.
fn check_install_routes(base: &Heap, origin: u32, frame: &[u8]) {
    let mut direct = vm_with(base.clone());
    // What both routes start from: `base` as the VM holds it, with the
    // loaded classes' names interned.
    let base = &direct.heap.clone();
    let mut viewed = base.clone();
    let got = direct.install_fetched(origin, frame);
    let decoded = decode_object(bytes::Bytes::from(frame.to_vec()));
    assert_eq!(ObjectFrame::validate(frame), decoded.clone().map(drop));
    // The layout is checked on the frame's header, before its slots.
    let misfit = match ObjectFrame::read(frame) {
        Ok(ObjectFrame {
            body: FrameBody::Obj { class, fields },
            ..
        }) => CLASSES
            .iter()
            .zip(LAYOUTS)
            .any(|(c, n)| *c == class && n != fields.len()),
        _ => false,
    };
    let want = match misfit {
        true => Err(VmError::Decode(
            "instance slot count differs from its class's layout",
        )),
        false => decoded.and_then(|obj| install_object_from(&mut viewed, origin, &obj)),
    };
    assert_eq!(&got, &want);
    let Ok(id) = got else {
        assert_eq!(
            snapshot(&direct.heap),
            snapshot(base),
            "heap touched on Err"
        );
        return;
    };
    assert_eq!(snapshot(&direct.heap), snapshot(&viewed));
    let home_id = ObjectFrame::read(frame).unwrap().home_id;
    for heap in [&direct.heap, &viewed] {
        assert_eq!(heap.find_cached_from(origin, home_id), Some(id));
        assert!(!heap.get(id).unwrap().dirty);
    }
    let dirty = |h: &Heap| h.dirty_objects().map(|(id, _)| id).collect::<Vec<_>>();
    assert_eq!(dirty(&direct.heap), dirty(&viewed));
    if let ObjKind::Obj { class, .. } = direct.heap.get(id).unwrap().kind {
        if let Some(ci) = direct.class_idx(direct.heap.class_name(class)) {
            assert_eq!(class, direct.classes[ci].ix());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A fault reply written from the heap is the frame of the extracted
    /// view, object for object; a `Deep` reply walks the same ids in the
    /// same order as the view's closure; and a batch written into one
    /// buffer has those frames, in that order.
    #[test]
    fn home_objects_are_written_as_their_views_encode(spec in heap_spec()) {
        let heap = build_heap(&spec);
        for id in 0..heap.len() as ObjId {
            let direct = written(|buf| put_home_object(buf, &heap, id));
            let viewed = extract_object(&heap, id).and_then(|o| encode_object(&o));
            prop_assert_eq!(direct, viewed.map(|f| f.to_vec()));
        }
        prop_assert!(written(|buf| put_home_object(buf, &heap, 999)).is_err());

        // (A transfer-nulled slot may name a master this heap lacks: both
        // walks then fail alike.)
        let (ids, views) = match (closure_ids(&heap, 0), extract_closure(&heap, 0)) {
            (Ok(ids), Ok(views)) => (ids, views),
            (ids, views) => {
                prop_assert_eq!(ids.err(), views.err());
                continue;
            }
        };
        prop_assert_eq!(ids.len(), views.len());
        let pool = BufferPool::new();
        let mut reply = BatchWriter::new(&pool);
        for id in &ids {
            reply.frame(|buf| put_home_object(buf, &heap, *id)).unwrap();
        }
        let batch = reply.finish();
        prop_assert_eq!(batch.len(), views.len());
        for (frame, view) in batch.frames().iter().zip(&views) {
            prop_assert_eq!(frame, &encode_object(view).unwrap());
        }
        // One buffer under all of it: only the last frame recycled, the
        // sole handle left, hands it back.
        let reclaimed: Vec<bool> = batch.into_frames().map(|f| pool.recycle(f)).collect();
        let (last, earlier) = reclaimed.split_last().unwrap();
        prop_assert!(*last && earlier.iter().all(|r| !r), "{:?}", reclaimed);
        prop_assert_eq!(pool.idle(), 1);
    }

    /// A write-back written from a worker heap is the frame of the
    /// extracted dirty view — temp ids for worker-created objects and for
    /// references to them included.
    #[test]
    fn dirty_objects_are_written_as_their_views_encode(spec in heap_spec()) {
        let heap = build_heap(&spec);
        for id in 0..heap.len() as ObjId {
            let direct = written(|buf| put_dirty_object(buf, &heap, id, TEMP_BASE));
            let viewed = extract_dirty(&heap, id, TEMP_BASE).and_then(|o| encode_object(&o));
            prop_assert_eq!(&direct, &viewed.map(|f| f.to_vec()));
            // A worker-created object travels under a temp id.
            let frame = direct.unwrap();
            let sent_as = ObjectFrame::read(&frame).unwrap().home_id;
            match heap.get(id).unwrap().home_id() {
                Some(h) => prop_assert_eq!(sent_as, h),
                None => prop_assert_eq!(sent_as, TEMP_BASE + id),
            }
        }
    }

    /// Installing a frame straight into a heap equals installing its
    /// decoded view — into an empty heap, and into one that may already
    /// cache the same master (refresh in place).
    #[test]
    fn frames_install_as_their_views_do(
        home_spec in heap_spec(),
        worker_spec in heap_spec(),
        origin in 0u32..3,
    ) {
        let home = build_heap(&home_spec);
        let worker = build_heap(&worker_spec);
        for id in 0..home.len() as ObjId {
            let frame = written(|buf| put_home_object(buf, &home, id)).unwrap();
            check_install_routes(&Heap::new(), origin, &frame);
            check_install_routes(&worker, origin, &frame);
        }
    }

    /// Every prefix and every single-bit flip of a valid frame: the
    /// validating walk, the decoded view and the direct install agree on
    /// `Ok` or on the exact `Decode` error, and an `Err` leaves the heap
    /// as it was.
    #[test]
    fn damaged_frames_get_one_verdict(
        spec in heap_spec(),
        worker_spec in heap_spec(),
        pick in 0usize..64,
    ) {
        let heap = build_heap(&spec);
        let worker = build_heap(&worker_spec);
        let id = (pick % heap.len()) as ObjId;
        let frame = written(|buf| put_dirty_object(buf, &heap, id, TEMP_BASE)).unwrap();
        for cut in 0..frame.len() {
            check_install_routes(&worker, 1, &frame[..cut]);
        }
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let verdict = ObjectFrame::validate(&flipped);
            prop_assert!(matches!(verdict, Ok(()) | Err(VmError::Decode(_))));
            check_install_routes(&worker, 1, &flipped);
        }
    }
}
