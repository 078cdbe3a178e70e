//! Property tests for the wire codec: randomized classes, states, and
//! objects round-trip losslessly (directly and through [`FrameBatch`]
//! delivery frames), the encoded frame length equals the arithmetic
//! `*_wire_bytes()` size model for every sample, and arbitrary byte garbage
//! never panics the decoder.
//!
//! The second half pins the object path's two routes against each other
//! over random heaps: what the runtime does — write a frame from the heap,
//! read a frame into the heap — must equal, byte for byte and heap for
//! heap, the same trip taken through the decoded [`WireObject`] view.

use std::sync::Arc;

use proptest::prelude::*;
use sod_vm::capture::{CapturedFrame, CapturedState, CapturedStatics, CapturedValue};
use sod_vm::class::{ClassDef, ExEntry, ExKind, FieldDef, MethodDef};
use sod_vm::error::VmError;
use sod_vm::heap::{Heap, ObjKind};
use sod_vm::instr::{Cmp, Instr, SwitchTable};
use sod_vm::interp::Vm;
use sod_vm::value::{ObjId, TypeOf, Value};
use sod_vm::wire::{
    class_wire_bytes, closure_ids, decode_class, decode_object, decode_state, encode_class,
    encode_object, encode_state, extract_closure, extract_dirty, extract_object,
    install_object_from, put_dirty_object, put_home_object, BatchWriter, BufferPool, FrameBatch,
    ObjectFrame, WireObjBody, WireObject,
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

// ---------------------------------------------------------------------------
// The direct object paths against the `WireObject` route
// ---------------------------------------------------------------------------

/// Classes the random heaps instantiate: the first two are loaded into the
/// installing VM, the third is not.
const CLASSES: [&str; 3] = ["A", "Node", "Unloaded"];
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
            KindSpec::Obj(c, s) => heap.alloc_obj(CLASSES[*c], slots(s)),
            KindSpec::Arr(s) => heap.alloc_arr_from(slots(s)),
            KindSpec::Str(s) => heap.alloc_str(s.clone()),
            KindSpec::Exception(m) => heap.alloc_exception(ExKind::NullPointer, m.clone()),
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

/// A VM holding `heap`, with the first two of [`CLASSES`] loaded.
fn vm_with(heap: Heap) -> Vm {
    let mut vm = Vm::new();
    for name in &CLASSES[..2] {
        vm.load_class(&ClassDef::new(*name)).unwrap();
    }
    vm.heap = heap;
    vm
}

/// Both install routes for one frame into copies of one heap. They must
/// agree on the outcome; on `Ok` the heaps must be equal (index oracles
/// included) and the direct route must have used the loaded class's own
/// name; on `Err` the direct route's heap must be untouched.
fn check_install_routes(base: &Heap, origin: u32, frame: &[u8]) {
    let mut direct = vm_with(base.clone());
    let mut viewed = base.clone();
    let got = direct.install_fetched(origin, frame);
    let want = decode_object(bytes::Bytes::from(frame.to_vec()))
        .and_then(|obj| install_object_from(&mut viewed, origin, &obj));
    assert_eq!(&got, &want);
    assert_eq!(ObjectFrame::validate(frame), want.clone().map(drop));
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
    if let ObjKind::Obj { class, .. } = &direct.heap.get(id).unwrap().kind {
        if let Some(ci) = direct.class_idx(class) {
            assert!(Arc::ptr_eq(class, direct.classes[ci].name_arc()));
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
