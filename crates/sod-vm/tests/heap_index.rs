//! Property test for the heap's two owned indexes and its slot arena (see
//! `heap.rs`): random interleavings of every operation that touches them —
//! instance and array allocation with values, installs of fetched objects
//! under repeated keys (a same-shape refresh in place, a different-shape
//! one refused), a late `set_home` on an older object (the flush-ack
//! shape), `PutField`-shaped writes through `ObjMut::slots_mut`, `arr_set`,
//! dirtying, per-object un-dirtying (the fault-bind and refresh-in-place
//! shape), partial and full clears — must leave the heap equal to a model
//! kept beside it: the indexed `find_cached_from` and `dirty_objects`
//! answer as a linear scan of the model would (the lowest local id wins a
//! key, dirty iteration is in ascending local-id order), and every
//! object's slots read back as the model's.

use proptest::prelude::*;
use sod_vm::capture::CapturedValue;
use sod_vm::error::VmError;
use sod_vm::heap::Heap;
use sod_vm::value::{ObjId, OriginId, Value};
use sod_vm::wire::{install_object_from, WireObjBody, WireObject};

const ORIGINS: OriginId = 3;
const HOME_IDS: ObjId = 10;

/// A slot value: `None` is `null`.
type Slot = Option<i64>;

#[derive(Clone, Debug)]
enum Op {
    Alloc {
        arr: bool,
        slots: Vec<Slot>,
    },
    Install {
        origin: OriginId,
        home: ObjId,
        arr: bool,
        slots: Vec<Slot>,
    },
    /// `pick` selects among the objects allocated so far.
    SetHome {
        pick: usize,
        origin: OriginId,
        home: ObjId,
    },
    MarkDirty {
        pick: usize,
    },
    /// A `PutField`: slot `idx` written through `ObjMut::slots_mut`, the
    /// object dirtied.
    PutField {
        pick: usize,
        idx: usize,
        v: i64,
    },
    ArrSet {
        pick: usize,
        idx: i64,
        v: i64,
    },
    Undirty {
        pick: usize,
    },
    /// Clear one origin's dirty copies (and homeless objects), or all.
    Clear {
        origin: Option<OriginId>,
    },
}

fn slots() -> impl Strategy<Value = Vec<Slot>> {
    let slot = prop_oneof![Just(None), (0i64..100).prop_map(Some)];
    // Few lengths, so a refresh often has the copy's shape, and often not.
    proptest::collection::vec(slot, 0..4)
}

fn op() -> impl Strategy<Value = Op> {
    let key = || (0..ORIGINS, 0..HOME_IDS);
    prop_oneof![
        (any::<bool>(), slots()).prop_map(|(arr, slots)| Op::Alloc { arr, slots }),
        // Twice: installs (and so repeated keys) weigh double.
        (key(), any::<bool>(), slots()).prop_map(|((origin, home), arr, slots)| Op::Install {
            origin,
            home,
            arr,
            slots
        }),
        (key(), any::<bool>(), slots()).prop_map(|((origin, home), arr, slots)| Op::Install {
            origin,
            home,
            arr,
            slots
        }),
        (0usize..64, key()).prop_map(|(pick, (origin, home))| Op::SetHome { pick, origin, home }),
        (0usize..64).prop_map(|pick| Op::MarkDirty { pick }),
        (0usize..64, 0usize..4, 0i64..100).prop_map(|(pick, idx, v)| Op::PutField { pick, idx, v }),
        (0usize..64, -1i64..4, 0i64..100).prop_map(|(pick, idx, v)| Op::ArrSet { pick, idx, v }),
        (0usize..64).prop_map(|pick| Op::Undirty { pick }),
        (0..ORIGINS + 1).prop_map(|o| Op::Clear {
            origin: (o < ORIGINS).then_some(o)
        }),
    ]
}

/// What the heap should hold for one entry, kept by the test.
#[derive(Clone, Debug, PartialEq)]
struct Model {
    home: Option<(OriginId, ObjId)>,
    dirty: bool,
    arr: bool,
    slots: Vec<Value>,
}

fn value(slot: &Slot) -> Value {
    slot.map_or(Value::Null, Value::Int)
}

fn scan_cached(model: &[Model], key: (OriginId, ObjId)) -> Option<ObjId> {
    model
        .iter()
        .position(|m| m.home == Some(key))
        .map(|i| i as ObjId)
}

fn apply(heap: &mut Heap, model: &mut Vec<Model>, op: &Op) {
    let pick_of = |pick: usize, len: usize| (len > 0).then(|| pick % len);
    match op {
        Op::Alloc { arr, slots } => {
            let values = slots.iter().map(value);
            let id = match arr {
                true => heap.alloc_arr_from(values),
                false => {
                    let class = heap.class_ix("C").unwrap();
                    heap.alloc_obj(class, values)
                }
            };
            assert_eq!(id, Ok(model.len() as ObjId));
            model.push(Model {
                home: None,
                dirty: false,
                arr: *arr,
                slots: slots.iter().map(value).collect(),
            });
        }
        Op::Install {
            origin,
            home,
            arr,
            slots,
        } => {
            let sent: Vec<CapturedValue> = slots
                .iter()
                .map(|s| s.map_or(CapturedValue::Null, CapturedValue::Int))
                .collect();
            let body = match arr {
                true => WireObjBody::Arr { elems: sent },
                false => WireObjBody::Obj {
                    class: "C".into(),
                    fields: sent,
                },
            };
            let obj = WireObject {
                home_id: *home,
                body,
            };
            let (before, arena) = (format!("{heap:?}"), heap.arena_len());
            let got = install_object_from(heap, *origin, &obj);
            let fresh = Model {
                home: Some((*origin, *home)),
                dirty: false,
                arr: *arr,
                slots: slots.iter().map(value).collect(),
            };
            match scan_cached(model, (*origin, *home)) {
                // A repeated key of the same shape refreshes the lowest
                // copy in place, in its own slots.
                Some(existing)
                    if model[existing as usize].arr == *arr
                        && model[existing as usize].slots.len() == slots.len() =>
                {
                    assert_eq!(got, Ok(existing));
                    assert_eq!(heap.arena_len(), arena, "a refresh grew the arena");
                    let m = &mut model[existing as usize];
                    m.dirty = false;
                    m.slots = fresh.slots;
                }
                // Of another shape: refused, the heap untouched.
                Some(_) => {
                    assert!(matches!(got, Err(VmError::Decode(_))), "{got:?}");
                    assert_eq!(format!("{heap:?}"), before, "a refused refresh wrote");
                }
                None => {
                    assert_eq!(got, Ok(model.len() as ObjId));
                    model.push(fresh);
                }
            }
        }
        Op::SetHome { pick, origin, home } => {
            if let Some(i) = pick_of(*pick, model.len()) {
                heap.set_home(i as ObjId, *origin, *home).expect("set_home");
                // Write-once: the first home sticks.
                model[i].home.get_or_insert((*origin, *home));
            }
        }
        Op::MarkDirty { pick } => {
            if let Some(i) = pick_of(*pick, model.len()) {
                heap.get_mut(i as ObjId).expect("get_mut").dirty = true;
                model[i].dirty = true;
            }
        }
        Op::PutField { pick, idx, v } => {
            if let Some(i) = pick_of(*pick, model.len()) {
                let mut obj = heap.get_mut(i as ObjId).expect("get_mut");
                if let Some(slot) = obj.slots_mut().get_mut(*idx) {
                    *slot = Value::Int(*v);
                    obj.dirty = true;
                    model[i].slots[*idx] = Value::Int(*v);
                    model[i].dirty = true;
                }
            }
        }
        Op::ArrSet { pick, idx, v } => {
            if let Some(i) = pick_of(*pick, model.len()) {
                let got = heap.arr_set(i as ObjId, *idx, Value::Int(*v));
                let m = &mut model[i];
                let in_bounds = usize::try_from(*idx).is_ok_and(|x| x < m.slots.len());
                match (m.arr, in_bounds) {
                    (false, _) => assert!(matches!(got, Err(VmError::TypeMismatch { .. }))),
                    (true, false) => assert_eq!(got, Ok(false)),
                    (true, true) => {
                        assert_eq!(got, Ok(true));
                        m.slots[*idx as usize] = Value::Int(*v);
                        m.dirty = true;
                    }
                }
            }
        }
        Op::Undirty { pick } => {
            if let Some(i) = pick_of(*pick, model.len()) {
                heap.get_mut(i as ObjId).expect("get_mut").dirty = false;
                model[i].dirty = false;
            }
        }
        Op::Clear { origin } => {
            let flushed = |o: Option<OriginId>| origin.is_none() || o.is_none() || o == *origin;
            heap.clear_dirty_where(|obj| flushed(obj.origin()));
            for m in model.iter_mut() {
                if flushed(m.home.map(|(o, _)| o)) {
                    m.dirty = false;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexes_equal_linear_scans(ops in proptest::collection::vec(op(), 1..120)) {
        let mut heap = Heap::new();
        let mut model: Vec<Model> = Vec::new();
        for op in &ops {
            apply(&mut heap, &mut model, op);

            // The heap's own entries agree with the model, slots
            // included...
            prop_assert_eq!(heap.len(), model.len());
            for (i, m) in model.iter().enumerate() {
                let (obj, slots) = heap.view(i as ObjId).unwrap();
                prop_assert_eq!(obj.origin().zip(obj.home_id()), m.home);
                prop_assert_eq!(obj.dirty, m.dirty);
                prop_assert_eq!(heap.type_name(i as ObjId).unwrap() == "[array]", m.arr);
                prop_assert_eq!(slots, &m.slots[..], "slots of {} after {:?}", i, op);
            }
            // ...the arena holds exactly the live slots (a refresh reuses
            // its copy's, and nothing else frees any)...
            let live: usize = model.iter().map(|m| m.slots.len()).sum();
            prop_assert_eq!(heap.arena_len(), live);
            // ...the cache index answers every key as a scan would
            // (lowest local id wins)...
            for origin in 0..ORIGINS {
                for home in 0..HOME_IDS {
                    prop_assert_eq!(
                        heap.find_cached_from(origin, home),
                        scan_cached(&model, (origin, home)),
                        "key ({}, {}) after {:?}", origin, home, op
                    );
                }
            }
            // ...and the dirty list iterates exactly the dirty entries,
            // ascending.
            let listed: Vec<ObjId> = heap.dirty_objects().map(|(id, _)| id).collect();
            let scanned: Vec<ObjId> = (0..model.len() as ObjId)
                .filter(|&i| model[i as usize].dirty)
                .collect();
            prop_assert_eq!(listed, scanned, "dirty set after {:?}", op);
        }
    }
}
