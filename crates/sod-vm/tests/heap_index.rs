//! Property test for the heap's two owned indexes (see `heap.rs`): random
//! interleavings of every operation that touches them — allocation,
//! installs of fetched objects under repeated keys, a late `set_home` on
//! an older object (the flush-ack shape), dirtying through both write
//! paths, per-object un-dirtying (the fault-bind and refresh-in-place
//! shape), partial and full clears — must leave the indexed
//! `find_cached_from` and `dirty_objects` equal to a linear scan of a
//! model kept beside the heap: the lowest local id wins a key, and dirty
//! iteration is in ascending local-id order.

use proptest::prelude::*;
use sod_vm::capture::CapturedValue;
use sod_vm::heap::Heap;
use sod_vm::value::{ObjId, OriginId, Value};
use sod_vm::wire::{install_object_from, WireObjBody, WireObject};

const ORIGINS: OriginId = 3;
const HOME_IDS: ObjId = 10;

#[derive(Clone, Debug)]
enum Op {
    Alloc,
    Install {
        origin: OriginId,
        home: ObjId,
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
    ArrSet {
        pick: usize,
    },
    Undirty {
        pick: usize,
    },
    /// Clear one origin's dirty copies (and homeless objects), or all.
    Clear {
        origin: Option<OriginId>,
    },
}

fn op() -> impl Strategy<Value = Op> {
    let key = || (0..ORIGINS, 0..HOME_IDS);
    prop_oneof![
        Just(Op::Alloc),
        // Twice: installs (and so repeated keys) weigh double.
        key().prop_map(|(origin, home)| Op::Install { origin, home }),
        key().prop_map(|(origin, home)| Op::Install { origin, home }),
        (0usize..64, key()).prop_map(|(pick, (origin, home))| Op::SetHome { pick, origin, home }),
        (0usize..64).prop_map(|pick| Op::MarkDirty { pick }),
        (0usize..64).prop_map(|pick| Op::ArrSet { pick }),
        (0usize..64).prop_map(|pick| Op::Undirty { pick }),
        (0..ORIGINS + 1).prop_map(|o| Op::Clear {
            origin: (o < ORIGINS).then_some(o)
        }),
    ]
}

/// What the heap should hold for one entry, kept by the test.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Model {
    home: Option<(OriginId, ObjId)>,
    dirty: bool,
}

fn scan_cached(model: &[Model], key: (OriginId, ObjId)) -> Option<ObjId> {
    model
        .iter()
        .position(|m| m.home == Some(key))
        .map(|i| i as ObjId)
}

fn apply(heap: &mut Heap, model: &mut Vec<Model>, op: &Op) {
    let pick_of = |pick: usize, len: usize| (len > 0).then(|| pick % len);
    match *op {
        Op::Alloc => {
            heap.alloc_arr(2);
            model.push(Model::default());
        }
        Op::Install { origin, home } => {
            let obj = WireObject {
                home_id: home,
                body: WireObjBody::Arr {
                    elems: vec![CapturedValue::Int(1), CapturedValue::Null],
                },
            };
            let id = install_object_from(heap, origin, &obj).expect("install") as usize;
            match scan_cached(model, (origin, home)) {
                // A repeated key refreshes the lowest copy in place.
                Some(existing) => {
                    assert_eq!(id, existing as usize);
                    model[id].dirty = false;
                }
                None => {
                    assert_eq!(id, model.len());
                    model.push(Model {
                        home: Some((origin, home)),
                        dirty: false,
                    });
                }
            }
        }
        Op::SetHome { pick, origin, home } => {
            if let Some(i) = pick_of(pick, model.len()) {
                heap.set_home(i as ObjId, origin, home).expect("set_home");
                // Write-once: the first home sticks.
                model[i].home.get_or_insert((origin, home));
            }
        }
        Op::MarkDirty { pick } => {
            if let Some(i) = pick_of(pick, model.len()) {
                heap.get_mut(i as ObjId).expect("get_mut").dirty = true;
                model[i].dirty = true;
            }
        }
        Op::ArrSet { pick } => {
            if let Some(i) = pick_of(pick, model.len()) {
                assert!(heap.arr_set(i as ObjId, 0, Value::Int(7)).expect("arr_set"));
                model[i].dirty = true;
            }
        }
        Op::Undirty { pick } => {
            if let Some(i) = pick_of(pick, model.len()) {
                heap.get_mut(i as ObjId).expect("get_mut").dirty = false;
                model[i].dirty = false;
            }
        }
        Op::Clear { origin } => {
            let flushed = |o: Option<OriginId>| origin.is_none() || o.is_none() || o == origin;
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

            // The heap's own entries agree with the model...
            prop_assert_eq!(heap.len(), model.len());
            for (i, m) in model.iter().enumerate() {
                let obj = heap.get(i as ObjId).unwrap();
                prop_assert_eq!(obj.origin().zip(obj.home_id()), m.home);
                prop_assert_eq!(obj.dirty, m.dirty);
            }
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
