//! Helpers shared by `sod-runtime`'s integration tests (each test file is
//! its own crate and pulls this in with `mod common;`): the recursive guest
//! that `reclaim` and `stale_ids` both churn.

use sod_asm::builder::ClassBuilder;
use sod_preprocess::preprocess_sod;
use sod_vm::class::ClassDef;
use sod_vm::instr::Cmp;

/// `down(d, spin)` recurses `d` deep, spins at the bottom, and returns
/// `d + 1` through every frame.
pub fn deep_class() -> ClassDef {
    let class = ClassBuilder::new("Deep")
        .method("down", &["d", "spin"], |m| {
            m.line();
            m.load("d").ifz(Cmp::Le, "bottom");
            m.line();
            m.load("d")
                .pushi(1)
                .sub()
                .load("spin")
                .invoke("Deep", "down", 2)
                .store("r");
            m.line();
            m.load("r").pushi(1).add().retv();
            m.line();
            m.label("bottom");
            m.pushi(0).store("i");
            m.line();
            m.label("spin");
            m.load("i").load("spin").if_cmp(Cmp::Ge, "out");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("spin");
            m.line();
            m.label("out");
            m.pushi(1).retv();
        })
        .build()
        .expect("deep guest verifies");
    preprocess_sod(&class).expect("deep guest preprocesses")
}
