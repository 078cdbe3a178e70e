//! The scenario of corpus rows `objects_shallow`, `objects_deep` and
//! `objects_lossy`, in a file of its own: the allocation budget rows
//! (`tests/allocs/`) run the very row the corpus pins.

use sod::asm::builder::ClassBuilder;
use sod::net::MS;
use sod::preprocess::preprocess_sod;
use sod::runtime::{FetchPolicy, NodeConfig};
use sod::scenario::{Fleet, Plan, Scenario, When};
use sod::vm::instr::Cmp;
use sod::vm::value::{TypeOf, Value};
use sod::ArrivalSchedule;

/// Twelve programs that write and read an object field 2 000 times, each
/// offloaded after two 2 µs slices: object faults and dirty flushes.
pub fn objects(seed: u64, policy: FetchPolicy) -> Scenario {
    let class = ClassBuilder::new("Micro").field("f", TypeOf::Int);
    let class = class.method("main", &["iters"], |m| {
        m.line().new_obj("Micro").store("o");
        m.line().pushi(0).store("i");
        m.line().label("loop");
        m.load("i").load("iters").if_cmp(Cmp::Ge, "done");
        m.line().load("o").load("i").putfield("f");
        m.line().load("o").getfield("f").store("t");
        m.line().load("i").pushi(1).add().store("i").goto("loop");
        m.line().label("done").load("t").retv();
    });
    let arrivals = ArrivalSchedule::uniform(2 * MS).with_jitter(MS);
    let fleet = Fleet::new("Micro", "main", vec![Value::Int(2_000)]).programs(12);
    let fleet = fleet.across(&["edge0"]).fetch_policy(policy);
    let fleet = fleet.arrivals(arrivals, seed);
    Scenario::new()
        .slice_ns(2_000)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&preprocess_sod(&class.build().expect("valid class")).expect("preprocess"))
        .node("cloud", NodeConfig::cloud("cloud"))
        .fleet(fleet.migrate(When::OnCpuSliceBudget(2), Plan::top_to("cloud", 1)))
}
