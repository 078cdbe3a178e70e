//! Cross-crate property test: migrating a real workload at random points
//! never changes its result.

use proptest::prelude::*;
use sod::net::US;
use sod::preprocess::preprocess_sod;
use sod::runtime::NodeConfig;
use sod::scenario::{Plan, Scenario, When};
use sod::vm::value::Value;
use sod::workloads::programs::fib_class;

fn run_fib(n: i64, migrate_us: Option<u64>, nframes: usize) -> Option<i64> {
    let class = preprocess_sod(&fib_class()).unwrap();
    let mut scenario = Scenario::new()
        .node("home", NodeConfig::cluster("home"))
        .deploys(&class)
        .node("worker", NodeConfig::cluster("worker"))
        .program("Fib", "main", vec![Value::Int(n)])
        .on("home");
    if let Some(at) = migrate_us {
        scenario = scenario.migrate(When::At(at * US), Plan::top_to("worker", nframes));
    }
    scenario.run().expect("scenario completes").first().result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fib_result_invariant_under_migration(
        n in 16i64..22,
        at_us in 1u64..4_000,
        nframes in 1usize..6,
    ) {
        let expected = run_fib(n, None, 0);
        let migrated = run_fib(n, Some(at_us), nframes);
        prop_assert_eq!(expected, migrated);
    }
}
