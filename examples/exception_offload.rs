//! Exception-driven offload (paper §II.B): an allocation that overflows a
//! small device's heap migrates to the cloud and retries there. The
//! policy is declarative — `When::OnOom` with the rescue node as the
//! plan's first destination — instead of a scripted migration time.
//!
//! Run with: `cargo run --release --example exception_offload`

use std::error::Error;

use sod::asm::builder::ClassBuilder;
use sod::net::{ns_to_ms_string, LinkSpec};
use sod::preprocess::preprocess_sod;
use sod::runtime::NodeConfig;
use sod::scenario::{Plan, Scenario, When};
use sod::vm::value::Value;

fn main() -> Result<(), Box<dyn Error>> {
    let class = ClassBuilder::new("Big")
        .method("alloc", &["n"], |m| {
            m.line();
            m.load("n").newarr().store("a");
            m.line();
            m.load("a").arrlen().retv();
        })
        .method("main", &["n"], |m| {
            m.line();
            m.load("n").invoke("Big", "alloc", 1).store("r");
            m.line();
            m.load("r").retv();
        })
        .build()?;
    let class = preprocess_sod(&class)?;

    // A 4 MB phone heap cannot hold the 16 MB array; on OutOfMemoryError
    // the whole stack rolls back one statement and retries on the cloud.
    let mut phone = NodeConfig::device("phone");
    phone.mem_limit = Some(4 << 20);
    let report = Scenario::new()
        .node("phone", phone)
        .deploys(&class)
        .node("cloud", NodeConfig::cloud("cloud"))
        .link("phone", "cloud", LinkSpec::wifi_kbps(764))
        .program("Big", "main", vec![Value::Int(2_000_000)])
        .on("phone")
        .migrate(When::OnOom, Plan::whole_stack_to("cloud"))
        .run()?;

    let r = report.first();
    println!("allocated elements : {:?}", r.result);
    println!("migrations         : {}", r.migrations.len());
    println!(
        "rescue latency     : {} ms",
        ns_to_ms_string(r.migrations.first().map(|m| m.latency_ns()).unwrap_or(0))
    );
    Ok(())
}
