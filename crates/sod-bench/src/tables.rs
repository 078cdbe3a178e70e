//! Table/figure generators for the paper's evaluation (§IV).

use std::fmt::Write as _;

use sod::scenario::{Plan, Preset, Scenario, When};
use sod_asm::builder::ClassBuilder;
use sod_baselines::{measure_workload, process_mig, thread_mig, vm_live, System};
use sod_net::{ns_to_ms_string, ns_to_s_string, LinkSpec, MS};
use sod_preprocess::{preprocess, preprocess_sod, Options};
use sod_runtime::node::NodeConfig;
use sod_runtime::MigrationTimings;
use sod_vm::class::ClassDef;
use sod_vm::instr::Cmp;
use sod_vm::interp::Vm;
use sod_vm::value::{TypeOf, Value};
use sod_workloads::apps::search_class;
use sod_workloads::{characterize_on, Characteristics, WORKLOADS};

/// Table I's rows — program characteristics (n, h, F), in [`WORKLOADS`]
/// order — measured by running each workload on a VM fresh from `vm`.
pub fn table1_rows(vm: fn() -> Vm) -> Vec<Characteristics> {
    let run = |w| characterize_on(vm(), w);
    WORKLOADS.iter().map(run).collect()
}

/// Table I, formatted.
pub fn table1() -> String {
    let mut out = String::from(
        "TABLE I. PROGRAM CHARACTERISTICS (scaled sizes; paper sizes in [])\n\
         App   n         h     F(bytes)      instructions\n",
    );
    for (w, c) in WORKLOADS.iter().zip(table1_rows(Vm::new)) {
        let _ = writeln!(
            out,
            "{:<5} {:<4}[{:<3}] {:<5} {:<13} {}",
            c.name, c.n, w.paper_n, c.h, c.f_bytes, c.instructions
        );
    }
    out
}

/// Run one workload under SODEE in the simulator, with or without one
/// mid-run migration of the top frame. Returns (finish_ns, timings).
pub fn run_sodee(w: &sod_workloads::Workload, migrate: bool) -> (u64, Vec<MigrationTimings>) {
    let plain = (w.build)();
    let class = preprocess_sod(&plain).expect("preprocess");
    // Trigger the migration a third of the way into the run.
    let exec_ns = {
        let mut vm = Vm::new();
        vm.load_class(&plain).unwrap();
        vm.run_to_completion(w.class, w.method, &w.args()).unwrap();
        vm.meter_ns
    };
    let mut scenario = Scenario::new()
        .node("home", NodeConfig::cluster("home"))
        .deploys(&class)
        .node("worker", NodeConfig::cluster("worker"))
        .program(w.class, w.method, w.args())
        .on("home");
    if migrate {
        scenario = scenario.migrate(When::At((exec_ns / 3).max(MS)), Plan::top_to("worker", 1));
    }
    let report = scenario.run().unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let r = report.first();
    (r.finished_at_ns, r.migrations.clone())
}

/// Tables II + III: execution times with/without migration per system, and
/// the derived migration overheads.
pub fn table2_and_3() -> String {
    let mut t2 = String::from(
        "TABLE II. EXECUTION TIME (virtual seconds)\n\
         App   JDK     SODEE(no mig) SODEE(mig) G-JMPI(no) G-JMPI(mig) JES2(no) JES2(mig) Xen(no) Xen(mig)\n",
    );
    let mut t3 = String::from(
        "TABLE III. MIGRATION OVERHEAD (ms, % of no-mig execution)\n\
         App   SODEE           G-JavaMPI       JESSICA2        Xen\n",
    );
    for w in &WORKLOADS {
        let class = (w.build)();
        let m = measure_workload(&class, w.class, w.n);
        let jdk = m.exec_ns;

        let (sodee_no, _) = run_sodee(w, false);
        let (sodee_mig, _) = run_sodee(w, true);

        let scale = |sys: System| jdk * sys.exec_scale_per_mille() / 1000;
        let gj_no = scale(System::GJavaMpi);
        let gj = gj_no + process_mig::breakdown(&m).total_ns();
        let je_no = scale(System::Jessica2);
        let je = je_no + thread_mig::breakdown(&m).total_ns();
        let xen_no = scale(System::Xen);
        let xen_mig_cost =
            vm_live::simulate(&vm_live::PrecopyConfig::paper_testbed(400, 8)).total_ns;
        let xen = xen_no + xen_mig_cost;

        let _ = writeln!(
            t2,
            "{:<5} {:<7} {:<13} {:<10} {:<10} {:<11} {:<8} {:<9} {:<7} {}",
            w.name,
            ns_to_s_string(jdk),
            ns_to_s_string(sodee_no),
            ns_to_s_string(sodee_mig),
            ns_to_s_string(gj_no),
            ns_to_s_string(gj),
            ns_to_s_string(je_no),
            ns_to_s_string(je),
            ns_to_s_string(xen_no),
            ns_to_s_string(xen)
        );
        let pct = |mig: u64, no: u64| -> String {
            let over = mig.saturating_sub(no);
            format!(
                "{} ({:.2}%)",
                ns_to_ms_string(over),
                over as f64 * 100.0 / no.max(1) as f64
            )
        };
        let _ = writeln!(
            t3,
            "{:<5} {:<15} {:<15} {:<15} {}",
            w.name,
            pct(sodee_mig, sodee_no),
            pct(gj, gj_no),
            pct(je, je_no),
            pct(xen, xen_no)
        );
    }
    t2.push('\n');
    t2.push_str(&t3);
    t2
}

/// Table IV: migration latency breakdown per system.
pub fn table4() -> String {
    let rows: Vec<(&str, [u64; 9])> = WORKLOADS
        .iter()
        .map(|w| {
            let class = (w.build)();
            let m = measure_workload(&class, w.class, w.n);
            let (_, migs) = run_sodee(w, true);
            let sod = migs.first().copied().unwrap_or_default();
            let gj = process_mig::breakdown(&m);
            let je = thread_mig::breakdown(&m);
            let ns = [
                sod.capture_ns,
                sod.transfer_state_ns + sod.transfer_class_ns,
                sod.restore_ns,
                gj.capture_ns,
                gj.transfer_ns,
                gj.restore_ns,
                je.capture_ns,
                je.transfer_ns,
                je.restore_ns,
            ];
            (w.name, ns)
        })
        .collect();
    let mut out = String::from(
        "TABLE IV. MIGRATION LATENCY (ms): capture / transfer / restore\n\
         App   SODEE                G-JavaMPI             JESSICA2\n",
    );
    for (name, ns) in &rows {
        let ms = ns.map(ns_to_ms_string);
        let _ = writeln!(
            out,
            "{:<5} {:>5}/{:>7}/{:>6} {:>6}/{:>8}/{:>7} {:>5}/{:>5}/{:>6}",
            name, ms[0], ms[1], ms[2], ms[3], ms[4], ms[5], ms[6], ms[7], ms[8],
        );
    }
    // The same figures exact, so a cost that moves one by a nanosecond
    // moves the committed table.
    out.push_str("Exact (ns): SODEE  G-JavaMPI  JESSICA2\n");
    for (name, ns) in &rows {
        let ns = ns.map(|v| v.to_string());
        let _ = writeln!(
            out,
            "{:<5} {}  {}  {}",
            name,
            ns[..3].join("/"),
            ns[3..6].join("/"),
            ns[6..].join("/")
        );
    }
    out
}

/// The micro class of Fig. 5 / Table V: tight loops of field and static
/// accesses, built in three instrumentation variants.
fn access_micro_class() -> ClassDef {
    ClassBuilder::new("Micro")
        .field("f", TypeOf::Int)
        .static_field("s", TypeOf::Int)
        .method("main", &["iters"], |m| {
            m.line();
            m.new_obj("Micro").store("o");
            m.line();
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("iters").if_cmp(Cmp::Ge, "done");
            m.line();
            m.load("o").load("i").putfield("f"); // field write
            m.line();
            m.load("o").getfield("f").store("t"); // field read
            m.line();
            m.load("t").putstatic("Micro", "s"); // static write
            m.line();
            m.getstatic("Micro", "s").store("t2"); // static read
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("t2").retv();
        })
        .build()
        .unwrap()
}

/// Table V + Fig. 5: per-access cost of object faulting vs status checking,
/// and the class-file size growth of each instrumentation.
pub fn table5() -> String {
    let plain = access_micro_class();
    // All three variants share rearrangement (as in the paper, where both
    // instrumentations run on preprocessed bytecode); the comparison then
    // isolates the per-access detection cost.
    let (rearranged, _) = preprocess(&plain, &Options::rearrange_only()).unwrap();
    let (faulting, fstats) = preprocess(&plain, &Options::sod()).unwrap();
    let (checking, cstats) = preprocess(&plain, &Options::status_checks()).unwrap();
    let plain = rearranged;
    let iters = 100_000i64;
    let cost = |class: &ClassDef| -> u64 {
        let mut vm = Vm::new();
        vm.load_class(class).unwrap();
        vm.run_to_completion("Micro", "main", &[Value::Int(iters)])
            .unwrap();
        vm.meter_ns
    };
    let base = cost(&plain);
    let fal = cost(&faulting);
    let chk = cost(&checking);
    let slow = |x: u64| format!("{:.2}%", (x as f64 - base as f64) * 100.0 / base as f64);
    let mut out = String::from("TABLE V. REMOTE-ACCESS DETECTION OVERHEAD (whole micro-loop)\n");
    let _ = writeln!(
        out,
        "original: {} ns   object faulting: {} ns ({})   status checking: {} ns ({})",
        base,
        fal,
        slow(fal),
        chk,
        slow(chk)
    );
    let _ = writeln!(
        out,
        "FIG 5 SIZES. original: {} B   faulting: {} B   checking: {} B",
        fstats.original_bytes, fstats.processed_bytes, cstats.processed_bytes
    );
    out
}

/// Table VI: document-search performance gain from migration, per system.
/// Files are served over NFS; migrating to the server localises the reads.
pub fn table6() -> String {
    let file_mb: u64 = 32; // paper: 3 × 600 MB, scaled
    let run = |io_factor: u64, exec_scale: u64, migrate: bool| -> u64 {
        let class = preprocess_sod(&search_class()).unwrap();
        let mut cfg = NodeConfig::cluster("client");
        cfg.io_scan_ns_per_byte_x100 = 50 * io_factor;
        cfg.exec_scale_per_mille = (1000 * exec_scale) as u32;
        let server_cfg = NodeConfig {
            name: "server".into(),
            ..cfg.clone()
        };
        // Serving node for all three paths is node 1 (the NFS server).
        let mut scenario = Scenario::new()
            .node("client", cfg)
            .deploys(&class)
            .mounts("/srv/", "server")
            .node("server", server_cfg);
        for i in 0..3 {
            scenario = scenario.file(format!("/srv/{i}/doc.txt"), file_mb << 20, Some(7));
        }
        let report = scenario
            .program(
                "Search",
                "main",
                vec![
                    Value::Int(3),
                    // < 0: migrate once to the NFS server and stay.
                    Value::Int(if migrate { -1 } else { 0 }),
                    Value::Int(1),
                ],
            )
            .on("client")
            .run()
            .expect("table6 scenario completes");
        report.first().finished_at_ns
    };
    // Roam target is `first_server + i`; with one server node we pass 1 and
    // clamp inside the engine (sod_move to an equal node is a no-op), so
    // emulate the three-file single-server layout by roaming to node 1
    // every time: adjust via first_server = 1 and i folded into the path.
    let mut out = String::from(
        "TABLE VI. DOCUMENT SEARCH: EXECUTION TIME AND GAIN FROM MIGRATION\n\
         System     no-mig(s)  with-mig(s)  gain\n",
    );
    // (io scan factor, exec factor, extra migration cost beyond SOD's)
    let xen_precopy = vm_live::simulate(&vm_live::PrecopyConfig::paper_testbed(400, 8)).total_ns;
    for (name, io, exec, mig_extra) in [
        ("JESSICA2", 120u64, 4u64, 0u64),
        ("Xen", 3, 2, xen_precopy),
        ("SODEE", 1, 1, 0),
    ] {
        let no = run(io, exec, false);
        let with = run(io, exec, true) + mig_extra;
        let gain = (no as f64 - with as f64) * 100.0 / no as f64;
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:<12} {:.2}%",
            name,
            ns_to_s_string(no),
            ns_to_s_string(with),
            gain
        );
    }
    out
}

/// Table VII: migration latency to a JVMTI-less device vs Wi-Fi bandwidth.
pub fn table7() -> String {
    let w = &WORKLOADS[0]; // Fib: small state
    let class = preprocess_sod(&(w.build)()).unwrap();
    let mut out = String::from(
        "TABLE VII. MIGRATION LATENCY vs BANDWIDTH (to iPhone profile)\n\
         kbps  capture(ms)  transfer-state  transfer-class  restore  latency(ms)\n",
    );
    for kbps in [50u64, 128, 384, 764] {
        let report = Scenario::new()
            .node("server", NodeConfig::cluster("server"))
            .deploys(&class)
            .node("phone", NodeConfig::device("phone"))
            .link("server", "phone", LinkSpec::wifi_kbps(kbps))
            .program(w.class, w.method, vec![Value::Int(22)])
            .on("server")
            .migrate(When::At(MS), Plan::top_to("phone", 2))
            .run()
            .expect("table7 scenario completes");
        let m = report.first().migrations[0];
        let _ = writeln!(
            out,
            "{:<5} {:<12} {:<15} {:<15} {:<8} {}",
            kbps,
            ns_to_ms_string(m.capture_ns),
            ns_to_ms_string(m.transfer_state_ns),
            ns_to_ms_string(m.transfer_class_ns),
            ns_to_ms_string(m.restore_ns),
            ns_to_ms_string(m.latency_ns()),
        );
    }
    out
}

/// Fig. 1: the three execution paths, demonstrated on the same program.
pub fn fig1() -> String {
    let w = &WORKLOADS[1]; // NQ: a real recursion
    let scenarios: [(&str, Plan); 3] = [
        (
            "(a) top frame out, control returns home",
            Plan::top_to("n1", 1),
        ),
        (
            "(b) total migration: all frames to node 1",
            Plan::chain(&[("n1", 1), ("n1", 64)]),
        ),
        (
            "(c) workflow: top to node 1, residual to node 2",
            Plan::chain(&[("n1", 1), ("n2", 64)]),
        ),
    ];
    let mut out = String::from("FIG 1. ELASTIC EXECUTION PATHS (NQueens)\n");
    let exec_ns = {
        let mut vm = Vm::new();
        vm.load_class(&(w.build)()).unwrap();
        vm.run_to_completion(w.class, w.method, &w.args()).unwrap();
        vm.meter_ns
    };
    for (label, plan) in scenarios {
        let class = preprocess_sod(&(w.build)()).unwrap();
        let report = Scenario::new()
            .node("home", NodeConfig::cluster("home"))
            .deploys(&class)
            .node("n1", NodeConfig::cluster("n1"))
            .node("n2", NodeConfig::cluster("n2"))
            .program(w.class, w.method, w.args())
            .on("home")
            .migrate(When::At((exec_ns / 3).max(MS)), plan)
            .run()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let r = report.first();
        let _ = writeln!(
            out,
            "{label}: result={:?} finish={} s, segments={}, faults={}",
            r.result,
            ns_to_s_string(r.finished_at_ns),
            r.migrations.len(),
            r.object_faults
        );
    }
    out
}

/// §IV.C roaming: ten NFS servers, ten hops; speedup vs no migration.
pub fn roaming() -> String {
    let nfiles = 10usize;
    let file_mb: u64 = 4; // paper: 300 MB each, scaled
    let run = |roam: bool| -> (u64, usize) {
        let class = preprocess_sod(&search_class()).unwrap();
        let mut scenario = Scenario::new()
            .topology(Preset::WanGrid)
            .node("client", NodeConfig::cluster("client"))
            .deploys(&class);
        for i in 0..nfiles {
            scenario = scenario
                .node(format!("srv{i}"), NodeConfig::cluster(format!("srv{i}")))
                .file(format!("/srv/{i}/doc.txt"), file_mb << 20, Some(9));
        }
        // Every node mounts every server's export so a roamed task can
        // still resolve the next path. (A node never mounts itself: its
        // own files resolve locally.)
        for i in 0..nfiles {
            let prefix = format!("/srv/{i}/");
            let server = format!("srv{i}");
            scenario = scenario.mount_on("client", &prefix, &server);
            for j in 0..nfiles {
                if j != i {
                    scenario = scenario.mount_on(format!("srv{j}"), &prefix, &server);
                }
            }
        }
        let report = scenario
            .program(
                "Search",
                "main",
                vec![
                    Value::Int(nfiles as i64),
                    Value::Int(roam as i64),
                    Value::Int(1),
                ],
            )
            .on("client")
            .run()
            .expect("roaming scenario completes");
        let r = report.first();
        (r.finished_at_ns, r.migrations.len())
    };
    let (no_mig, _) = run(false);
    let (roamed, hops) = run(true);
    format!(
        "ROAMING (10 WAN file servers): no-mig {} s, roaming {} s over {} hops — speedup {:.2}x\n",
        ns_to_s_string(no_mig),
        ns_to_s_string(roamed),
        hops,
        no_mig as f64 / roamed as f64
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_are_pinned() {
        // (name, h, F bytes, instructions): what the interpreter maintains
        // — the height inside its run loop, the peak state bytes on a stack
        // it grows in place — must not drift, and must not depend on
        // whether call sites ever warm up.
        let pinned = [
            ("Fib", 28, 1_032, 6_991_830),
            ("NQ", 11, 1_120, 1_806_016),
            ("FFT", 2, 32_833_912, 1_485_194),
            ("TSP", 11, 1_672, 709_290),
        ];
        for vm in [Vm::new, Vm::reference] {
            let rows = table1_rows(vm);
            let got: Vec<_> = rows
                .iter()
                .map(|c| (c.name, c.h, c.f_bytes, c.instructions))
                .collect();
            assert_eq!(got, pinned);
        }
    }

    #[test]
    fn table5_shapes() {
        let t = table5();
        // Checking must be slower than faulting; faulting ≈ original.
        let grab = |tag: &str| -> f64 {
            let i = t.find(tag).unwrap() + tag.len();
            t[i..]
                .split_whitespace()
                .next()
                .unwrap()
                .parse::<f64>()
                .unwrap()
        };
        let base = grab("original:");
        let fal = grab("object faulting:");
        let chk = grab("status checking:");
        assert!(chk > fal, "checking {chk} must exceed faulting {fal}");
        assert!(fal <= base * 1.01, "faulting is free on the fast path");
        assert!(chk > base * 1.05, "checking taxes every access");
    }

    #[test]
    fn roaming_wins() {
        let r = roaming();
        let speedup: f64 = r
            .rsplit("speedup ")
            .next()
            .unwrap()
            .trim_end_matches("x\n")
            .parse()
            .unwrap();
        assert!(speedup > 1.5, "roaming speedup {speedup} too small: {r}");
    }
}
