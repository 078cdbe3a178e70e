//! The outside-in per-layer profile.
//!
//! The program has no counters of its own yet, so each layer is priced
//! from outside: *counts* come exact from the `ScenarioReport`, *unit
//! costs* come from replaying the layer's public functions on inputs
//! harvested from the workload's own guest (the state it captures at its
//! migration point, the objects its home heap holds, its preprocessed
//! class), and `*.est_s = count x unit cost`. What is left of `wall_s`
//! after every estimate is the protocol handlers' share, by subtraction.
//!
//! Limits, stated once: a replay runs the layer hot, in a loop, on one
//! input, so it prices the layer's own instructions and misses the cache
//! misses it suffers inside a real run — estimates are floors, and the
//! residual absorbs the difference. The run is single-threaded (except
//! `fleet-parallel`), so nothing overlaps and shares add up to 1.

use std::hint::black_box;
use std::time::Instant;

use sod::net::{Sim, SimCtx, Topology, World};
use sod::preprocess::preprocess_sod;
use sod::runtime::engine::TEMP_ID_BASE;
use sod::runtime::NodeConfig;
use sod::scenario::ScenarioReport;
use sod::vm::capture::{
    begin_handler_restore, capture_segment, restore_segment_direct, CapturedState,
};
use sod::vm::class::{ClassDef, ExKind};
use sod::vm::heap::Heap;
use sod::vm::interp::{RunMode, StepOutcome, Vm};
use sod::vm::tooling::ToolingPath;
use sod::vm::value::ObjId;
use sod::vm::wire::{
    decode_class, decode_object, decode_state, encode_class_pooled, encode_object_pooled,
    encode_state_pooled, extract_dirty, extract_object, install_object, BufferPool, FrameBatch,
    WireObject,
};

use crate::manifest::PER_LAYER;
use crate::stats::{median_u64, Summary};
use crate::trace::Tracer;
use crate::workloads::{Kind, Workload};

/// Replay inputs taken from the workload's own guest.
pub struct Harvest {
    /// A home VM suspended at the workload's migration point.
    home: Vm,
    tid: usize,
    /// Frames one capture takes (1 for a top-frame plan, the whole stack
    /// for a whole-stack plan).
    total_frames: usize,
    /// The capture split into the segments the engine ships, top first.
    segments: Vec<CapturedState>,
    /// Every object on the home heap at the migration point — what the
    /// migrated segment faults in, one reply each.
    objects: Vec<WireObject>,
}

/// Drive a standalone VM to the point where the workload's trigger
/// captures — the same calls `engine::exec::run_slice` makes: the budget
/// is charged before a slice runs, so slice number `budget_slices` is the
/// one that stops at the next migration-safe point.
pub fn harvest(w: &Workload, class: &ClassDef) -> Harvest {
    let mp = w.migration_point();
    let (cls, method, args) = w.entry();
    let mut home = Vm::new();
    home.cost_scale_per_mille = NodeConfig::cluster("home").exec_scale_per_mille;
    home.load_class(class).expect("guest loads");
    let tid = home.spawn(cls, method, &args).expect("guest spawns");
    for _ in 1..mp.budget_slices {
        let (out, _) = home
            .run(tid, mp.slice_ns, RunMode::Normal)
            .expect("guest runs");
        assert_eq!(out, StepOutcome::Continue, "guest ended before its budget");
    }
    let (out, _) = home
        .run(tid, mp.slice_ns, RunMode::StopAtMsp)
        .expect("guest reaches a safe point");
    assert!(matches!(out, StepOutcome::AtMsp { .. }), "no safe point");

    let height = home.thread(tid).expect("thread").frames.len();
    let total_frames = if mp.whole_stack { height } else { 1 };
    let (full, _) = capture_segment(&mut home, tid, total_frames, ToolingPath::Jvmti)
        .expect("capture at the migration point");
    // Split bottom-up frames top-first, as `engine::migrate` does for
    // `Plan::top_to(_, 1)` and `Plan::whole_stack_to(_)`.
    let mut frames = full.frames;
    let mut segments = Vec::new();
    let wanted: &[usize] = if mp.whole_stack {
        &[1, usize::MAX]
    } else {
        &[1]
    };
    for &k in wanted {
        let seg = frames.split_off(frames.len() - k.min(frames.len()));
        if !seg.is_empty() {
            segments.push(CapturedState {
                frames: seg,
                statics: full.statics.clone(),
            });
        }
    }
    let objects = (0..home.heap.len())
        .map(|id| extract_object(&home.heap, id as ObjId).expect("home object"))
        .collect();
    Harvest {
        home,
        tid,
        total_frames,
        segments,
        objects,
    }
}

/// A worker heap caching every one of `objects`, all dirty — the state a
/// program's completion flush finds.
fn dirty_worker_heap(objects: &[WireObject]) -> Heap {
    let mut heap = Heap::new();
    for obj in objects {
        let id = install_object(&mut heap, obj).expect("install");
        heap.get_mut(id).expect("installed").dirty = true;
    }
    heap
}

/// The write-back flush of `heap`'s dirty objects, encoded as the engine's
/// `collect_flush` encodes it.
fn flush(heap: &Heap, pool: &BufferPool) -> FrameBatch {
    let mut batch = FrameBatch::new();
    for (id, _) in heap.dirty_objects() {
        let obj = extract_dirty(heap, id, TEMP_ID_BASE).expect("extract dirty");
        batch.push(encode_object_pooled(pool, &obj).expect("encode dirty"));
    }
    batch
}

impl Harvest {
    /// Object bytes one program moves: a single-object reply per
    /// harvested object, plus one dirty flush of all of them.
    pub fn object_bytes_per_program(&self) -> u64 {
        let pool = BufferPool::new();
        let replies: u64 = self
            .objects
            .iter()
            .map(|o| encode_object_pooled(&pool, o).expect("encode").len() as u64)
            .sum();
        replies + flush(&dirty_worker_heap(&self.objects), &pool).payload_bytes()
    }
}

/// Times replay batches and records one `replay.<layer>` span per batch.
pub struct Replayer<'a> {
    pub tracer: &'a mut Tracer,
    /// Seconds one batch should take (iterations are calibrated to it).
    pub batch_s: f64,
    pub batches: usize,
}

impl Replayer<'_> {
    /// Host ns per call of `f`: the p10 over the batches' means.
    fn unit_ns(&mut self, layer: &str, mut f: impl FnMut()) -> f64 {
        let started = Instant::now();
        f();
        let once = started.elapsed().as_secs_f64().max(1e-9);
        let iters = ((self.batch_s / once) as usize).clamp(1, 10_000_000);
        let name = format!("replay.{layer}");
        let mut samples = Vec::with_capacity(self.batches);
        for _ in 0..self.batches {
            let span = self.tracer.begin(&name);
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            samples.push(started.elapsed().as_nanos() as f64 / iters as f64);
            self.tracer.end(span);
        }
        Summary::of(&samples).p10
    }
}

/// A world that only relays: every delivery forwards its token, two
/// network sends for each local timer (the object-fault round trip's
/// mix). Prices the event queue and link model with no handler work.
struct Relay {
    nodes: usize,
    left: u64,
}

impl World for Relay {
    type Msg = u64;

    fn on_message(&mut self, dst: usize, hops: u64, ctx: &mut SimCtx<'_, u64>) {
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        if hops.is_multiple_of(3) {
            ctx.schedule(5_000, dst, hops + 1);
        } else {
            ctx.send(dst, (dst + 1) % self.nodes, 64, hops + 1);
        }
    }
}

/// Tokens the relay keeps in flight (the queue depth it is priced at).
const RELAY_TOKENS: u64 = 64;

fn relay_ns_per_event(
    r: &mut Replayer<'_>,
    w: &Workload,
    nodes: usize,
    events: u64,
    host_cores: usize,
) -> f64 {
    let events = events.max(RELAY_TOKENS);
    let mut samples = Vec::with_capacity(r.batches);
    for _ in 0..r.batches {
        let span = r.tracer.begin("replay.net.sim");
        let world = Relay {
            nodes,
            left: events - RELAY_TOKENS,
        };
        let mut sim = Sim::with_scheduler(
            world,
            Topology::gigabit_cluster(nodes),
            w.scheduler(host_cores),
        );
        for token in 0..RELAY_TOKENS {
            sim.inject(token, token as usize % nodes, token);
        }
        let started = Instant::now();
        sim.run_to_idle(u64::MAX);
        samples.push(started.elapsed().as_nanos() as f64 / sim.delivered() as f64);
        assert_eq!(sim.delivered(), events, "relay delivered every event");
        r.tracer.end(span);
    }
    Summary::of(&samples).p10
}

/// Unit costs of the worker-heap path, replaying how the workers' heaps
/// grow over a whole run. Every fault leaves two entries behind — the
/// `NullPointerException` the guest's dereference raised, then the cached
/// copy — and costs two cache lookups, both misses and so full scans: one
/// by the faulting interpreter (`find_cached`), one inside
/// `install_object`. The `workers` heaps grow in lockstep, as in the run,
/// so the scans miss the host's caches the way they do there.
fn heap_growth_ns(
    r: &mut Replayer<'_>,
    objects: &[WireObject],
    workers: usize,
    sharers: usize,
) -> (f64, f64) {
    let (mut find, mut install) = (Vec::new(), Vec::new());
    for _ in 0..r.batches {
        let span = r.tracer.begin("replay.vm.heap");
        let mut heaps = vec![Heap::new(); workers];
        let (mut find_ns, mut install_ns) = (0u128, 0u128);
        for sharer in 0..sharers {
            for obj in objects {
                // Each program's objects have their own home ids.
                let mut obj = obj.clone();
                obj.home_id += (sharer * objects.len()) as ObjId;
                for heap in &mut heaps {
                    heap.alloc_exception(ExKind::NullPointer, "null dereference");
                    let started = Instant::now();
                    black_box(heap.find_cached(obj.home_id));
                    find_ns += started.elapsed().as_nanos();
                    let started = Instant::now();
                    black_box(install_object(heap, &obj).expect("install"));
                    install_ns += started.elapsed().as_nanos();
                }
            }
        }
        let n = (workers * sharers * objects.len()) as f64;
        find.push(find_ns as f64 / n);
        install.push(install_ns as f64 / n);
        r.tracer.end(span);
    }
    (Summary::of(&find).p10, Summary::of(&install).p10)
}

/// Exact work counts of one report — with the `sim_*` metrics, what must
/// stay bit-identical across runs of the same code and seed.
pub struct Counts {
    pub instructions: u64,
    pub slices: u64,
    pub events: u64,
    pub migrations: u64,
    pub object_faults: u64,
    pub dropped_msgs: u64,
}

impl Counts {
    pub fn of(report: &ScenarioReport) -> Counts {
        let c = &report.cluster;
        let runs = || report.programs().iter().map(|p| &p.report);
        Counts {
            instructions: c.per_node.iter().map(|n| n.instructions).sum(),
            slices: c.per_node.iter().map(|n| n.slices).sum(),
            events: c.per_node.iter().map(|n| n.events).sum(),
            migrations: runs().map(|p| p.migrations.len() as u64).sum(),
            object_faults: runs().map(|p| p.object_faults).sum(),
            dropped_msgs: c.chaos.dropped_msgs,
        }
    }
}

/// Host ns per object on the object-fault path (all zero for a guest
/// that leaves nothing on the home heap).
#[derive(Default)]
struct ObjectCosts {
    encode_ns: f64,
    decode_ns: f64,
    /// One program's whole write-back flush, both ends.
    batch_ns: f64,
    find_ns: f64,
    install_ns: f64,
    extract_ns: f64,
}

pub struct ProfileInput<'a> {
    pub w: &'a Workload,
    pub class: &'a ClassDef,
    pub report: &'a ScenarioReport,
    pub programs: usize,
    pub seed: u64,
    pub host_cores: usize,
    /// p10 `wall_s` of this process's untraced reps.
    pub wall_s: f64,
    /// p10 `wall_s` of its traced reps.
    pub traced_wall_s: f64,
    /// `fleet-parallel` only: p10 wall under `Parallel{1}` and `Sharded`.
    pub parallel_walls: Option<(f64, f64)>,
}

pub struct Profile {
    /// One value per `PER_LAYER` row, in manifest order.
    pub values: Vec<f64>,
    /// Replay inputs that are not the workload's own: the profile would
    /// price the wrong thing, so the run counts as wrong.
    pub mismatches: Vec<String>,
    /// Timing-derived plausibility findings. They depend on the host, so
    /// they are reported, not enforced.
    pub sanity: Vec<String>,
}

pub fn profile(input: &ProfileInput<'_>, r: &mut Replayer<'_>) -> Profile {
    let ProfileInput {
        w, class, report, ..
    } = *input;
    let c = &report.cluster;
    let runs = || report.programs().iter().map(|p| &p.report);
    let h = harvest(w, class);
    let pool = BufferPool::new();
    let (mut mismatches, mut sanity) = (Vec::new(), Vec::new());

    // Counts, exact from the report.
    let Counts {
        instructions,
        slices,
        events,
        migrations,
        object_faults: faults,
        dropped_msgs,
    } = Counts::of(report);
    let max_node_events = c.per_node.iter().map(|n| n.events).max().unwrap_or(0);
    let state_bytes: u64 = runs()
        .flat_map(|p| &p.migrations)
        .map(|m| m.state_bytes)
        .sum();
    let class_bytes: u64 = runs().map(|p| p.class_bytes).sum();
    let classes_shipped: u64 = runs().map(|p| p.classes_shipped).sum();
    let object_bytes: u64 = runs().map(|p| p.object_bytes).sum();
    let median_of = |f: &dyn Fn(&sod::runtime::MigrationTimings) -> u64| {
        let mut v: Vec<u64> = runs().flat_map(|p| &p.migrations).map(f).collect();
        median_u64(&mut v) as f64 / 1e3
    };

    // vm.interp: the guest, standalone.
    let (cls, method, args) = w.entry();
    let mut guest_instr = 0u64;
    let guest_ns = r.unit_ns("vm.interp", || {
        let mut vm = Vm::new();
        vm.load_class(class).expect("guest loads");
        black_box(
            vm.run_to_completion(cls, method, &args)
                .expect("guest runs"),
        );
        guest_instr = vm.instr_count;
    });
    let ns_per_instr = guest_ns / guest_instr as f64;
    let interp_est_s = instructions as f64 * ns_per_instr / 1e9;

    // Set-up layers.
    let load_ns = r.unit_ns("vm.class", || {
        let mut vm = Vm::new();
        black_box(vm.load_class(class).expect("guest loads"));
    });
    let raw = w.author();
    let preprocess_ns = r.unit_ns("preprocess", || {
        black_box(preprocess_sod(&raw).expect("guest preprocesses"));
    });
    let author_ns = r.unit_ns("asm", || {
        black_box(w.author());
    });
    let (schedule, per_fleet) = w.arrivals(input.programs);
    let arrivals_ns = r.unit_ns("workloads", || {
        black_box(schedule.arrival_times(per_fleet, input.seed));
    });
    let scheduler = w.scheduler(input.host_cores);
    let build_ns = r.unit_ns("scenario", || {
        black_box(w.build(class, input.programs, input.seed, scheduler));
    });

    // vm.capture: one capture per episode, one restore per segment — the
    // top segment through the handler protocol, deeper ones directly, as
    // `engine::restore::begin_restore` chooses.
    let Harvest {
        mut home,
        tid,
        total_frames,
        segments,
        objects,
    } = h;
    let capture_ns = r.unit_ns("vm.capture.capture", || {
        black_box(
            capture_segment(&mut home, tid, total_frames, ToolingPath::Jvmti).expect("capture"),
        );
    });
    let mut worker = Vm::new();
    worker.load_class(class).expect("guest loads");
    let restore_ns = r.unit_ns("vm.capture.restore", || {
        for (i, seg) in segments.iter().enumerate() {
            let restored = if i == 0 {
                begin_handler_restore(&mut worker, seg)
            } else {
                restore_segment_direct(&mut worker, seg)
            };
            black_box(restored.expect("restore"));
        }
        // Restored threads are only ever pushed; drop them so the worker
        // does not grow across iterations.
        worker.threads.clear();
    });
    let episodes = migrations as f64 / segments.len() as f64;
    let capture_est_s = episodes * (capture_ns + restore_ns) / 1e9;

    // vm.wire, state and class frames.
    let state_encode_ns = r.unit_ns("vm.wire.state_encode", || {
        for seg in &segments {
            pool.recycle(encode_state_pooled(&pool, seg).expect("encode state"));
        }
    });
    let state_frames: FrameBatch = segments
        .iter()
        .map(|s| encode_state_pooled(&pool, s).expect("encode state"))
        .collect();
    // The replay inputs must be the workload's own: every harvested
    // segment's size shows up among the run's migrations.
    for bytes in state_frames.frames().iter().map(|f| f.len() as u64) {
        if !runs()
            .flat_map(|p| &p.migrations)
            .any(|m| m.state_bytes == bytes)
        {
            mismatches.push(format!(
                "harvested segment of {bytes} B matches no migration of the run"
            ));
        }
    }
    let state_decode_ns = r.unit_ns("vm.wire.state_decode", || {
        for f in &state_frames {
            black_box(decode_state(f.clone()).expect("decode state"));
        }
    });
    let class_encode_ns = r.unit_ns("vm.wire.class_encode", || {
        pool.recycle(encode_class_pooled(&pool, class).expect("encode class"));
    });
    let class_frame = encode_class_pooled(&pool, class).expect("encode class");
    let class_decode_ns = r.unit_ns("vm.wire.class_decode", || {
        black_box(decode_class(class_frame.clone()).expect("decode class"));
    });
    let class_ships = class_bytes as f64 / class_frame.len() as f64;
    let state_est_s = (episodes * (state_encode_ns + state_decode_ns)
        + class_ships * (class_encode_ns + class_decode_ns))
        / 1e9;

    // vm.wire objects and vm.heap: only guests that leave objects on the
    // home heap fault anything in.
    let mut oc = ObjectCosts::default();
    if !objects.is_empty() {
        let n = objects.len() as f64;
        oc.extract_ns = r.unit_ns("vm.heap.extract", || {
            for id in 0..objects.len() {
                black_box(extract_object(&home.heap, id as ObjId).expect("extract"));
            }
        }) / n;
        oc.encode_ns = r.unit_ns("vm.wire.object_encode", || {
            for obj in &objects {
                pool.recycle(encode_object_pooled(&pool, obj).expect("encode object"));
            }
        }) / n;
        let frames: FrameBatch = objects
            .iter()
            .map(|o| encode_object_pooled(&pool, o).expect("encode object"))
            .collect();
        oc.decode_ns = r.unit_ns("vm.wire.object_decode", || {
            for f in &frames {
                black_box(decode_object(f.clone()).expect("decode object"));
            }
        }) / n;
        // One program's write-back: encode every dirty object on the
        // worker, decode every frame at home.
        let dirty = dirty_worker_heap(&objects);
        oc.batch_ns = r.unit_ns("vm.wire.batch", || {
            let batch = flush(&dirty, &pool);
            for f in &batch {
                black_box(decode_object(f.clone()).expect("decode flushed"));
            }
            for f in batch.into_frames() {
                pool.recycle(f);
            }
        });
        let per_fleet = w.arrivals(input.programs).1;
        (oc.find_ns, oc.install_ns) =
            heap_growth_ns(r, &objects, input.programs / per_fleet, per_fleet);
    }
    let object_est_s =
        (faults as f64 * (oc.encode_ns + oc.decode_ns) + input.programs as f64 * oc.batch_ns) / 1e9;
    let heap_est_s = faults as f64 * (oc.find_ns + oc.install_ns + oc.extract_ns) / 1e9;

    // net.sim: the workload's event count through a relay world.
    let ns_per_event = relay_ns_per_event(r, w, c.per_node.len(), events, input.host_cores);
    let sim_est_s = events as f64 * ns_per_event / 1e9;

    let wall_s = input.wall_s;
    let estimated =
        interp_est_s + capture_est_s + state_est_s + object_est_s + heap_est_s + sim_est_s;
    let residual_s = wall_s - estimated;
    let (excess_s, p1_excess_s) = match input.parallel_walls {
        Some((p1, sharded)) => (wall_s - sharded, p1 - sharded),
        None => (0.0, 0.0),
    };

    let interp_share = interp_est_s / wall_s;
    if w.kind == Kind::FleetCompute && !(0.80..=1.05).contains(&interp_share) {
        sanity.push(format!(
            "vm.interp.share {interp_share:.3} outside 0.80..1.05 on fleet-compute"
        ));
    }
    if residual_s / wall_s < -0.05 {
        sanity.push(format!(
            "engine.residual_share {:.3} below -0.05: estimates exceed wall_s",
            residual_s / wall_s
        ));
    }

    let table: Vec<(&str, f64)> = vec![
        ("vm.interp.instructions", instructions as f64),
        ("vm.interp.slices", slices as f64),
        ("vm.interp.ns_per_instr", ns_per_instr),
        ("vm.interp.est_s", interp_est_s),
        ("vm.interp.share", interp_share),
        ("vm.class.load_ns", load_ns),
        ("preprocess.class_ns", preprocess_ns),
        ("asm.author_ns", author_ns),
        ("workloads.arrivals_ns", arrivals_ns),
        ("scenario.build_ns", build_ns),
        ("vm.capture.capture_ns", capture_ns),
        ("vm.capture.restore_ns", restore_ns),
        ("vm.capture.frames", total_frames as f64),
        ("vm.capture.est_s", capture_est_s),
        ("vm.wire.state_encode_ns", state_encode_ns),
        ("vm.wire.state_decode_ns", state_decode_ns),
        ("vm.wire.state_bytes", state_frames.payload_bytes() as f64),
        ("vm.wire.class_encode_ns", class_encode_ns),
        ("vm.wire.class_decode_ns", class_decode_ns),
        ("vm.wire.state_est_s", state_est_s),
        ("vm.wire.object_encode_ns", oc.encode_ns),
        ("vm.wire.object_decode_ns", oc.decode_ns),
        ("vm.wire.batch_ns", oc.batch_ns),
        ("vm.wire.object_est_s", object_est_s),
        ("vm.heap.find_cached_ns", oc.find_ns),
        ("vm.heap.install_ns", oc.install_ns),
        ("vm.heap.extract_ns", oc.extract_ns),
        ("vm.heap.est_s", heap_est_s),
        ("net.sim.events", events as f64),
        (
            "net.sim.max_node_share",
            max_node_events as f64 / events as f64,
        ),
        ("net.chaos.dropped", dropped_msgs as f64),
        ("net.sim.ns_per_event", ns_per_event),
        ("net.sim.est_s", sim_est_s),
        ("net.parallel.excess_s", excess_s),
        ("net.parallel.p1_excess_s", p1_excess_s),
        ("engine.migrate.count", migrations as f64),
        ("engine.migrate.state_bytes", state_bytes as f64),
        ("engine.migrate.class_bytes", class_bytes as f64),
        ("engine.migrate.classes_shipped", classes_shipped as f64),
        (
            "engine.migrate.capture_virt_us",
            median_of(&|m| m.capture_ns),
        ),
        (
            "engine.migrate.transfer_virt_us",
            median_of(&|m| m.transfer_state_ns + m.transfer_class_ns),
        ),
        (
            "engine.restore.restore_virt_us",
            median_of(&|m| m.restore_ns),
        ),
        ("engine.objects.faults", faults as f64),
        ("engine.objects.bytes", object_bytes as f64),
        ("engine.fault.timeouts", c.chaos.timeouts as f64),
        ("engine.fault.retries", c.chaos.retries as f64),
        ("engine.fault.fallbacks", c.chaos.fallbacks as f64),
        (
            "engine.elastic.spawns",
            c.pools.iter().map(|p| p.spawns).sum::<u64>() as f64,
        ),
        (
            "engine.elastic.drains",
            c.pools.iter().map(|p| p.drains).sum::<u64>() as f64,
        ),
        (
            "engine.elastic.peak",
            c.pools.iter().map(|p| p.peak).max().unwrap_or(0) as f64,
        ),
        ("engine.residual_s", residual_s),
        ("engine.residual_share", residual_s / wall_s),
        (
            "engine.residual_us_per_event",
            residual_s * 1e6 / events as f64,
        ),
        ("trace_overhead_share", input.traced_wall_s / wall_s - 1.0),
    ];
    assert!(
        table
            .iter()
            .map(|(name, _)| *name)
            .eq(PER_LAYER.iter().map(|m| m.name)),
        "per-layer table must follow the manifest"
    );
    let values = table.into_iter().map(|(_, v)| v).collect();
    Profile {
        values,
        mismatches,
        sanity,
    }
}
