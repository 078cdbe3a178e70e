//! The execution protocol: the slice loop that drives guest threads, host
//! intrinsics (clock, sockets, simulated NFS), policy-trigger evaluation,
//! and program completion/failure accounting.

use sod_net::SimCtx;
use sod_vm::class::ExKind;
use sod_vm::costs;
use sod_vm::error::{VmError, VmResult};
use sod_vm::interp::{ExceptionInfo, ParkReason, RunMode, StepOutcome, ThreadState};
use sod_vm::value::Value;

use crate::msg::{FsOp, HostReply, MigrationPlan, Msg, ProgramId};
use crate::trigger::When;

use super::protocol::{self, HomeEffect, HomeInput, PlanSource, WorkerEffect, WorkerInput};
use super::session::Owner;
use super::Cluster;

impl Cluster {
    // ------------------------------------------------------------------
    // Execution slices
    // ------------------------------------------------------------------

    pub(super) fn run_slice(&mut self, node: usize, tid: usize, ctx: &mut SimCtx<'_, Msg>) {
        let runnable = self.nodes[node]
            .vm
            .thread(tid)
            .map(|t| t.is_runnable())
            .unwrap_or(false);
        if !runnable {
            return; // stale slice: thread parked, mid-protocol, or released
        }
        let (owner_program, stop_at_msp) = match self.nodes[node].thread_owner.get(&tid) {
            Some(Owner::Root(p)) => {
                let program = *p;
                let HomeEffect::Run { stop_at_msp } = self.home_step(program, HomeInput::Slice)
                else {
                    return; // frozen while the segment executes remotely
                };
                // Policy-driven migration: charge this slice against the
                // program's CPU budget and evaluate armed policies. A
                // policy that fires installs a pending plan, so this very
                // slice already runs in stop-at-MSP mode.
                self.programs[program as usize].slices_run += 1;
                let fired = self.check_policy_triggers(program);
                (program, stop_at_msp || fired)
            }
            Some(&Owner::Worker(s)) => match self.nodes[node].sessions.get_mut(&s) {
                Some(w) => match protocol::worker(&mut w.phase, WorkerInput::Slice) {
                    WorkerEffect::Run { stop_at_msp } => (w.program, stop_at_msp),
                    _ => return,
                },
                None => return,
            },
            // Only a tool's own spawn has no owner; it is not ours to run.
            None => return,
        };
        let mode = if stop_at_msp {
            RunMode::StopAtMsp
        } else {
            RunMode::Normal
        };
        let slice = self.slice_ns;
        let vm = &mut self.nodes[node].vm;
        let (instr_before, meter_before) = (vm.instr_count, vm.meter_ns);
        let (out, spent) = match vm.run(tid, slice, mode) {
            Ok((out, spent)) => (Ok(out), spent),
            Err(e) => (Err(e), vm.meter_ns - meter_before),
        };
        let elapsed = self.nodes[node].cfg.scale(spent).max(1);
        // Attribute the slice to the program that owns the thread (root or
        // worker session) and to the node that ran it: with many programs
        // interleaving on shared nodes, a global instruction counter would
        // charge every program for everyone's work.
        let retired = self.nodes[node].vm.instr_count - instr_before;
        self.programs[owner_program as usize].report.instructions += retired;
        self.nodes[node].slices += 1;
        self.nodes[node].busy_ns += elapsed;
        // CPU contention (elastic ablations): the *scheduling delay* until
        // this thread runs again stretches with the number of threads
        // competing for this node's CPU, while `busy_ns` above keeps
        // charging uncontended CPU seconds. Off by default, so pool-free
        // scenarios replay bit-identically to the pre-elastic engine.
        let elapsed = if self.cpu_contention {
            elapsed * self.competing_threads(node)
        } else {
            elapsed
        };

        // A guest that trips a `VmError` (unbounded recursion, a call
        // site disagreeing with its callee) ends its own program with a
        // typed error; the rest of the fleet runs on.
        let out = match out {
            Ok(out) => out,
            Err(e) => return self.fail_thread_owner(node, tid, e.to_string(), ctx.now() + elapsed),
        };

        // Finish a handler-protocol restore once the thread executes
        // anything past the last re-established frame (including returning
        // immediately for very short segments).
        if !matches!(out, StepOutcome::Breakpoint { .. }) {
            self.maybe_finish_restore(node, tid, elapsed, ctx);
        }

        match out {
            StepOutcome::Continue => {
                ctx.schedule(elapsed, node, Msg::RunSlice { tid });
            }
            StepOutcome::AtMsp { .. } => self.at_msp(node, tid, elapsed, ctx),
            StepOutcome::HostCall { name, args } => {
                self.host_call(node, tid, &name, &args, elapsed, ctx)
            }
            StepOutcome::ObjectFault(q) => {
                // Only restored workers fault on remote objects: a home
                // thread has nobody to fetch from.
                let sid = match self.nodes[node].thread_owner.get(&tid) {
                    Some(Owner::Worker(s)) => *s,
                    _ => return,
                };
                let Some(w) = self.nodes[node].sessions.get(&sid) else {
                    return;
                };
                let (home, program) = (w.home, w.program);
                ctx.send_after(
                    elapsed,
                    node,
                    home,
                    costs::CONTROL_MSG.fixed,
                    Msg::ObjectRequest {
                        session: sid,
                        requester: node,
                        home_id: q.home_id,
                        program,
                    },
                );
            }
            StepOutcome::ClassMiss(name) => self.class_miss(node, tid, name, elapsed, ctx),
            StepOutcome::Returned(v) => self.thread_returned(node, tid, v, elapsed, ctx),
            StepOutcome::Unhandled(e) => self.thread_faulted(node, tid, e, elapsed, ctx),
            StepOutcome::Breakpoint { .. } => self.restore_breakpoint(node, tid, elapsed, ctx),
        }
    }

    /// Threads genuinely competing for `node`'s CPU: runnable, and not a
    /// home thread frozen while its segment runs remotely (it never gets a
    /// slice). Visits the owner map — the node's threads in flight — only.
    fn competing_threads(&mut self, node: usize) -> u64 {
        let n = &self.nodes[node];
        let live = |tid: &usize, owner: &Owner| {
            n.vm.thread(*tid).is_ok()
                && match owner {
                    Owner::Root(p) => self.programs[*p as usize].end.is_none(),
                    Owner::Worker(s) => n.sessions.contains_key(s),
                }
        };
        debug_assert!(n.thread_owner.iter().all(|(tid, o)| live(tid, o)));
        let programs = &mut self.programs;
        let count = n.thread_owner.iter().filter(|&(&tid, owner)| {
            let frozen = matches!(owner, Owner::Root(p) if matches!(
                protocol::home(&mut programs[*p as usize].side, HomeInput::Slice),
                HomeEffect::Drop
            ));
            !frozen && n.vm.thread(tid).is_ok_and(|t| t.is_runnable())
        });
        (count.count() as u64).max(1)
    }

    // ------------------------------------------------------------------
    // Host intrinsics
    // ------------------------------------------------------------------

    pub(super) fn host_call(
        &mut self,
        node: usize,
        tid: usize,
        name: &str,
        args: &[Value],
        elapsed: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let str_arg = |c: &Cluster, i: usize| -> String {
            match args.get(i) {
                Some(Value::Ref(id)) => c.nodes[node]
                    .vm
                    .heap
                    .get_str(*id)
                    .map(str::to_owned)
                    .unwrap_or_default(),
                _ => String::new(),
            }
        };
        // The call the thread just parked on: its reply names it.
        let call = self.nodes[node].vm.thread(tid).map_or(0, |t| t.host_calls);
        let (delay, reply) = match name {
            "clock_ns" => (0, HostReply::Int((ctx.now() + elapsed) as i64)),
            "node_id" => (0, HostReply::Int(node as i64)),
            "sod_move" => {
                let dest = args
                    .first()
                    .and_then(|v| v.as_int().ok())
                    .unwrap_or(node as i64) as usize;
                if dest != node && dest < self.nodes.len() {
                    let n = &mut self.nodes[node];
                    match n.thread_owner.get(&tid) {
                        Some(&Owner::Root(p)) => {
                            let plan = MigrationPlan::top_to(dest, 1);
                            self.home_step(p, HomeInput::Plan(plan, PlanSource::Guest));
                        }
                        Some(Owner::Worker(s)) => {
                            if let Some(w) = n.sessions.get_mut(s) {
                                protocol::worker(&mut w.phase, WorkerInput::Move(dest));
                            }
                        }
                        None => {}
                    }
                }
                (0, HostReply::Int(0))
            }
            "fs_size" => {
                let path = str_arg(self, 0);
                let meta = self.lookup_file(node, &path);
                let bytes = meta.map_or(-1, |(m, _)| m.bytes as i64);
                (costs::FS_SIZE.fixed, HostReply::Int(bytes))
            }
            "fs_list" => {
                let dir = str_arg(self, 0);
                // Listing consults the local view plus mounted servers.
                let mut entries = self.nodes[node].fs.list(&dir);
                if let Some(server) = self.nodes[node].fs.serving_node(&dir) {
                    entries = self.nodes[server].fs.list(&dir);
                }
                (costs::FS_LIST.fixed, HostReply::List(entries))
            }
            "fs_search" | "fs_read" => {
                let path = str_arg(self, 0);
                let op = if name == "fs_search" {
                    FsOp::Search
                } else {
                    FsOp::Read
                };
                match self.lookup_file(node, &path) {
                    Some((meta, None)) => {
                        // Local file: disk + scan.
                        let disk = self.nodes[node].fs.disk_read_ns(meta.bytes);
                        let scan = self.scan_ns(node, meta.bytes);
                        let reply = match op {
                            FsOp::Search => {
                                HostReply::Int(meta.match_at.map(|p| p as i64).unwrap_or(-1))
                            }
                            FsOp::Read => HostReply::Int(meta.bytes as i64),
                        };
                        (disk + scan, reply)
                    }
                    Some((_meta, Some(server))) => {
                        // NFS: request to the serving node; bytes stream back.
                        let read = Msg::FsRead {
                            requester: node,
                            tid,
                            call,
                            path,
                            op,
                        };
                        return ctx.send_after(
                            elapsed,
                            node,
                            server,
                            costs::CONTROL_MSG.fixed,
                            read,
                        );
                    }
                    None => (0, HostReply::Int(-1)),
                }
            }
            "sock_accept" => match self.nodes[node].sock_queue.pop_front() {
                Some(req) => (0, HostReply::Str(req)),
                None => return self.nodes[node].sock_waiters.push_back((tid, call)),
            },
            "sock_send" => {
                let payload = str_arg(self, 0);
                // Response leaves on the node's uplink; cost modelled as a
                // flat per-byte charge (clients are outside the cluster).
                let cost = costs::SOCK_SEND.of(payload.len() as u64);
                (cost, HostReply::Int(payload.len() as i64))
            }
            // The VM parks on any name outside its pure registry: a guest
            // can name an intrinsic no host provides. That ends the guest's
            // own program, typed; the fleet runs on.
            other => {
                let error = VmError::UnknownIntrinsic(other.to_owned()).to_string();
                return self.fail_thread_owner(node, tid, error, ctx.now() + elapsed);
            }
        };
        ctx.schedule(elapsed + delay, node, Msg::HostDone { tid, call, reply });
    }

    /// Resolve a path on `node`: `(meta, Some(server))` for mounted paths.
    fn lookup_file(&self, node: usize, path: &str) -> Option<(crate::fs::FileMeta, Option<usize>)> {
        if let Some(server) = self.nodes[node].fs.serving_node(path) {
            self.nodes[server]
                .fs
                .file(path)
                .cloned()
                .map(|m| (m, Some(server)))
        } else {
            self.nodes[node].fs.file(path).cloned().map(|m| (m, None))
        }
    }

    /// CPU time to scan `bytes` on `node` (I/O-efficiency modelling).
    pub(super) fn scan_ns(&self, node: usize, bytes: u64) -> u64 {
        self.nodes[node]
            .cfg
            .scale(bytes * self.nodes[node].cfg.io_scan_ns_per_byte_x100 / 100)
    }

    /// Serve a remote NFS read: stream the file's bytes to the requester.
    pub(super) fn fs_read(
        &mut self,
        dst: usize,
        requester: usize,
        (tid, call): (usize, u32),
        path: String,
        op: FsOp,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let Some(meta) = self.nodes[dst].fs.file(&path).cloned() else {
            ctx.send(
                dst,
                requester,
                costs::CONTROL_MSG.fixed,
                Msg::FsData {
                    tid,
                    call,
                    bytes: 0,
                    op,
                    result: HostReply::Int(-1),
                },
            );
            return;
        };
        let disk = self.nodes[dst].fs.disk_read_ns(meta.bytes);
        let result = match op {
            FsOp::Search => HostReply::Int(meta.match_at.map(|p| p as i64).unwrap_or(-1)),
            FsOp::Read => HostReply::Int(meta.bytes as i64),
        };
        ctx.send_after(
            disk,
            dst,
            requester,
            meta.bytes,
            Msg::FsData {
                tid,
                call,
                bytes: meta.bytes,
                op,
                result,
            },
        );
    }

    /// File content arrived back at the requester: charge the scan and
    /// resume the parked thread.
    pub(super) fn fs_data(
        &mut self,
        dst: usize,
        (tid, call): (usize, u32),
        bytes: u64,
        op: FsOp,
        result: HostReply,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let scan = match op {
            FsOp::Search => self.scan_ns(dst, bytes),
            FsOp::Read => self.scan_ns(dst, bytes) / 4,
        };
        let done = Msg::HostDone {
            tid,
            call,
            reply: result,
        };
        ctx.schedule(scan, dst, done);
    }

    /// A host intrinsic's reply (an NFS read's too, through `fs_data`)
    /// resumes the thread parked on the call it names; one that finds no
    /// thread of that id parked on that call (released, never there, a
    /// duplicate, a reply to an earlier call) allocates nothing and resumes
    /// nothing.
    pub(super) fn host_done(
        &mut self,
        node: usize,
        (tid, call): (usize, u32),
        reply: HostReply,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let vm = &mut self.nodes[node].vm;
        let Ok(t) = vm.thread(tid) else {
            return;
        };
        let parked = matches!(t.state, ThreadState::Parked(ParkReason::HostCall { .. }));
        if !parked || t.host_calls != call {
            return;
        }
        // Strings and lists land in the guest's heap, made for the thread.
        let origin = t.origin;
        let heap = vm.heap.mint_for(origin);
        let stored = match reply {
            HostReply::Int(i) => Ok(Value::Int(i)),
            HostReply::Str(s) => heap.alloc_str(&s).map(Value::Ref),
            HostReply::List(items) => items
                .iter()
                .map(|s| heap.alloc_str(s).map(Value::Ref))
                .collect::<VmResult<Vec<Value>>>()
                .and_then(|refs| heap.alloc_arr_from(refs))
                .map(Value::Ref),
        };
        let v = match stored {
            Ok(v) => v,
            Err(e) => return self.fail_thread_owner(node, tid, e.to_string(), ctx.now()),
        };
        if vm.resume_host(tid, v).is_ok() {
            ctx.schedule(0, node, Msg::RunSlice { tid });
        }
    }

    // ------------------------------------------------------------------
    // Class misses during execution
    // ------------------------------------------------------------------

    pub(super) fn class_miss(
        &mut self,
        node: usize,
        tid: usize,
        name: String,
        elapsed: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        match self.nodes[node].thread_owner.get(&tid) {
            Some(Owner::Root(p)) => {
                // Home: lazy local load from the repository. Any failure is
                // a typed program failure, not an engine abort (fleet
                // members keep running).
                let program = *p;
                let at = ctx.now() + elapsed;
                let Some(class) = self.nodes[node].repo.get(&name).cloned() else {
                    self.end_program(program, Err(format!("class not found: {name}")), at);
                    return;
                };
                let cost = costs::CLASS_LOAD.of(self.nodes[node].class_size(&class));
                // Loading only *adds* resolvable names — the VM's class
                // table is append-only, so inline caches warmed by already
                // running threads stay valid (misses are never cached) and
                // no invalidation step exists here.
                if let Err(e) = self.nodes[node].vm.load_class(&class) {
                    self.end_program(program, Err(format!("class load failed: {e:?}")), at);
                    return;
                }
                if let Err(e) = self.nodes[node].vm.resume_class_loaded(tid) {
                    self.end_program(program, Err(format!("class-load resume failed: {e:?}")), at);
                    return;
                }
                ctx.schedule(
                    elapsed + self.nodes[node].cfg.scale(cost),
                    node,
                    Msg::RunSlice { tid },
                );
            }
            Some(Owner::Worker(s)) => {
                let sid = *s;
                let (home, program) = {
                    let w = &self.nodes[node].sessions[&sid];
                    (w.home, w.program)
                };
                self.programs[program as usize].report.classes_shipped += 1;
                ctx.send_after(
                    elapsed,
                    node,
                    home,
                    costs::CONTROL_MSG.fixed,
                    Msg::ClassRequest {
                        session: sid,
                        requester: node,
                        name,
                        program,
                    },
                );
            }
            // A thread nobody owns is not the engine's; leave it parked.
            None => {}
        }
    }

    // ------------------------------------------------------------------
    // Thread completion / faults
    // ------------------------------------------------------------------

    pub(super) fn thread_returned(
        &mut self,
        node: usize,
        tid: usize,
        retval: Option<Value>,
        elapsed: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        match self.nodes[node].thread_owner.get(&tid) {
            Some(Owner::Root(p)) => {
                let program = *p;
                self.end_program(program, Ok(retval), ctx.now() + elapsed);
            }
            Some(Owner::Worker(s)) => {
                let sid = *s;
                self.segment_completed(node, sid, retval, elapsed, ctx);
            }
            None => {}
        }
    }

    pub(super) fn thread_faulted(
        &mut self,
        node: usize,
        tid: usize,
        e: ExceptionInfo,
        elapsed: u64,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        if let Some(Owner::Root(p)) = self.nodes[node].thread_owner.get(&tid) {
            let program = *p;
            if e.kind == ExKind::OutOfMemory {
                // Exception-driven offload (`When::OnOom`): roll the
                // faulting statement back and push the whole stack to the
                // armed plan's first destination, so the allocation
                // retries there. A thread the VM cannot roll back fails as
                // unhandled.
                let mut armed = self.programs[program as usize].armed.iter_mut();
                let offload = armed.find_map(|t| match t.when {
                    When::OnOom if !t.fired => {
                        t.fired = true;
                        t.plan.segments.first().map(|s| s.dest)
                    }
                    _ => None,
                });
                if let Some(cloud) = offload {
                    if let Ok(height) = self.nodes[node].vm.rollback_to_line_start(tid) {
                        let plan = MigrationPlan::top_to(cloud, height);
                        self.home_step(program, HomeInput::Plan(plan, PlanSource::Guest));
                        ctx.schedule(elapsed, node, Msg::RunSlice { tid });
                        return;
                    }
                }
            }
        }
        let what = match self.nodes[node].thread_owner.get(&tid) {
            Some(Owner::Root(_)) => "unhandled",
            _ => "worker fault",
        };
        let error = format!("{what} {:?}: {}", e.kind, e.message);
        self.fail_thread_owner(node, tid, error, ctx.now() + elapsed);
    }

    /// Fail whatever owns thread `tid`: a root thread's program, or a
    /// worker thread's session — retired along with its program, so stale
    /// events addressed to it cannot wake the dead worker state.
    pub(super) fn fail_thread_owner(&mut self, node: usize, tid: usize, error: String, at: u64) {
        match self.nodes[node].thread_owner.get(&tid) {
            Some(Owner::Root(p)) => self.end_program(*p, Err(error), at),
            Some(Owner::Worker(s)) => self.fail_session(node, *s, error, at),
            None => {}
        }
    }

    /// The one place a program ends, with its root thread's value or a
    /// typed failure; a second end is refused. It counts the end, stamps
    /// `finished_at_ns`, records an ok end in the pools' p99 window and
    /// retires the program. A failure keeps the stats accrued so far.
    pub(super) fn end_program(
        &mut self,
        program: ProgramId,
        end: Result<Option<Value>, String>,
        at: u64,
    ) {
        let p = &mut self.programs[program as usize];
        if p.end.is_some() {
            return;
        }
        self.programs_done += 1;
        p.report.finished_at_ns = at;
        p.end = Some(end.map(|retval| {
            p.report.result = retval.and_then(|v| match v {
                Value::Int(i) => Some(i),
                Value::Num(n) => Some(n as i64),
                _ => None,
            });
            if !self.pools.is_empty() {
                self.finishes.record(at, p.report.latency_ns());
            }
        }));
        self.retire_program(program);
    }

    /// A program whose root thread cannot be spawned (unknown class or
    /// method, wrong arity) fails typed. Cold and out of line: inlined
    /// into the message dispatch, this path cost the repo benchmark's
    /// `fleet-compute` ≈ 4 % of `wall_s` on a 2-core x86-64 host.
    #[cold]
    #[inline(never)]
    pub(super) fn spawn_failed(&mut self, program: ProgramId, error: VmError, at: u64) {
        self.end_program(program, Err(error.to_string()), at);
    }

    /// The program is done: close its episode (retiring the sessions it
    /// lists), record its home thread's maximum stack height (Table I
    /// `h`), then release the thread and its owner entry. A program that
    /// ended before its spawn has no thread.
    fn retire_program(&mut self, program: ProgramId) {
        let end = self.home_step(program, HomeInput::End);
        self.close_episode(end);
        let p = &self.programs[program as usize];
        let Some(tid) = p.thread else {
            return;
        };
        let n = &mut self.nodes[p.home];
        if let Ok(t) = n.vm.thread(tid) {
            self.programs[program as usize].report.max_stack_height = t.max_height;
        }
        n.thread_owner.remove(&tid);
        n.vm.release(tid);
    }
}
