//! The execution protocol: the slice loop that drives guest threads, host
//! intrinsics (clock, sockets, simulated NFS), policy-trigger evaluation,
//! and program completion/failure accounting.

use sod_net::SimCtx;
use sod_vm::class::ExKind;
use sod_vm::error::VmError;
use sod_vm::interp::{ExceptionInfo, RunMode, StepOutcome};
use sod_vm::value::Value;

use crate::costs;
use crate::msg::{FsOp, HostReply, MigrationPlan, Msg, ProgramId};
use crate::trigger::Trigger;

use super::session::{HomeSide, Owner, WorkerPhase};
use super::{rollback_to_statement_start, Cluster, CONTROL_MSG_BYTES};

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
            return; // stale slice: thread parked, finished, or mid-protocol
        }
        let (owner_program, owner_pending) = match self.nodes[node].thread_owner.get(&tid) {
            Some(Owner::Root(p)) => {
                let program = *p;
                if self.programs[program as usize].done {
                    return; // failed while a slice was in flight (crash)
                }
                if self.programs[program as usize].side.is_frozen() {
                    return; // frozen while the segment executes remotely
                }
                // Policy-driven migration: charge this slice against the
                // program's CPU budget and evaluate armed triggers. A
                // trigger that fires installs a pending plan, so this very
                // slice already runs in stop-at-MSP mode.
                self.programs[program as usize].slices_run += 1;
                self.check_policy_triggers(program, ctx.now());
                (program, self.programs[program as usize].side.plan_pending())
            }
            Some(Owner::Worker(s)) => match self.nodes[node].sessions.get(s) {
                Some(w) => (w.program, w.pending_roam.is_some()),
                None => return,
            },
            // Unowned threads (retired roaming workers) never run.
            None => return,
        };
        let mode = if owner_pending {
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
                // Only restored workers fault on remote objects; a thread
                // orphaned mid-slice (its session killed by fault
                // injection) has nobody to fetch for.
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
                    CONTROL_MSG_BYTES,
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

    /// Threads genuinely competing for `node`'s CPU: runnable *and* owned
    /// by something that still executes here. A frozen home thread (its
    /// segment runs remotely), a finished program's thread, or an orphaned
    /// worker thread stays `Runnable` in the VM but never receives a
    /// slice, so counting it would charge phantom contention.
    fn competing_threads(&self, node: usize) -> u64 {
        let count = self.nodes[node]
            .vm
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_runnable())
            .filter(|(tid, _)| match self.nodes[node].thread_owner.get(tid) {
                Some(Owner::Root(p)) => {
                    let p = &self.programs[*p as usize];
                    !p.done && !p.side.is_frozen()
                }
                Some(Owner::Worker(s)) => self.nodes[node]
                    .sessions
                    .get(s)
                    .is_some_and(|w| !matches!(w.phase, WorkerPhase::Done)),
                None => false,
            })
            .count() as u64;
        count.max(1)
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
        match name {
            "clock_ns" => ctx.schedule(
                elapsed,
                node,
                Msg::HostDone {
                    tid,
                    reply: HostReply::Int((ctx.now() + elapsed) as i64),
                },
            ),
            "node_id" => ctx.schedule(
                elapsed,
                node,
                Msg::HostDone {
                    tid,
                    reply: HostReply::Int(node as i64),
                },
            ),
            "sod_move" => {
                let dest = args
                    .first()
                    .and_then(|v| v.as_int().ok())
                    .unwrap_or(node as i64) as usize;
                if dest != node && dest < self.nodes.len() {
                    match self.nodes[node].thread_owner.get(&tid) {
                        Some(Owner::Root(p)) => {
                            let p = *p;
                            self.programs[p as usize].side =
                                HomeSide::PlanPending(MigrationPlan::top_to(dest, 1));
                        }
                        Some(Owner::Worker(s)) => {
                            let s = *s;
                            self.nodes[node].sessions.get_mut(&s).unwrap().pending_roam =
                                Some(dest);
                        }
                        None => {}
                    }
                }
                ctx.schedule(
                    elapsed,
                    node,
                    Msg::HostDone {
                        tid,
                        reply: HostReply::Int(0),
                    },
                );
            }
            "fs_size" => {
                let path = str_arg(self, 0);
                let meta = self.lookup_file(node, &path);
                let bytes = meta.map(|(m, _)| m.bytes as i64).unwrap_or(-1);
                ctx.schedule(
                    elapsed + 50_000,
                    node,
                    Msg::HostDone {
                        tid,
                        reply: HostReply::Int(bytes),
                    },
                );
            }
            "fs_list" => {
                let dir = str_arg(self, 0);
                // Listing consults the local view plus mounted servers.
                let mut entries = self.nodes[node].fs.list(&dir);
                if let Some(server) = self.nodes[node].fs.serving_node(&dir) {
                    entries = self.nodes[server].fs.list(&dir);
                }
                ctx.schedule(
                    elapsed + 200_000,
                    node,
                    Msg::HostDone {
                        tid,
                        reply: HostReply::List(entries),
                    },
                );
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
                        ctx.schedule(elapsed + disk + scan, node, Msg::HostDone { tid, reply });
                    }
                    Some((_meta, Some(server))) => {
                        // NFS: request to the serving node; bytes stream back.
                        ctx.send_after(
                            elapsed,
                            node,
                            server,
                            CONTROL_MSG_BYTES,
                            Msg::FsRead {
                                requester: node,
                                tid,
                                path,
                                op,
                            },
                        );
                    }
                    None => ctx.schedule(
                        elapsed,
                        node,
                        Msg::HostDone {
                            tid,
                            reply: HostReply::Int(-1),
                        },
                    ),
                }
            }
            "sock_accept" => {
                if let Some(req) = self.nodes[node].sock_queue.pop_front() {
                    ctx.schedule(
                        elapsed,
                        node,
                        Msg::HostDone {
                            tid,
                            reply: HostReply::Str(req),
                        },
                    );
                } else {
                    self.nodes[node].sock_waiters.push_back(tid);
                }
            }
            "sock_send" => {
                let payload = str_arg(self, 0);
                // Response leaves on the node's uplink; cost modelled as a
                // flat per-byte charge (clients are outside the cluster).
                let cost = 100_000 + payload.len() as u64 * 8;
                ctx.schedule(
                    elapsed + cost,
                    node,
                    Msg::HostDone {
                        tid,
                        reply: HostReply::Int(payload.len() as i64),
                    },
                );
            }
            // The VM parks on any name outside its pure registry: a guest
            // can name an intrinsic no host provides. That ends the guest's
            // own program, typed; the fleet runs on.
            other => {
                let error = VmError::UnknownIntrinsic(other.to_owned()).to_string();
                self.fail_thread_owner(node, tid, error, ctx.now() + elapsed);
            }
        }
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
        tid: usize,
        path: String,
        op: FsOp,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let Some(meta) = self.nodes[dst].fs.file(&path).cloned() else {
            ctx.send(
                dst,
                requester,
                CONTROL_MSG_BYTES,
                Msg::FsData {
                    tid,
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
        tid: usize,
        bytes: u64,
        op: FsOp,
        result: HostReply,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        let scan = match op {
            FsOp::Search => self.scan_ns(dst, bytes),
            FsOp::Read => self.scan_ns(dst, bytes) / 4,
        };
        ctx.schedule(scan, dst, Msg::HostDone { tid, reply: result });
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
                    self.fail_program(program, format!("class not found: {name}"), at);
                    return;
                };
                let cost = costs::class_load_ns(self.nodes[node].class_size(&class));
                // Loading only *adds* resolvable names — the VM's class
                // table is append-only, so inline caches warmed by already
                // running threads stay valid (misses are never cached) and
                // no invalidation step exists here.
                if let Err(e) = self.nodes[node].vm.load_class(&class) {
                    self.fail_program(program, format!("class load failed: {e:?}"), at);
                    return;
                }
                if let Err(e) = self.nodes[node].vm.resume_class_loaded(tid) {
                    self.fail_program(program, format!("class-load resume failed: {e:?}"), at);
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
                    CONTROL_MSG_BYTES,
                    Msg::ClassRequest {
                        session: sid,
                        requester: node,
                        name,
                        program,
                    },
                );
            }
            // An orphaned thread (session killed under fault injection)
            // has nobody to load for; leave it parked.
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
                self.finish_program(program, retval, ctx.now() + elapsed);
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
                // Exception-driven offload (`Trigger::OnOom`): roll the
                // faulting statement back and push the whole stack to the
                // armed destination, so the allocation retries there.
                let offload = self.programs[program as usize]
                    .triggers
                    .iter_mut()
                    .find(|t| !t.fired && matches!(t.trigger, Trigger::OnOom { .. }))
                    .map(|t| {
                        t.fired = true;
                        match t.trigger {
                            Trigger::OnOom { to } => to,
                            _ => unreachable!(),
                        }
                    });
                if let Some(cloud) = offload {
                    let height = self.nodes[node].vm.thread(tid).unwrap().frames.len();
                    rollback_to_statement_start(&mut self.nodes[node].vm, tid);
                    self.programs[program as usize].side =
                        HomeSide::PlanPending(MigrationPlan::top_to(cloud, height));
                    ctx.schedule(elapsed, node, Msg::RunSlice { tid });
                    return;
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
            Some(Owner::Root(p)) => self.fail_program(*p, error, at),
            Some(Owner::Worker(s)) => self.fail_session(node, *s, error, at),
            None => {}
        }
    }

    pub(super) fn finish_program(&mut self, program: ProgramId, retval: Option<Value>, at: u64) {
        let p = &mut self.programs[program as usize];
        if p.done {
            return;
        }
        p.done = true;
        self.programs_done += 1;
        p.report.finished_at_ns = at;
        p.report.result = retval.and_then(|v| match v {
            Value::Int(i) => Some(i),
            Value::Num(n) => Some(n as i64),
            _ => None,
        });
        self.snapshot_stack_height(program);
    }

    pub(super) fn fail_program(&mut self, program: ProgramId, error: String, at: u64) {
        let p = &mut self.programs[program as usize];
        if p.done {
            return;
        }
        p.done = true;
        self.programs_done += 1;
        p.error = Some(error);
        p.report.finished_at_ns = at;
        // Failure reports carry the same final stats as successes
        // (`instructions` accrues per slice), so fleet aggregates over
        // mixed outcomes stay comparable.
        self.snapshot_stack_height(program);
    }

    /// A program whose root thread cannot be spawned (unknown class or
    /// method, wrong arity) fails typed. Cold and out of line: inlined
    /// into the message dispatch, this path cost the repo benchmark's
    /// `fleet-compute` ≈ 4 % of `wall_s` on a 2-core x86-64 host.
    #[cold]
    #[inline(never)]
    pub(super) fn spawn_failed(&mut self, program: ProgramId, error: VmError, at: u64) {
        self.fail_program(program, error.to_string(), at);
    }

    /// Record the home thread's maximum stack height (Table I `h`) on the
    /// program's report, shared by the success and failure paths. A
    /// program that never got a thread (its spawn failed) has no height:
    /// its `home_tid` is not an id on the home VM.
    fn snapshot_stack_height(&mut self, program: ProgramId) {
        let p = &self.programs[program as usize];
        if !p.started {
            return;
        }
        if let Ok(t) = self.nodes[p.home].vm.thread(p.home_tid) {
            self.programs[program as usize].report.max_stack_height = t.max_height;
        }
    }
}
