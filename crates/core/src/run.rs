//! Workload execution: the barrier-synchronized task-queue model of §4.1
//! driven over the machine, phase by phase.

use cohesion_mem::addr::Addr;
use cohesion_mem::mainmem::MainMemory;
use cohesion_protocol::region::{Domain, FineTable};
use cohesion_runtime::api::{CohesionApi, RuntimeError};
use cohesion_runtime::layout::Layout;
use cohesion_runtime::task::{AtomicKind, Op, Phase, RegionOp, Task};
use cohesion_sim::crew::Crew;
use cohesion_sim::event::EventQueue;
use cohesion_sim::ids::{ClusterId, CoreId};
use cohesion_sim::shard::{BatchEvent, LaneQueues};
use cohesion_sim::timeline::{CrewSpanLog, EscalationCause, Span, Track, CREW_RING_CAPACITY};
use cohesion_sim::Cycle;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::config::{MachineConfig, TaskQueueModel};
use crate::machine::{
    flush, ifetch, invalidate, load, store, Halt, LaneCtx, LaneScratch, Machine, MachineError,
    Owner,
};
use crate::report::RunReport;

/// A workload: allocates its data through the Cohesion API, produces
/// bulk-synchronous phases of task traces, and can verify the machine's
/// final memory image against its golden (functionally-computed) result.
///
/// # Example
///
/// A minimal workload that doubles an array in place:
///
/// ```
/// use cohesion::config::{DesignPoint, MachineConfig};
/// use cohesion::run::{run_workload, Workload};
/// use cohesion_mem::addr::Addr;
/// use cohesion_mem::mainmem::MainMemory;
/// use cohesion_runtime::api::{CohesionApi, RuntimeError};
/// use cohesion_runtime::task::{Phase, TaskBuilder};
///
/// struct Doubler { data: Addr, done: bool }
///
/// impl Workload for Doubler {
///     fn name(&self) -> &'static str { "doubler" }
///
///     fn setup(&mut self, api: &mut CohesionApi, golden: &mut MainMemory)
///         -> Result<(), RuntimeError>
///     {
///         self.data = api.coh_malloc(64)?; // 16 words, born SWcc
///         for i in 0..16 {
///             golden.write_word(Addr(self.data.0 + 4 * i), i + 1);
///         }
///         Ok(())
///     }
///
///     fn next_phase(&mut self, api: &mut CohesionApi, golden: &mut MainMemory)
///         -> Option<Phase>
///     {
///         if std::mem::replace(&mut self.done, true) { return None; }
///         let mut p = Phase::new("double");
///         let mut b = TaskBuilder::new(2);
///         for i in 0..16 {
///             let a = Addr(self.data.0 + 4 * i);
///             let v = golden.read_word(a);
///             golden.write_word(a, v * 2);
///             b.load(a, v).store(a, v * 2);
///         }
///         // SWcc epilogue: flush what we wrote.
///         b.flush_written(|_| true);
///         p.tasks.push(b.build());
///         Some(p)
///     }
///
///     fn verify(&self, mem: &MainMemory) -> Result<(), String> {
///         for i in 0..16 {
///             let got = mem.read_word(Addr(self.data.0 + 4 * i));
///             if got != (i + 1) * 2 {
///                 return Err(format!("word {i} is {got}"));
///             }
///         }
///         Ok(())
///     }
/// }
///
/// let cfg = MachineConfig::scaled(16, DesignPoint::cohesion(1024, 128));
/// let mut wl = Doubler { data: Addr(0), done: false };
/// let report = run_workload(&cfg, &mut wl).expect("verifies");
/// assert!(report.cycles > 0);
/// ```
pub trait Workload {
    /// Benchmark name (`cg`, `dmm`, ...).
    fn name(&self) -> &'static str;

    /// Allocates and initializes input data. Writes initial values into
    /// `golden`; the machine's memory starts as a copy of it.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    fn setup(&mut self, api: &mut CohesionApi, golden: &mut MainMemory)
        -> Result<(), RuntimeError>;

    /// Produces the next phase (tasks + any domain transitions), advancing
    /// the golden computation. Returns `None` when the program is done.
    fn next_phase(&mut self, api: &mut CohesionApi, golden: &mut MainMemory) -> Option<Phase>;

    /// Verifies the machine's final (drained) memory against the golden
    /// result.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first mismatch.
    fn verify(&self, mem: &MainMemory) -> Result<(), String>;

    /// Address ranges (`(start, bytes)`) that are immutable for the
    /// program's lifetime — the Figure 6 `SWIM` class, exempt from the
    /// invalidate-before-read rule of the task-centric contract. Used by
    /// the trace checker; defaults to none.
    fn immutable_ranges(&self) -> Vec<(Addr, u32)> {
        Vec::new()
    }

    /// Address regions whose coherence behaviour should be profiled
    /// (§4.2's remapping feedback). When non-empty, the executor calls
    /// [`Workload::observe`] with per-region counter deltas after every
    /// phase. Defaults to none (no profiling overhead).
    fn profile_regions(&self) -> Vec<(Addr, u32)> {
        Vec::new()
    }

    /// Receives the per-phase profile deltas for the regions returned by
    /// [`Workload::profile_regions`]. An adaptive runtime reacts by
    /// requesting domain changes through the API in its next
    /// [`Workload::next_phase`]. Default: ignore.
    fn observe(&mut self, feedback: &[crate::profile::RegionFeedback]) {
        let _ = feedback;
    }
}

/// Errors from running a workload.
#[derive(Debug)]
pub enum RunError {
    /// Setup/allocation failure.
    Runtime(RuntimeError),
    /// A coherence failure surfaced during execution.
    Machine(MachineError),
    /// Final verification failed.
    Verify(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Runtime(e) => write!(f, "runtime error: {e}"),
            RunError::Machine(e) => write!(f, "machine error: {e}"),
            RunError::Verify(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<RuntimeError> for RunError {
    fn from(e: RuntimeError) -> Self {
        RunError::Runtime(e)
    }
}

impl From<MachineError> for RunError {
    fn from(e: MachineError) -> Self {
        RunError::Machine(e)
    }
}

/// Maximum cycles one core advances per scheduling slice; bounds the
/// timing skew between cores' inline transactions. It is also the epoch
/// length of the sharded executor: every event re-scheduled by a core
/// slice lands at least `QUANTUM` cycles after the slice began, so a
/// window of this width can be drained completely before any of the
/// work it spawns becomes runnable — the conservative-PDES lookahead.
pub(crate) const QUANTUM: Cycle = 64;

/// Ops per instruction-fetch line: 32-byte lines hold 8 RISC instructions.
const OPS_PER_FETCH: u32 = 8;

/// One core's execution cursor.
pub(crate) struct CoreState {
    pub(crate) cluster: ClusterId,
    stack_base: Addr,
    code_base: Addr,
    /// Index into the phase's task vector + op cursor.
    task: Option<(usize, usize)>,
    /// Ops remaining before the next instruction fetch; `0` = fetch now.
    /// A countdown (rather than a wrap-around counter) so a slice that
    /// escalates mid-quantum resumes with the fetch stream intact.
    fetch_counter: u32,
    pc_line: u32,
}

impl CoreState {
    /// Core `core` of a machine built from `cfg`, running code and stack
    /// from `layout`.
    pub(crate) fn new(core: u32, cfg: &MachineConfig, layout: &Layout) -> Self {
        CoreState {
            cluster: CoreId(core).cluster(cfg.cores_per_cluster),
            stack_base: layout.stack_base(core),
            code_base: layout.code.start,
            task: None,
            fetch_counter: 0,
            pc_line: 0,
        }
    }

    /// Clears the cursor at a phase boundary: the core's next action is
    /// a dequeue.
    pub(crate) fn reset(&mut self) {
        self.task = None;
        self.fetch_counter = 0;
    }
}

/// How a core slice ended without a simulated-program failure.
pub(crate) enum Slice<E> {
    /// The budget ran out; the caller re-schedules the core.
    Yield,
    /// The queues were empty: the core arrived at the barrier.
    Arrive,
    /// An access needs a resource the owner does not hold. The core's
    /// cursor is saved and nothing of the access was performed, so the
    /// slice resumes from the same cycle on an owner that holds it.
    Escalate(E),
}

/// Advances one core from cycle `t` until `budget` expires, it arrives
/// at the barrier, or an access escalates — on any [`Owner`]: the lane
/// steps cores in phase A, the machine in phase B and in the
/// multiprogram runner. `dequeue` picks the core's next task (or
/// arrives it at the barrier, returning `None`), advancing the cycle
/// past the queue traffic. Returns the cycle the core reached.
///
/// # Errors
///
/// A stale verified load or a fatal race.
pub(crate) fn step<O: Owner>(
    o: &mut O,
    cs: &mut CoreState,
    core: CoreId,
    mut t: Cycle,
    budget: Cycle,
    tasks: &[Task],
    mut dequeue: impl FnMut(&mut O, ClusterId, &mut Cycle) -> Result<Option<usize>, Halt<O::Escalation>>,
) -> Result<(Cycle, Slice<O::Escalation>), MachineError> {
    loop {
        let (task_idx, mut op_idx) = match cs.task {
            Some(cursor) => cursor,
            None => match dequeue(o, cs.cluster, &mut t) {
                Ok(Some(idx)) => {
                    cs.pc_line = 0;
                    cs.fetch_counter = 0;
                    (idx, 0)
                }
                Ok(None) => return Ok((t, Slice::Arrive)),
                Err(Halt::Escalate(cause)) => return Ok((t, Slice::Escalate(cause))),
                Err(Halt::Fail(e)) => return Err(e),
            },
        };
        let task = &tasks[task_idx];
        while op_idx < task.ops.len() {
            cs.task = Some((task_idx, op_idx));
            if t >= budget {
                return Ok((t, Slice::Yield));
            }
            // Instruction fetch stream: one line per OPS_PER_FETCH ops.
            if cs.fetch_counter == 0 {
                let pc = Addr(cs.code_base.0 + 32 * (cs.pc_line % task.code_lines));
                t = match ifetch(o, core, pc, t) {
                    Ok(t2) => t2,
                    Err(cause) => return Ok((t, Slice::Escalate(cause))),
                };
                cs.pc_line = cs.pc_line.wrapping_add(1);
                cs.fetch_counter = OPS_PER_FETCH;
            }
            t = match execute(o, cs, core, task.ops[op_idx], t) {
                Ok(t2) => t2,
                Err(Halt::Escalate(cause)) => return Ok((t, Slice::Escalate(cause))),
                Err(Halt::Fail(e)) => {
                    if std::env::var_os("COHESION_DEBUG").is_some() {
                        eprintln!("op failure: core {core} task {task_idx} op {op_idx} at cycle {t}: {e}");
                    }
                    return Err(e);
                }
            };
            op_idx += 1;
            cs.fetch_counter -= 1;
        }
        cs.task = None;
    }
}

/// Executes one trace operation for `core` at cycle `t`.
fn execute<O: Owner>(
    o: &mut O,
    cs: &CoreState,
    core: CoreId,
    op: Op,
    t: Cycle,
) -> Result<Cycle, Halt<O::Escalation>> {
    Ok(match op {
        Op::Load { addr, expect } => {
            let (t2, v) = load(o, core, addr, t).map_err(Halt::Escalate)?;
            if let Some(e) = expect {
                if v != e {
                    return Err(Halt::Fail(MachineError::StaleLoad {
                        addr,
                        got: v,
                        expected: e,
                    }));
                }
            }
            t2
        }
        Op::Store { addr, value } => store(o, core, addr, value, t).map_err(Halt::Escalate)?,
        Op::Compute { cycles } => t + cycles as Cycle,
        Op::Atomic {
            addr,
            kind,
            operand,
        } => o.atomic(cs.cluster, addr, kind, operand, t)?.0,
        Op::StackLoad { offset } => {
            load(o, core, cs.stack_base.offset(offset), t).map_err(Halt::Escalate)?.0
        }
        Op::StackStore { offset, value } => {
            store(o, core, cs.stack_base.offset(offset), value, t).map_err(Halt::Escalate)?
        }
        Op::Flush { line } => flush(o, core, line, t).map_err(Halt::Escalate)?,
        Op::Invalidate { line } => invalidate(o, core, line, t).map_err(Halt::Escalate)?,
    })
}

/// Runs `workload` on a machine built from `cfg`; returns the full report.
///
/// # Errors
///
/// Returns [`RunError`] on allocation failure, detected coherence failure
/// (stale verified load, fatal race), or final verification mismatch.
pub fn run_workload(cfg: &MachineConfig, workload: &mut dyn Workload) -> Result<RunReport, RunError> {
    let mut api = CohesionApi::new(cfg.cores, cfg.design.mode);
    let mut golden = MainMemory::new();
    workload.setup(&mut api, &mut golden)?;

    let mut machine = Machine::new(*cfg, *api.layout());
    machine.mem = golden.clone();
    machine.boot();
    let profile_regions = workload.profile_regions();
    let profiling = !profile_regions.is_empty();
    if profiling {
        machine.enable_profiling(profile_regions);
    }
    let mut last_profile: Vec<crate::profile::RegionFeedback> = machine.profile_snapshot();

    // Runtime control words live on the coherent heap (one line per
    // cluster queue, so per-cluster dequeues never false-share).
    let queue_addr = api.malloc(64 * cfg.clusters().max(1))?;
    let barrier_addr = api.malloc(64)?;

    let mut exec = Exec::new(cfg, &machine, queue_addr, barrier_addr);
    let mut phases = 0u32;
    let mut tasks_total = 0u64;
    let mut ops_total = 0u64;

    while let Some(phase) = workload.next_phase(&mut api, &mut golden) {
        let mut region_ops = api.take_region_ops();
        region_ops.extend(phase.region_ops.iter().copied());
        tasks_total += phase.tasks.len() as u64;
        ops_total += phase.total_ops() as u64;
        exec.run_phase(&mut machine, &region_ops, &phase.tasks)?;
        machine.note_barrier(exec.now);
        if cfg.check_invariants {
            machine.check_invariants();
        }
        if profiling {
            let now = machine.profile_snapshot();
            let deltas: Vec<crate::profile::RegionFeedback> = now
                .iter()
                .zip(&last_profile)
                .map(|(n, o)| crate::profile::RegionFeedback {
                    start: n.start,
                    bytes: n.bytes,
                    counters: n.counters.delta_from(&o.counters),
                })
                .collect();
            workload.observe(&deltas);
            last_profile = now;
        }
        phases += 1;
    }

    exec.finish(&mut machine);
    let cycles = exec.now;
    machine
        .metrics_mut()
        .add("events/scheduled", exec.lanes.scheduled());
    machine
        .metrics_mut()
        .add("events/max_pending", exec.lanes.max_pending() as u64);
    machine.drain_for_verification();
    workload.verify(&machine.mem).map_err(RunError::Verify)?;

    Ok(RunReport::collect(
        workload.name(),
        cfg,
        &machine,
        cycles,
        phases,
        tasks_total,
        ops_total,
    ))
}

/// One lane's bundle of work for a window: its slice of the machine, its
/// event queue, its cores, and the window's events (canonical order).
struct LaneWork<'a> {
    ctx: LaneCtx<'a>,
    queue: &'a mut EventQueue<u32>,
    cores: &'a mut [CoreState],
    core_base: u32,
    /// `(batch_idx, cycle, core)` — this lane's events, in `(cycle, seq)`
    /// order (the lane-projection of the batch's canonical order).
    events: Vec<(usize, Cycle, u32)>,
    /// Slices needing serial attention, as `(batch_idx, core, resume)`:
    /// `Ok((t, budget))` for a slice that escalated at `t` and resumes
    /// on the machine with the rest of its `budget`, or the failure (a
    /// stale verified load) that stopped the lane.
    out: Vec<(usize, u32, Result<(Cycle, Cycle), MachineError>)>,
    /// Max completion cycle over slices that yielded in phase A.
    max_end: Cycle,
}

/// Runs one lane's events for the window through the shared stepper,
/// with task dequeue and barrier arrival (uncached atomics on the
/// runtime's queue words) escalating as [`EscalationCause::TaskQueue`].
/// Stops at the lane's first failure: a serial engine would never have
/// executed this lane's later slices past an aborting error, and the
/// merge in phase B surfaces the canonically-first error of the whole
/// batch.
fn process_lane(w: &mut LaneWork<'_>, tasks: &[Task]) {
    if w.events.is_empty() {
        return;
    }
    let lane = w.ctx.cluster().0;
    let window_cycle = w.events[0].1;
    let span_start = w.ctx.timeline().start();
    for i in 0..w.events.len() {
        let (bi, t, core) = w.events[i];
        let budget = t + QUANTUM;
        let cs = &mut w.cores[(core - w.core_base) as usize];
        let escalate_dequeue = |_: &mut LaneCtx<'_>, _: ClusterId, _: &mut Cycle| {
            Err(Halt::Escalate(EscalationCause::TaskQueue))
        };
        match step(&mut w.ctx, cs, CoreId(core), t, budget, tasks, escalate_dequeue) {
            Ok((end, Slice::Yield)) => {
                w.queue.schedule(end, core);
                w.ctx.timeline().note_fast();
                w.max_end = w.max_end.max(end);
            }
            Ok((_, Slice::Arrive)) => unreachable!("barrier arrival escalates"),
            Ok((t, Slice::Escalate(cause))) => {
                w.ctx.timeline().note_escalation(lane, t, cause);
                w.out.push((bi, core, Ok((t, budget))));
            }
            Err(e) => {
                w.out.push((bi, core, Err(e)));
                break;
            }
        }
    }
    w.ctx.timeline().finish_phase_a(lane, span_start, window_cycle);
}

/// A program's task queues: the §4.1 dequeue and barrier traffic
/// (uncached atomics on the runtime's control words) plus the host-side
/// cursors that are the truth about which task is next.
pub(crate) struct TaskQueues {
    model: TaskQueueModel,
    queue_addr: Addr,
    barrier_addr: Addr,
    dequeue_overhead: Cycle,
    next_task: usize,
    task_count: usize,
    /// Per-cluster `[lo, hi)` cursors over a static block partition
    /// (PerClusterStealing only).
    cluster_queues: Vec<(usize, usize)>,
}

impl TaskQueues {
    /// Queues under `model` on the control words at `queue_addr` (one
    /// line per cluster queue) and `barrier_addr`.
    pub(crate) fn new(
        cfg: &MachineConfig,
        model: TaskQueueModel,
        queue_addr: Addr,
        barrier_addr: Addr,
    ) -> Self {
        TaskQueues {
            model,
            queue_addr,
            barrier_addr,
            dequeue_overhead: cfg.dequeue_overhead,
            next_task: 0,
            task_count: 0,
            cluster_queues: vec![(0, 0); cfg.clusters() as usize],
        }
    }

    /// Re-arms the queues for a phase of `tasks` tasks.
    pub(crate) fn refill(&mut self, tasks: usize) {
        self.next_task = 0;
        self.task_count = tasks;
        // Static block partition for the per-cluster model: cluster c owns
        // tasks [c*chunk, (c+1)*chunk) (the tail cluster takes the slack).
        let chunk = tasks.div_ceil(self.cluster_queues.len().max(1));
        for (c, q) in self.cluster_queues.iter_mut().enumerate() {
            *q = ((c * chunk).min(tasks), ((c + 1) * chunk).min(tasks));
        }
    }

    /// Dequeues the next task for a core of `cluster` at `*t`, or — when
    /// the queues are empty — arrives it at the barrier (`None`).
    pub(crate) fn dequeue(
        &mut self,
        machine: &mut Machine,
        cluster: ClusterId,
        t: &mut Cycle,
    ) -> Result<Option<usize>, MachineError> {
        let picked = match self.model {
            TaskQueueModel::Global => {
                // One atomic to the single global queue word.
                let (t2, _old) = machine.atomic(cluster, self.queue_addr, AtomicKind::Add, 1, *t)?;
                *t = t2 + self.dequeue_overhead;
                (self.next_task < self.task_count).then(|| {
                    self.next_task += 1;
                    self.next_task - 1
                })
            }
            TaskQueueModel::PerClusterStealing => {
                // Dequeue from the cluster's own queue word first
                // (per-cluster words live on distinct lines), then
                // steal round-robin (§2.3: stolen tasks pull their
                // data via HWcc or pay SWcc refetch).
                let n = self.cluster_queues.len();
                let mut picked = None;
                for probe in 0..n {
                    let victim = (cluster.0 as usize + probe) % n;
                    if self.cluster_queues[victim].0 >= self.cluster_queues[victim].1 {
                        continue;
                    }
                    let qaddr = Addr(self.queue_addr.0 + 64 * victim as u32);
                    let (t2, _old) = machine.atomic(cluster, qaddr, AtomicKind::Add, 1, *t)?;
                    *t = t2 + self.dequeue_overhead;
                    // Re-check after the (simulated) atomic: the
                    // host-side cursor is the truth.
                    let q = &mut self.cluster_queues[victim];
                    if q.0 < q.1 {
                        picked = Some(q.0);
                        q.0 += 1;
                        break;
                    }
                }
                if picked.is_none() {
                    // One last atomic on the own queue observed empty.
                    let qaddr = Addr(self.queue_addr.0 + 64 * (cluster.0 as usize % n) as u32);
                    let (t2, _old) = machine.atomic(cluster, qaddr, AtomicKind::Add, 0, *t)?;
                    *t = t2;
                }
                picked
            }
        };
        if picked.is_none() {
            // Queues empty: arrive at the barrier.
            let (t3, _) = machine.atomic(cluster, self.barrier_addr, AtomicKind::Add, 1, *t)?;
            *t = t3;
        }
        Ok(picked)
    }
}

/// The per-run execution engine (cores + queue + barrier), sharded.
///
/// Simulated time advances in windows of [`QUANTUM`] cycles. Each window
/// is drained in two phases, both through the one core stepper
/// ([`step`]) and the one body per memory operation:
///
/// * **Phase A (parallel):** every cluster lane steps its own cores
///   through the window on its [`LaneCtx`], in the lane-projection of
///   the batch's canonical `(cycle, lane, seq)` order. Each access
///   first passes the lane's admission check; anything needing state
///   the lane does not own (another lane's bank, DRAM, cross-cluster
///   probes, uncached atomics, task queues) escalates untouched.
/// * **Phase B (serial):** escalated slices resume on the full machine
///   in canonical batch order.
///
/// The batch composition, the A/B split, and both processing orders are
/// functions of simulated state alone — never of the host thread count —
/// so simulated results are byte-identical at any [`MachineConfig::shards`]
/// value. `shards` only chooses how many host threads run phase A.
struct Exec {
    cores: Vec<CoreState>,
    lanes: LaneQueues<u32>,
    queues: TaskQueues,
    /// Per-lane metrics scratches, absorbed into the machine by `finish`.
    scratches: Vec<LaneScratch>,
    /// Worker threads for phase A; `None` = run lanes inline (shards=1).
    crew: Option<Crew>,
    /// Crew park/run span log, drained into the machine timeline by
    /// `finish`; `None` unless the timeline is armed and a crew exists.
    crew_trace: Option<Arc<CrewSpanLog>>,
    cores_per_cluster: usize,
    /// Reused window buffer.
    batch: Vec<BatchEvent<u32>>,
    now: Cycle,
    /// Cores arrived at the current phase's barrier.
    arrived: u32,
    barrier_release: Cycle,
}

impl Exec {
    fn new(cfg: &MachineConfig, machine: &Machine, queue_addr: Addr, barrier_addr: Addr) -> Self {
        let cores = (0..cfg.cores)
            .map(|i| CoreState::new(i, cfg, machine.layout()))
            .collect();
        let n_lanes = cfg.clusters().max(1) as usize;
        // `shards = 0` means auto: size the crew from the host's available
        // parallelism. Host introspection picks only the THREAD COUNT —
        // never anything the simulation observes — so results stay
        // byte-identical whatever count `resolve_shards` lands on.
        let host = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let threads = cfg.resolve_shards(host);
        let crew_trace = (threads > 1 && machine.timeline().is_armed()).then(|| {
            Arc::new(CrewSpanLog::new(
                threads - 1,
                machine.timeline().epoch_instant(),
                CREW_RING_CAPACITY,
            ))
        });
        Exec {
            cores,
            lanes: LaneQueues::new(n_lanes),
            queues: TaskQueues::new(cfg, cfg.task_queue, queue_addr, barrier_addr),
            scratches: machine.new_lane_scratches(),
            crew: (threads > 1).then(|| match &crew_trace {
                Some(tr) => Crew::traced(threads - 1, Arc::clone(tr)),
                None => Crew::new(threads - 1),
            }),
            crew_trace,
            cores_per_cluster: cfg.cores_per_cluster as usize,
            batch: Vec::new(),
            now: 0,
            arrived: 0,
            barrier_release: cfg.barrier_release_latency,
        }
    }

    /// Folds per-lane accounting back into the machine (metrics
    /// scratches in fixed lane order, crew spans).
    fn finish(&mut self, machine: &mut Machine) {
        machine.absorb_lane_scratches(&self.scratches);
        if let Some(trace) = &self.crew_trace {
            machine.timeline_mut().absorb_crew(trace);
        }
    }

    fn run_phase(
        &mut self,
        machine: &mut Machine,
        region_ops: &[RegionOp],
        tasks: &[Task],
    ) -> Result<(), RunError> {
        // 1. Core 0 (the runtime) applies the domain transitions.
        let fine = *machine.fine_table();
        let mut t = self.now;
        for op in region_ops {
            t = apply_region_op(machine, ClusterId(0), &fine, op, t)?;
        }

        // 2. Release all cores into the dequeue loop.
        self.queues.refill(tasks.len());
        self.arrived = 0;
        for (i, c) in self.cores.iter_mut().enumerate() {
            c.reset();
            self.lanes.schedule(c.cluster.0 as usize, t, i as u32);
        }

        // 3. Pump windows until every core reaches the barrier.
        let mut phase_end = t;
        let mut batch = std::mem::take(&mut self.batch);
        while self.arrived < self.cores.len() as u32 {
            self.lanes
                .pop_window(QUANTUM, &mut batch)
                .expect("cores pending but no events scheduled");
            machine.timeline_mut().note_window();

            // Phase A: lanes step their cores on lane-owned state.
            let n_lanes = self.lanes.lanes();
            let mut per_lane: Vec<Vec<(usize, Cycle, u32)>> = vec![Vec::new(); n_lanes];
            for (bi, ev) in batch.iter().enumerate() {
                per_lane[ev.lane as usize].push((bi, ev.cycle, ev.payload));
            }
            let mut works: Vec<LaneWork<'_>> = machine
                .lanes(&mut self.scratches)
                .into_iter()
                .zip(self.lanes.as_mut_slice().iter_mut())
                .zip(self.cores.chunks_mut(self.cores_per_cluster))
                .zip(per_lane)
                .enumerate()
                .map(|(c, (((ctx, queue), cores), events))| LaneWork {
                    ctx,
                    queue,
                    cores,
                    core_base: (c * self.cores_per_cluster) as u32,
                    events,
                    out: Vec::new(),
                    max_end: 0,
                })
                .collect();
            match &self.crew {
                Some(crew) => {
                    let mut jobs: Vec<_> = works
                        .iter_mut()
                        .map(|w| move || process_lane(w, tasks))
                        .collect();
                    let mut refs: Vec<&mut (dyn FnMut() + Send)> = jobs
                        .iter_mut()
                        .map(|j| j as &mut (dyn FnMut() + Send))
                        .collect();
                    crew.run(&mut refs);
                }
                None => {
                    for w in works.iter_mut() {
                        process_lane(w, tasks);
                    }
                }
            }
            let mut serial = Vec::new();
            for w in works.iter_mut() {
                phase_end = phase_end.max(w.max_end);
                serial.append(&mut w.out);
            }
            drop(works);
            // Lane timeline buffers fold in fixed lane order, so the main
            // ring's drop sequence never depends on host threads.
            if machine.timeline().is_armed() {
                for s in self.scratches.iter_mut() {
                    machine.timeline_mut().absorb_lane(&mut s.timeline);
                }
            }

            // Phase B: escalated slices resume serially, in canonical
            // batch order; the canonically-first error aborts the run.
            serial.sort_unstable_by_key(|&(bi, _, _)| bi);
            let span_b = (!serial.is_empty())
                .then(|| machine.timeline().start())
                .flatten();
            let window_cycle = match serial.first() {
                Some((_, _, Ok((t, _)))) => *t,
                _ => 0,
            };
            for (_bi, core, resume) in serial {
                let (t, budget) = resume?;
                let cs = &mut self.cores[core as usize];
                let queues = &mut self.queues;
                let dequeue = |m: &mut Machine, cluster: ClusterId, t: &mut Cycle| {
                    queues.dequeue(m, cluster, t).map_err(Halt::Fail)
                };
                let (end, slice) = step(machine, cs, CoreId(core), t, budget, tasks, dequeue)?;
                match slice {
                    Slice::Yield => self.lanes.schedule(cs.cluster.0 as usize, end, core),
                    Slice::Arrive => self.arrived += 1,
                }
                phase_end = phase_end.max(end);
            }
            if let Some(t0) = span_b {
                let now = machine.timeline().now_us();
                machine.timeline_mut().push(Span {
                    track: Track::Serial,
                    name: "phase_b",
                    start_us: t0,
                    dur_us: now.saturating_sub(t0),
                    cycle: window_cycle,
                    cause: None,
                });
            }
        }
        self.batch = batch;

        // 4. Barrier release broadcast.
        self.now = phase_end + self.barrier_release;
        Ok(())
    }
}

/// Applies one region op: pipelined atomics to the fine-grain `table`,
/// issued by the runtime on `cluster`.
///
/// Lines are grouped by table word — a single `atom.or`/`atom.and` with a
/// multi-bit mask transitions up to 32 lines; the directory still serializes
/// the per-line transitions when it snoops the update (§3.6: "if a request
/// for multiple line state transitions occurs, the directory serializes the
/// requests line-by-line"). The runtime issues the next table update
/// after a fixed interval and blocks only at the end, for whichever
/// transition finished last.
pub(crate) fn apply_region_op(
    machine: &mut Machine,
    cluster: ClusterId,
    table: &FineTable,
    op: &RegionOp,
    mut t: Cycle,
) -> Result<Cycle, MachineError> {
    // word address -> bit mask of lines transitioning in this op.
    let mut masks: BTreeMap<u32, u32> = BTreeMap::new();
    for line in op.lines() {
        let slot = table.slot_of(line);
        *masks.entry(slot.word.0).or_insert(0) |= 1 << slot.bit;
    }
    let mut done_max = t;
    for (word, mask) in masks {
        let (kind, operand) = match op.to {
            Domain::SWcc => (AtomicKind::Or, mask),
            Domain::HWcc => (AtomicKind::And, !mask),
        };
        let (t_done, _) = machine.atomic(cluster, Addr(word), kind, operand, t)?;
        done_max = done_max.max(t_done);
        t += 4;
    }
    Ok(t.max(done_max))
}
