//! Multiprogrammed execution: several applications sharing one machine,
//! each with its own address-space slice and per-process region tables —
//! the virtualization §3.5 sketches ("the architecture we propose could be
//! virtualized to support multiple applications and address spaces
//! concurrently by using per-process region tables").
//!
//! Clusters are space-partitioned round-robin across the jobs (the paper's
//! machine has no preemption story, so space sharing is the natural
//! multiprogramming model for a 1024-core accelerator). Every job runs its
//! own bulk-synchronous phase stream on its own cores at its own pace; the
//! L3, directories, NoC, and DRAM are shared, so jobs contend exactly where
//! the real machine would.
//!
//! Each job uses one global task queue of its own (the
//! [`crate::config::TaskQueueModel`] work-stealing variant applies to the
//! single-program executor in [`crate::run`]). Jobs share that
//! executor's core stepper, memory operations, task queues, and
//! region-op issue; only the per-job event loop lives here.

use cohesion_mem::mainmem::MainMemory;
use cohesion_runtime::api::CohesionApi;
use cohesion_runtime::layout::LayoutConfig;
use cohesion_runtime::task::Task;
use cohesion_sim::event::EventQueue;
use cohesion_sim::ids::{ClusterId, CoreId};
use cohesion_sim::stats::{CoherenceInstrStats, MessageCounts};
use cohesion_sim::Cycle;

use crate::config::{MachineConfig, TaskQueueModel};
use crate::machine::{Halt, Machine};
use crate::run::{
    apply_region_op, step, CoreState, RunError, Slice, TaskQueues, Workload, QUANTUM,
};

/// Per-job results of a multiprogrammed run.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The workload's name.
    pub kernel: String,
    /// Cycle at which this job's last phase completed.
    pub finished_at: Cycle,
    /// Bulk-synchronous phases executed.
    pub phases: u32,
    /// Tasks executed.
    pub tasks: u64,
    /// L2→L3 messages from this job's clusters, by class.
    pub messages: MessageCounts,
    /// SWcc coherence-instruction counters from this job's clusters.
    pub instr_stats: CoherenceInstrStats,
}

struct JobState<'a> {
    workload: &'a mut dyn Workload,
    api: CohesionApi,
    golden: MainMemory,
    clusters: Vec<ClusterId>,
    cores: Vec<u32>,
    queues: TaskQueues,
    tasks: Vec<Task>,
    arrived: usize,
    phases: u32,
    tasks_total: u64,
    done: bool,
    finished_at: Cycle,
}

/// Runs several workloads concurrently, space-partitioned over the
/// machine's clusters. Returns one report per job, in input order.
///
/// # Errors
///
/// Returns the first setup failure, coherence failure, or verification
/// mismatch (identifying no specific job; run singly to isolate).
///
/// # Panics
///
/// Panics if `workloads` is empty or there are fewer clusters than jobs.
pub fn run_workloads(
    cfg: &MachineConfig,
    workloads: Vec<&mut dyn Workload>,
) -> Result<Vec<JobReport>, RunError> {
    assert!(!workloads.is_empty(), "need at least one workload");
    let clusters = cfg.clusters();
    assert!(
        clusters as usize >= workloads.len(),
        "need at least one cluster per job"
    );

    // Set up every job's address space and golden memory.
    let n_jobs = workloads.len();
    let mut jobs: Vec<JobState<'_>> = Vec::with_capacity(n_jobs);
    let mut layouts = Vec::with_capacity(n_jobs);
    let mut merged_golden = MainMemory::new();
    for (j, workload) in workloads.into_iter().enumerate() {
        let mut api = CohesionApi::with_layout(
            &LayoutConfig::for_process(j as u32, cfg.cores),
            cfg.design.mode,
        );
        let mut golden = MainMemory::new();
        workload.setup(&mut api, &mut golden)?;
        // Merge this job's initial image into the machine's memory (slices
        // are disjoint, so pages never collide).
        merged_golden.merge_from(&golden);
        let queue_addr = api.malloc(64)?;
        let barrier_addr = api.malloc(64)?;
        layouts.push(*api.layout());
        jobs.push(JobState {
            workload,
            api,
            golden,
            clusters: (0..clusters)
                .filter(|c| (*c as usize) % n_jobs == j)
                .map(ClusterId)
                .collect(),
            cores: Vec::new(),
            queues: TaskQueues::new(cfg, TaskQueueModel::Global, queue_addr, barrier_addr),
            tasks: Vec::new(),
            arrived: 0,
            phases: 0,
            tasks_total: 0,
            done: false,
            finished_at: 0,
        });
    }

    let mut machine = Machine::new_multi(*cfg, layouts);
    machine.mem = merged_golden;
    machine.boot();

    // Cores, partitioned by their cluster's job.
    let job_of = |cluster: ClusterId| cluster.0 as usize % n_jobs;
    let mut cores: Vec<CoreState> = (0..cfg.cores)
        .map(|i| {
            let job = job_of(CoreId(i).cluster(cfg.cores_per_cluster));
            jobs[job].cores.push(i);
            CoreState::new(i, cfg, machine.layout_of(job))
        })
        .collect();

    let mut events: EventQueue<u32> = EventQueue::new();

    // Launch every job's first phase.
    let mut live = 0usize;
    for job in jobs.iter_mut() {
        if start_phase(&mut machine, job, &mut cores, &mut events, 0)? {
            live += 1;
        }
    }

    // Pump events until every job completes.
    while live > 0 {
        let Some((t, core_idx)) = events.pop() else {
            panic!("jobs pending but no events scheduled");
        };
        let cs = &mut cores[core_idx as usize];
        let job = &mut jobs[job_of(cs.cluster)];
        if job.done {
            continue;
        }
        let dequeue = |m: &mut Machine, cluster: ClusterId, t: &mut Cycle| {
            job.queues.dequeue(m, cluster, t).map_err(Halt::Fail)
        };
        let stepped = step(&mut machine, cs, CoreId(core_idx), t, t + QUANTUM, &job.tasks, dequeue);
        let arrived_all = match stepped? {
            (end, Slice::Yield) => {
                events.schedule(end, core_idx);
                false
            }
            (_, Slice::Arrive) => {
                job.arrived += 1;
                job.arrived == job.cores.len()
            }
        };
        if arrived_all {
            // The job's barrier closed: next phase (or done).
            let release = t + machine.config().barrier_release_latency;
            if !start_phase(&mut machine, job, &mut cores, &mut events, release)? {
                job.done = true;
                job.finished_at = t;
                live -= 1;
            }
            if machine.config().check_invariants {
                machine.check_invariants();
            }
        }
    }

    // Verify every job against its own golden memory.
    machine.drain_for_verification();
    for job in &jobs {
        job.workload
            .verify(&machine.mem)
            .map_err(RunError::Verify)?;
    }

    Ok(jobs
        .iter()
        .map(|job| {
            let mut messages = MessageCounts::new();
            let mut instr = CoherenceInstrStats::new();
            for &c in &job.clusters {
                messages.merge(machine.messages_of(c));
                instr.merge(machine.instr_stats_of(c));
            }
            JobReport {
                kernel: job.workload.name().to_string(),
                finished_at: job.finished_at,
                phases: job.phases,
                tasks: job.tasks_total,
                messages,
                instr_stats: instr,
            }
        })
        .collect())
}

/// Seeds the next phase of a job; returns `false` when the job is finished.
fn start_phase(
    machine: &mut Machine,
    job: &mut JobState<'_>,
    cores: &mut [CoreState],
    events: &mut EventQueue<u32>,
    t: Cycle,
) -> Result<bool, RunError> {
    let Some(phase) = job.workload.next_phase(&mut job.api, &mut job.golden) else {
        return Ok(false);
    };
    let mut region_ops = job.api.take_region_ops();
    region_ops.extend(phase.region_ops.iter().copied());
    // The job's runtime (its first cluster) applies the transitions to
    // the job's own table.
    let mut t2 = t;
    for op in &region_ops {
        let table = *machine
            .fine_table_for(op.start)
            .ok_or_else(|| RunError::Verify("region op outside every process".into()))?;
        t2 = apply_region_op(machine, job.clusters[0], &table, op, t2)?;
    }
    job.tasks = phase.tasks;
    job.tasks_total += job.tasks.len() as u64;
    job.queues.refill(job.tasks.len());
    job.arrived = 0;
    job.phases += 1;
    for &ci in &job.cores {
        cores[ci as usize].reset();
        events.schedule(t2.max(t), ci);
    }
    Ok(true)
}
