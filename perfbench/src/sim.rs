//! The simulator workloads: `sweep` (8 kernels × 6 design points at 16
//! cores over a 2-worker `run_jobs` pool) and `sharded` (heat and cg at
//! 128 cores on the PDES engine with `--shards auto`).

use std::cell::Cell;
use std::time::{Duration, Instant};

use cohesion::config::{DesignPoint, MachineConfig};
use cohesion::run::{run_workload, Workload};
use cohesion_bench::harness::{
    design_label, metrics_document, realistic_points, run_jobs, Job, Options,
};
use cohesion_kernels::{kernel_by_name_seeded, Scale};
use cohesion_mem::mainmem::MainMemory;
use cohesion_runtime::api::CohesionApi;
use cohesion_runtime::task::Phase;
use cohesion_service::request::{point_spec, RunRequest};
use cohesion_sim::metrics::Snapshot;
use cohesion_sim::timeline::TimelineSnapshot;
use cohesion_testkit::pool;

/// Forwards every call to the wrapped kernel, timing `setup`,
/// `next_phase` and `verify` — the kernels layer's share of a run.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    setup: Duration,
    next_phase: Duration,
    verify: Cell<Duration>,
}

impl TimedWorkload {
    pub fn new(inner: Box<dyn Workload>) -> Self {
        TimedWorkload {
            inner,
            setup: Duration::ZERO,
            next_phase: Duration::ZERO,
            verify: Cell::new(Duration::ZERO),
        }
    }
}

impl Workload for TimedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn setup(
        &mut self,
        api: &mut CohesionApi,
        golden: &mut MainMemory,
    ) -> Result<(), cohesion_runtime::api::RuntimeError> {
        let t = Instant::now();
        let r = self.inner.setup(api, golden);
        self.setup += t.elapsed();
        r
    }

    fn next_phase(&mut self, api: &mut CohesionApi, golden: &mut MainMemory) -> Option<Phase> {
        let t = Instant::now();
        let r = self.inner.next_phase(api, golden);
        self.next_phase += t.elapsed();
        r
    }

    fn verify(&self, mem: &MainMemory) -> Result<(), String> {
        let t = Instant::now();
        let r = self.inner.verify(mem);
        self.verify.set(self.verify.get() + t.elapsed());
        r
    }

    fn immutable_ranges(&self) -> Vec<(cohesion_mem::addr::Addr, u32)> {
        self.inner.immutable_ranges()
    }

    fn profile_regions(&self) -> Vec<(cohesion_mem::addr::Addr, u32)> {
        self.inner.profile_regions()
    }

    fn observe(&mut self, feedback: &[cohesion::profile::RegionFeedback]) {
        self.inner.observe(feedback)
    }
}

/// One simulation: a kernel under a design point on a machine shape.
#[derive(Clone)]
pub struct SimJob {
    pub kernel: &'static str,
    pub point: DesignPoint,
    pub cores: u32,
    pub scale: Scale,
    pub shards: u32,
    pub seed: u64,
}

impl SimJob {
    pub fn label(&self) -> String {
        format!("{} @ {}", self.kernel, design_label(self.point))
    }

    fn options(&self) -> Options {
        Options {
            cores: self.cores,
            scale: self.scale,
            kernels: vec![self.kernel.to_string()],
            jobs: 1,
            shards: self.shards,
            seed: self.seed,
            metrics_out: None,
            trace_out: None,
        }
    }

    /// The cohesiond request that asks for this job.
    pub fn request(&self) -> RunRequest {
        RunRequest {
            kernel: self.kernel.to_string(),
            scale: self.scale,
            cores: self.cores,
            point: point_spec(&self.point),
            seed: self.seed,
            shards: self.shards,
        }
    }

    pub fn config(&self, traced: bool) -> MachineConfig {
        let mut cfg = self.options().config(self.point);
        // The counters registry is armed in every run: `events/scheduled`
        // feeds `sim_events_per_s`, and cohesiond arms it on every run too.
        // Only the timeline flight recorder marks a traced run.
        cfg.metrics = true;
        cfg.timeline = traced;
        cfg
    }

    /// Generates the kernel's inputs: `Workload::setup` into a fresh
    /// golden memory.
    pub fn setup(&self) -> MainMemory {
        let mut wl = kernel_by_name_seeded(self.kernel, self.scale, self.seed);
        let mut api = CohesionApi::new(self.cores, self.point.mode);
        let mut golden = MainMemory::new();
        wl.setup(&mut api, &mut golden)
            .expect("kernel set-up allocates");
        golden
    }

    /// A digest of the kernel's generated inputs (the golden memory
    /// image after `setup`): the same seed must give the same inputs.
    pub fn input_digest(&self) -> u64 {
        let golden = self.setup();
        let mut h = Fnv::new();
        let mut pages: Vec<_> = golden.iter_pages().collect();
        pages.sort_by_key(|(n, _)| *n);
        for (n, words) in pages {
            h.word(u64::from(n));
            for w in words.iter() {
                h.word(u64::from(*w));
            }
        }
        h.0
    }

    /// The report document cohesiond would cache for this job: the
    /// single-run `cohesion-metrics/v1` document of its snapshot.
    pub fn report_doc(&self, metrics: &Snapshot) -> String {
        let label = format!("{} @ {}", self.kernel, design_label(self.point));
        metrics_document("cohesiond", &self.options(), &[(label, metrics.to_json())])
    }
}

/// What one simulation returned.
pub struct JobOut {
    pub label: String,
    /// `(simulated cycles, total messages)` or the failure.
    pub digest: Result<(u64, u64), String>,
    /// Host time of `run_workload`.
    pub wall: Duration,
    pub kernel_setup: Duration,
    pub kernel_next_phase: Duration,
    pub kernel_verify: Duration,
    pub metrics: Option<Snapshot>,
    pub timeline: Option<TimelineSnapshot>,
}

pub fn run_job(job: &SimJob, traced: bool) -> JobOut {
    let cfg = job.config(traced);
    let mut wl = TimedWorkload::new(kernel_by_name_seeded(job.kernel, job.scale, job.seed));
    let t = Instant::now();
    let r = run_workload(&cfg, &mut wl);
    let wall = t.elapsed();
    let (digest, metrics, timeline) = match r {
        Ok(rep) => (
            Ok((rep.cycles, rep.total_messages())),
            rep.metrics,
            rep.timeline,
        ),
        Err(e) => (Err(format!("{}: {e}", job.label())), None, None),
    };
    JobOut {
        label: job.label(),
        digest,
        wall,
        kernel_setup: wl.setup,
        kernel_next_phase: wl.next_phase,
        kernel_verify: wl.verify.get(),
        metrics,
        timeline,
    }
}

/// Kernels heaviest first (host time at 16 cores, small scale), so the
/// pool's makespan does not hinge on which worker draws a long job last.
const SWEEP_ORDER: [&str; 8] = [
    "cg", "heat", "sobel", "stencil", "dmm", "kmeans", "mri", "gjk",
];

/// The `sweep` job list: every kernel under every realistic point.
pub fn sweep_jobs(seed: u64) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for kernel in SWEEP_ORDER {
        for (_, point) in realistic_points() {
            jobs.push(SimJob {
                kernel,
                point,
                cores: 16,
                scale: Scale::Small,
                shards: 1,
                seed,
            });
        }
    }
    jobs
}

/// The `sharded` job list: heat and cg under Cohesion, shard count auto.
pub fn sharded_jobs(seed: u64) -> Vec<SimJob> {
    ["heat", "cg"]
        .into_iter()
        .map(|kernel| SimJob {
            kernel,
            point: DesignPoint::cohesion(16 * 1024, 128),
            cores: 128,
            scale: Scale::Small,
            shards: 0,
            seed,
        })
        .collect()
}

/// Workers of the `sweep` pool.
pub const SWEEP_WORKERS: usize = 2;

/// Generates every job's inputs `reps` times over, on as many threads as
/// the `sweep` pool has. Set-up keeps both host threads busy to the end:
/// when one of them idles, the other's speed swings by up to 1.7× from
/// moment to moment on the 2-thread host this was tuned on, and
/// `setup_s` with it.
pub fn setup_all(jobs: &[SimJob], reps: usize) {
    let list = (0..reps).flat_map(|_| jobs.iter()).collect();
    pool::run_jobs(SWEEP_WORKERS, list, |j| drop(j.setup()));
}

/// Runs one unit of a workload's fixed work: the sweep on its pool, the
/// sharded runs one after another.
pub fn run_unit(jobs: &[SimJob], workers: usize, traced: bool) -> (Vec<JobOut>, Duration) {
    let t = Instant::now();
    let out = if workers > 1 {
        let list = jobs.iter().map(|j| Job::new(j.label(), j)).collect();
        run_jobs(workers, list, |j| run_job(j, traced))
    } else {
        jobs.iter().map(|j| run_job(j, traced)).collect()
    };
    (out, t.elapsed())
}

/// FNV-1a over 64-bit words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
