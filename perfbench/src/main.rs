//! One benchmark for the Cohesion simulator and `cohesiond`.
//!
//! `perfbench --workload sweep|sharded|service --seed N --seconds S
//! --trace 0|1` runs one workload and prints, as its last
//! stdout line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it is the full result (every metric,
//! notes, failures, provenance). `perfbench/run.py` builds this binary
//! and `cohesiond`, then runs it; see `perfbench/README.md`.

mod layers;
mod probes;
mod service;
mod sim;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cohesion_service::cache::{CacheKey, RunCache};

use crate::probes::Shape;
use crate::sim::{JobOut, SimJob};
use crate::stats::{median, Report};

/// The end-to-end metrics every untraced run reports, in order.
const END_TO_END: &[&str] = &[
    "setup_s",
    "wall_s",
    "sim_events_per_s",
    "peak_rss_mb",
    "hit_p50_ms",
    "hit_tail_ms",
    "miss_p50_ms",
    "miss_tail_ms",
    "req_per_s",
];

/// Set-up samples; `setup_s` is their median. A simulator sample times
/// several copies of the job list's set-up on the 2-thread pool and
/// divides by the copies (about 0.3 s of work), so that each sample spans
/// the host's speed swings rather than landing inside one of them.
const SETUP_SAMPLES: usize = 9;
const SERVICE_SETUP_REPS: usize = 3;

/// The service workload reads the daemon's VmHWM after this many rounds
/// (or at the end of a shorter run), so the figure does not grow with
/// the misses a faster simulator fits into the window.
const RSS_ROUNDS: usize = 16;

/// Misses the traced service run replays in process.
const REPLAYED_MISSES: usize = 8;

/// Repeat requests per client after a simulator workload's units (see
/// [`sim_repeats`]).
const SIM_REPEATS_PER_CLIENT: usize = 48;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = v == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["sweep", "sharded", "service"].contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be sweep, sharded or service, got {:?}",
            a.workload
        ));
    }
    Ok(a)
}

/// Splitmix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_4A11_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Operations attempted and failed, with the first failures kept.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms_list(ds: impl Iterator<Item = Duration>) -> Vec<f64> {
    ds.map(|d| d.as_secs_f64() * 1e3).collect()
}

fn self_vm_hwm_mb() -> f64 {
    service::vm_hwm_mb("self")
}

fn digest_text(jobs: &[JobOut]) -> String {
    jobs.iter()
        .map(|j| match &j.digest {
            Ok((c, m)) => format!("{} cycles={c} messages={m}\n", j.label),
            Err(_) => format!("{} failed\n", j.label),
        })
        .collect()
}

fn events_of(jobs: &[JobOut]) -> u64 {
    jobs.iter()
        .filter_map(|j| j.metrics.as_ref())
        .flat_map(|m| {
            m.counters
                .iter()
                .filter(|c| c.0 == "events/scheduled")
                .map(|c| c.1)
        })
        .sum()
}

/// The `cohesiond` binary built beside this one.
fn cohesiond_bin() -> Result<PathBuf, String> {
    Ok(std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("cohesiond"))
}

/// Repeat requests for a simulator workload's finished jobs, served by a
/// real `cohesiond` as cache hits. The jobs' report documents go into a
/// fresh on-disk run cache through `RunCache::insert`; the daemon loads
/// that cache when it starts. Two closed-loop clients then each send
/// [`SIM_REPEATS_PER_CLIENT`] requests drawn from the jobs, one fresh
/// connection per request. Each must come back marked cached, with the
/// document's exact bytes. Returns the latencies.
fn sim_repeats(
    jobs: &[SimJob],
    out: &[JobOut],
    seed: u64,
    t: &mut Tally,
) -> Result<Vec<Duration>, String> {
    let dir = PathBuf::from(format!("perfbench/out/repeat-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::at_dir(dir.clone(), jobs.len()).map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    for (j, o) in jobs.iter().zip(out) {
        if let Some(m) = &o.metrics {
            let (req, doc) = (j.request(), j.report_doc(m));
            cache.insert(CacheKey::for_request(&req), doc.clone());
            entries.push((req, Some(doc)));
        }
    }
    if entries.is_empty() {
        return Err("no job finished, so there is nothing to repeat".into());
    }
    let daemon = service::Daemon::spawn(&cohesiond_bin()?, Some(&dir))?;
    let mut rng = Rng::new(seed);
    let lists: Vec<Vec<_>> = (0..service::CLIENTS)
        .map(|_| {
            (0..SIM_REPEATS_PER_CLIENT)
                .map(|_| entries[rng.below(entries.len())].clone())
                .collect()
        })
        .collect();
    let (samples, _) = service::round(&daemon.addr, &lists);
    daemon.stop()?;
    let _ = std::fs::remove_dir_all(&dir);
    for s in &samples {
        t.check(s.error.is_none(), || s.error.clone().unwrap_or_default());
    }
    Ok(samples.iter().map(|s| s.latency).collect())
}

/// The simulator workloads. One unit is the workload's fixed job list;
/// units repeat while another fits in `--seconds` (at least one runs).
fn run_sim(a: &Args, rep: &mut Report, t: &mut Tally) -> Result<Shape, String> {
    let (jobs, workers) = match a.workload.as_str() {
        "sweep" => (sim::sweep_jobs(a.seed), sim::SWEEP_WORKERS),
        _ => (sim::sharded_jobs(a.seed), 1),
    };

    // Set-up: generate every job's inputs. Two untimed set-ups must give
    // the same inputs; the timed samples only generate them.
    let inputs: Vec<u64> = jobs.iter().map(SimJob::input_digest).collect();
    t.check(jobs.iter().map(SimJob::input_digest).eq(inputs), || {
        "kernel inputs differ between set-ups of one seed".into()
    });
    let reps_per_sample = if a.workload == "sweep" { 10 } else { 100 };
    let mut setup_times = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        sim::setup_all(&jobs, reps_per_sample);
        setup_times.push(secs(t0.elapsed()) / reps_per_sample as f64);
    }
    rep.put("setup_s", median(&setup_times), "s");

    let started = Instant::now();
    let budget = Duration::from_secs_f64(a.seconds);
    let mut units: Vec<(Vec<JobOut>, Duration)> = Vec::new();
    let (mut walls, mut rates, mut reqs) = (Vec::new(), Vec::new(), Vec::new());
    let mut misses = Vec::new();
    loop {
        let (out, wall) = sim::run_unit(&jobs, workers, false);
        for j in &out {
            t.check(j.digest.is_ok(), || {
                j.digest.clone().err().unwrap_or_default()
            });
            misses.push(j.wall);
        }
        walls.push(secs(wall));
        rates.push(events_of(&out) as f64 / secs(wall));
        reqs.push(jobs.len() as f64 / secs(wall));
        if let Some((first, _)) = units.first() {
            t.check(digest_text(first) == digest_text(&out), || {
                "simulated digests differ between repeats".into()
            });
        }
        units.push((out, wall));
        if a.trace || started.elapsed() + wall > budget {
            break;
        }
    }
    rep.put("wall_s", median(&walls), "s");
    rep.put("sim_events_per_s", median(&rates), "1/s");
    rep.put("peak_rss_mb", self_vm_hwm_mb(), "MB");
    let hits = sim_repeats(&jobs, &units[0].0, a.seed, t)?;
    rep.latency("hit", &ms_list(hits.into_iter()));
    rep.latency("miss", &ms_list(misses.into_iter()));
    rep.put("req_per_s", median(&reqs), "1/s");
    rep.note("units", units.len());

    let shards = jobs[0]
        .config(false)
        .resolve_shards(std::thread::available_parallelism().map_or(1, |n| n.get()));
    rep.note("shards_resolved", shards);
    let mut shape = Shape {
        clusters: jobs[0].cores / 8,
        queue_depth: 0,
        crew_workers: shards,
        doc_bytes: 0,
    };
    if a.trace {
        let untraced = &units[0].0;
        let (traced, traced_wall) = sim::run_unit(&jobs, workers, true);
        for j in &traced {
            t.check(j.digest.is_ok(), || {
                j.digest.clone().err().unwrap_or_default()
            });
        }
        t.check(digest_text(&traced) == digest_text(untraced), || {
            "traced run's simulated digests differ from the untraced run's".into()
        });
        let untraced_run: Duration = untraced.iter().map(|j| j.wall).sum();
        layers::record_sim(&traced, untraced_run, rep);
        if workers > 1 {
            layers::record_pool(&traced, workers, traced_wall, rep);
        }
        rep.put(
            "trace.overhead_frac",
            secs(traced_wall) / secs(units[0].1) - 1.0,
            "ratio",
        );
        shape.queue_depth = rep.get("sim.max_pending").unwrap_or(0.0) as usize;
        shape.doc_bytes = jobs
            .iter()
            .zip(&traced)
            .filter_map(|(j, o)| o.metrics.as_ref().map(|m| j.report_doc(m).len()))
            .max()
            .unwrap_or(0);
    }
    Ok(shape)
}

/// The service workload: set-up spawns `cohesiond`, pings it and warms
/// the hot set (several times; the last daemon serves the timed rounds).
fn run_service(a: &Args, rep: &mut Report, t: &mut Tally) -> Result<Shape, String> {
    let bin = cohesiond_bin()?;
    let hot = service::hot_set(a.seed);
    let mut setup_times = Vec::new();
    let mut first_docs = None;
    let mut daemon = None;
    for _ in 0..SERVICE_SETUP_REPS {
        if let Some(d) = daemon.take() {
            service::Daemon::stop(d)?;
        }
        let t0 = Instant::now();
        let d = service::Daemon::spawn(&bin, None)?;
        d.client()?.ping().map_err(|e| e.to_string())?;
        let docs = service::warm(&d.addr, &hot)?;
        setup_times.push(secs(t0.elapsed()));
        daemon = Some(d);
        match &first_docs {
            None => first_docs = Some(docs),
            Some(f) => t.check(*f == docs, || {
                "warmed reports differ between set-ups of one seed".into()
            }),
        }
    }
    rep.put("setup_s", median(&setup_times), "s");
    let daemon = daemon.expect("at least one set-up");
    let docs = first_docs.expect("at least one set-up");

    let mut rng = Rng::new(a.seed);
    let mut next_miss = 0u64;
    let started = Instant::now();
    let budget = Duration::from_secs_f64(a.seconds);
    let (mut samples, mut rounds) = (Vec::new(), Vec::new());
    let mut rss_mb = None;
    loop {
        let lists = service::round_lists(a.seed, &hot, &docs, &mut next_miss, &mut rng);
        let (s, wall) = service::round(&daemon.addr, &lists);
        samples.extend(s);
        rounds.push(secs(wall));
        if rounds.len() == RSS_ROUNDS {
            rss_mb = Some(service::vm_hwm_mb(&daemon.pid().to_string()));
        }
        if started.elapsed() + wall > budget {
            break;
        }
    }
    let timed = secs(started.elapsed());
    let rss_rounds = rounds.len().min(RSS_ROUNDS);
    let rss_mb = rss_mb.unwrap_or_else(|| service::vm_hwm_mb(&daemon.pid().to_string()));

    let (mut n_hits, mut n_miss) = (0u64, 0u64);
    for s in &samples {
        t.check(s.error.is_none(), || s.error.clone().unwrap_or_default());
        if s.hit {
            n_hits += 1;
        } else {
            n_miss += 1;
        }
    }
    let (hits, misses): (Vec<&service::Sample>, Vec<&service::Sample>) =
        samples.iter().partition(|s| s.hit);
    rep.put("wall_s", median(&rounds), "s");
    let events: u64 = samples
        .iter()
        .filter_map(|s| s.doc.as_deref())
        .map(service::doc_events)
        .sum();
    rep.put("sim_events_per_s", events as f64 / timed, "1/s");
    rep.put("peak_rss_mb", rss_mb, "MB");
    rep.note("peak_rss_after_rounds", rss_rounds);
    rep.latency("hit", &ms_list(hits.iter().map(|s| s.latency)));
    rep.latency("miss", &ms_list(misses.iter().map(|s| s.latency)));
    rep.put("req_per_s", samples.len() as f64 / timed, "1/s");
    rep.note("rounds", rounds.len());

    let stats = service::scrape(&daemon)?;
    let warm = hot.len() as u64;
    t.check(
        stats.cache_hits == n_hits && stats.cache_misses == warm + n_miss,
        || {
            format!(
                "stats scrape hits/misses {}/{} != generator tally {}/{}",
                stats.cache_hits,
                stats.cache_misses,
                n_hits,
                warm + n_miss
            )
        },
    );

    let mut shape = Shape {
        clusters: 2,
        queue_depth: 0,
        crew_workers: 1,
        doc_bytes: docs.values().map(String::len).max().unwrap_or(0),
    };
    if a.trace {
        let stage = |f: fn(&service::Sample) -> Duration, pick: &[&service::Sample]| {
            median(&ms_list(pick.iter().map(|s| f(s))))
        };
        let all: Vec<&service::Sample> = samples.iter().collect();
        rep.put("svc.connect_ms", stage(|s| s.connect, &all), "ms");
        rep.put("svc.admit_ms", stage(|s| s.admit, &all), "ms");
        rep.put("svc.miss_run_ms", stage(|s| s.run, &misses), "ms");
        rep.put("svc.cache_hits", stats.cache_hits as f64, "count");
        rep.put("svc.cache_misses", stats.cache_misses as f64, "count");
        rep.put("svc.jobs_executed", stats.jobs_executed as f64, "count");

        // The layers below the daemon: replay the window's first misses
        // in process, untraced then traced. The daemon is never traced,
        // so this replay is the run's only traced work.
        let replay: Vec<SimJob> = misses
            .iter()
            .take(REPLAYED_MISSES)
            .map(|s| SimJob {
                kernel: cohesion_kernels::KERNEL_NAMES
                    .iter()
                    .find(|k| **k == s.request.kernel)
                    .copied()
                    .expect("requests name known kernels"),
                point: s.request.design_point().expect("requests are validated"),
                cores: s.request.cores,
                scale: s.request.scale,
                shards: 1,
                seed: s.request.seed,
            })
            .collect();
        // A discarded first pass warms the host caches for both timed ones.
        sim::run_unit(&replay, 1, false);
        let (plain, plain_wall) = sim::run_unit(&replay, 1, false);
        let (traced_jobs, traced_wall) = sim::run_unit(&replay, 1, true);
        for j in &traced_jobs {
            t.check(j.digest.is_ok(), || {
                j.digest.clone().err().unwrap_or_default()
            });
        }
        t.check(digest_text(&plain) == digest_text(&traced_jobs), || {
            "replayed misses: traced digests differ from untraced".into()
        });
        layers::record_sim(&traced_jobs, plain.iter().map(|j| j.wall).sum(), rep);
        rep.put(
            "trace.overhead_frac",
            secs(traced_wall) / secs(plain_wall) - 1.0,
            "ratio",
        );
        rep.note("replayed_misses", replay.len());
        shape.queue_depth = rep.get("sim.max_pending").unwrap_or(0.0) as usize;
    }
    daemon.stop()?;
    Ok(shape)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rep = Report::default();
    let mut t = Tally::default();
    let run = match a.workload.as_str() {
        "service" => run_service(&a, &mut rep, &mut t),
        _ => run_sim(&a, &mut rep, &mut t),
    };
    let shape = match run {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {} workload failed: {e}", a.workload);
            return ExitCode::FAILURE;
        }
    };
    if a.trace {
        probes::run_all(&shape, &mut rep);
        layers::fill_missing(&mut rep);
    }

    let failed = t.failures.len();
    let correct = failed == 0;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let keep: Vec<&str> = if a.trace {
        layers::PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    let failures: Vec<String> = t
        .failures
        .iter()
        .take(20)
        .map(|f| format!("\"{}\"", stats::esc(f)))
        .collect();
    println!(
        "PERFBENCH_RESULT {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"nproc\": {nproc}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \
         \"failures\": [{}], \"metrics\": {}, \"notes\": {}}}",
        a.workload,
        a.seed,
        u8::from(a.trace),
        a.seconds,
        t.attempted,
        failures.join(", "),
        rep.metrics_json(None),
        rep.notes_json()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        t.attempted,
        rep.metrics_json(Some(&keep))
    );
    ExitCode::SUCCESS
}
