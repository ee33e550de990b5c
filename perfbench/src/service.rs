//! The `service` workload: the real `cohesiond` as a child process,
//! driven by a closed loop of two clients that each open a fresh
//! connection per request, as the `cohesion` CLI does.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cohesion_bench::jsonv::{self, Value};
use cohesion_kernels::{Scale, KERNEL_NAMES};
use cohesion_service::client::{Client, Event, StatsInfo};
use cohesion_service::request::RunRequest;

use crate::Rng;

/// Requests of the warmed hot set.
pub const HOT_KEYS: usize = 16;
/// Per client and round: hits then misses, shuffled (3/4 hits).
pub const HITS_PER_ROUND: usize = 12;
pub const MISSES_PER_ROUND: usize = 4;
pub const CLIENTS: usize = 2;
const POINTS: [&str; 6] = [
    "cohesion",
    "cohesion-dir4b",
    "swcc",
    "hwcc-ideal",
    "hwcc-real",
    "hwcc-dir4b",
];
const TIMEOUT: Duration = Duration::from_secs(60);

pub fn request(kernel: &str, point: &str, seed: u64) -> RunRequest {
    RunRequest {
        kernel: kernel.to_string(),
        scale: Scale::Tiny,
        cores: 16,
        point: point.to_string(),
        seed,
        shards: 1,
    }
    .validate()
    .expect("benchmark requests are valid")
}

/// The hot set for `seed`: distinct kernel × point pairs on the
/// workload's inputs.
pub fn hot_set(seed: u64) -> Vec<RunRequest> {
    (0..HOT_KEYS)
        .map(|i| {
            request(
                KERNEL_NAMES[i % 8],
                POINTS[(i + i / 8) % POINTS.len()],
                seed,
            )
        })
        .collect()
}

/// The `n`th miss: a request no earlier request of the run has made (a
/// unique input seed, never the hot set's). Misses walk every kernel ×
/// point pair in turn, so each run's miss mix is the same whatever the
/// seed.
pub fn unique_miss(seed: u64, n: u64) -> RunRequest {
    let miss_seed = seed.wrapping_mul(1_000_003).wrapping_add(1 + n);
    let kernel = KERNEL_NAMES[(n % 8) as usize];
    let point = POINTS[(n / 8 % POINTS.len() as u64) as usize];
    request(kernel, point, miss_seed)
}

/// A running daemon and the thread draining its log.
pub struct Daemon {
    child: Child,
    pub addr: String,
    log: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `cohesiond` with an in-memory cache, or with the on-disk
    /// cache at `cache_dir` (loaded when the daemon starts).
    pub fn spawn(bin: &Path, cache_dir: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", "2"]);
        if let Some(dir) = cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drain the per-connection log so the daemon never blocks on it.
        let log = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if line.contains("event=listening") {
                    if let Some(tx) = tx.take() {
                        let addr = line
                            .split_whitespace()
                            .find_map(|f| f.strip_prefix("addr="))
                            .unwrap_or_default()
                            .to_string();
                        let _ = tx.send(addr);
                    }
                }
            }
        });
        let mut d = Daemon {
            child,
            addr: String::new(),
            log: Some(log),
        };
        match rx.recv_timeout(TIMEOUT) {
            Ok(addr) if !addr.is_empty() => {
                d.addr = addr;
                Ok(d)
            }
            _ => {
                d.kill();
                Err("cohesiond did not report its address".into())
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn client(&self) -> Result<Client, String> {
        let mut c = Client::connect(&self.addr, TIMEOUT).map_err(|e| e.to_string())?;
        c.set_reply_timeout(TIMEOUT).map_err(|e| e.to_string())?;
        Ok(c)
    }

    /// Asks the daemon to drain and waits for it; kills it if it does not
    /// exit in time.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self
            .client()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let deadline = Instant::now() + TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    self.kill();
                    return Err("cohesiond did not exit after shutdown".into());
                }
            }
        }
        if let Some(h) = self.log.take() {
            let _ = h.join();
        }
        asked
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.log.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.log.is_some() {
            self.kill();
        }
    }
}

/// One request's outcome as the generator saw it.
pub struct Sample {
    pub hit: bool,
    pub latency: Duration,
    /// Connect + hello.
    pub connect: Duration,
    /// Submit → `Accepted`.
    pub admit: Duration,
    /// `Accepted` → done.
    pub run: Duration,
    /// The failure, if any (error reply, timeout, wrong bytes, wrong
    /// cache verdict).
    pub error: Option<String>,
    /// The report document of a miss.
    pub doc: Option<String>,
    pub request: RunRequest,
}

/// Sends `req` on a fresh connection, timing each stage. `expect` is the
/// warmed document for a hit, `None` for a miss.
pub fn submit(addr: &str, req: &RunRequest, expect: Option<&str>) -> Sample {
    let t0 = Instant::now();
    let mut s = Sample {
        hit: expect.is_some(),
        latency: Duration::ZERO,
        connect: Duration::ZERO,
        admit: Duration::ZERO,
        run: Duration::ZERO,
        error: None,
        doc: None,
        request: req.clone(),
    };
    let outcome = Client::connect(addr, TIMEOUT).and_then(|mut c| {
        c.set_reply_timeout(TIMEOUT)?;
        s.connect = t0.elapsed();
        let mut accepted = None;
        let r = c.submit_run(req, |ev| {
            if matches!(ev, Event::Accepted { .. }) && accepted.is_none() {
                accepted = Some(Instant::now());
            }
        });
        let done = Instant::now();
        let acc = accepted.unwrap_or(done);
        s.admit = acc.duration_since(t0) - s.connect;
        s.run = done.duration_since(acc);
        r
    });
    s.latency = t0.elapsed();
    match outcome {
        Err(e) => s.error = Some(format!("{}: {e}", req.canonical())),
        Ok(o) => {
            let report = o.reports.first();
            s.error = match (report, expect) {
                _ if o.failed > 0 || o.reports.len() != 1 => {
                    Some(format!("{}: job failed", req.canonical()))
                }
                (Some(r), Some(doc)) if !r.cached || r.doc != doc => Some(format!(
                    "{}: hit not served from cache with the warmed bytes",
                    req.canonical()
                )),
                (Some(r), None) if r.cached => Some(format!(
                    "{}: unique request served from cache",
                    req.canonical()
                )),
                _ => None,
            };
            if expect.is_none() {
                s.doc = report.map(|r| r.doc.clone());
            }
        }
    }
    s
}

/// Warms the hot set on a fresh daemon, two requests in flight at a
/// time; returns each key's document.
pub fn warm(addr: &str, hot: &[RunRequest]) -> Result<HashMap<String, String>, String> {
    let results: Vec<Sample> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                sc.spawn(move || {
                    hot.iter()
                        .skip(c)
                        .step_by(CLIENTS)
                        .map(|r| submit(addr, r, None))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up client"))
            .collect()
    });
    let mut docs = HashMap::new();
    for s in results {
        if let Some(e) = s.error {
            return Err(format!("warm-up: {e}"));
        }
        docs.insert(
            s.request.canonical(),
            s.doc.expect("a miss carries its document"),
        );
    }
    Ok(docs)
}

/// One round: each client sends its shuffled list of hits and unique
/// misses, one request after the previous reply.
pub fn round(addr: &str, lists: &[Vec<(RunRequest, Option<String>)>]) -> (Vec<Sample>, Duration) {
    let t = Instant::now();
    let samples = std::thread::scope(|sc| {
        let handles: Vec<_> = lists
            .iter()
            .map(|list| {
                sc.spawn(move || {
                    list.iter()
                        .map(|(r, doc)| submit(addr, r, doc.as_deref()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    (samples, t.elapsed())
}

/// Builds one round's request lists: per client, hits drawn from the hot
/// set with a 1/rank popularity skew, plus unique misses, shuffled.
pub fn round_lists(
    seed: u64,
    hot: &[RunRequest],
    docs: &HashMap<String, String>,
    next_miss: &mut u64,
    rng: &mut Rng,
) -> Vec<Vec<(RunRequest, Option<String>)>> {
    let weights: Vec<f64> = (0..hot.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    (0..CLIENTS)
        .map(|_| {
            let mut list = Vec::new();
            for _ in 0..HITS_PER_ROUND {
                let mut x = rng.unit() * total;
                let mut k = 0;
                while k + 1 < hot.len() && x >= weights[k] {
                    x -= weights[k];
                    k += 1;
                }
                let r = &hot[k];
                list.push((r.clone(), Some(docs[&r.canonical()].clone())));
            }
            for _ in 0..MISSES_PER_ROUND {
                list.push((unique_miss(seed, *next_miss), None));
                *next_miss += 1;
            }
            rng.shuffle(&mut list);
            list
        })
        .collect()
}

/// `events/scheduled` from a `cohesion-metrics/v1` document.
pub fn doc_events(doc: &str) -> u64 {
    fn find(v: &Value) -> Option<u64> {
        if let Some(n) = v
            .get("counters")
            .and_then(|c| c.get("events/scheduled"))
            .and_then(Value::as_u64)
        {
            return Some(n);
        }
        match v {
            Value::Arr(xs) => xs.iter().find_map(find),
            Value::Obj(kv) => kv.iter().find_map(|(_, x)| find(x)),
            _ => None,
        }
    }
    jsonv::parse(doc).ok().as_ref().and_then(find).unwrap_or(0)
}

/// VmHWM of process `pid`, in MB.
pub fn vm_hwm_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fetches the daemon's `stats` scrape.
pub fn scrape(d: &Daemon) -> Result<StatsInfo, String> {
    d.client()?.stats().map_err(|e| e.to_string())
}
