//! Per-layer metrics of the traced run, and the fixed list of names every
//! traced run reports (a layer a workload does not use reports 0, noted
//! as `n/a`).

use std::time::Duration;

use cohesion_sim::timeline::EscalationCause;

use crate::sim::JobOut;
use crate::stats::{tail, Report};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.setup_ms", "ms"),
    ("kernels.next_phase_ms", "ms"),
    ("kernels.verify_ms", "ms"),
    ("core.run_self_ms", "ms"),
    ("core.ns_per_event", "ns"),
    ("core.events", "count"),
    ("core.sim_cycles", "cycles"),
    ("core.sim_messages", "count"),
    ("core.slices", "count"),
    ("core.epochs", "count"),
    ("core.l3_fast", "count"),
    ("core.escalation_rate", "ratio"),
    ("core.esc.l3-local", "count"),
    ("core.esc.l3-remote", "count"),
    ("core.esc.directory", "count"),
    ("core.esc.noc", "count"),
    ("core.esc.atomic", "count"),
    ("core.esc.task-queue", "count"),
    ("core.lat.load_p50_cyc", "cycles"),
    ("core.lat.store_p50_cyc", "cycles"),
    ("core.lat.fetch_p50_cyc", "cycles"),
    ("core.lat.atomic_p50_cyc", "cycles"),
    ("core.phase_a_ms", "ms"),
    ("core.phase_b_ms", "ms"),
    ("core.l3_service_ms", "ms"),
    ("core.dram_service_ms", "ms"),
    ("sim.crew_park_ms", "ms"),
    ("sim.crew_run_ms", "ms"),
    ("sim.max_pending", "count"),
    ("sim.event_queue_ns", "ns"),
    ("sim.pop_window_ns", "ns"),
    ("sim.crew_dispatch_us", "us"),
    ("mem.dram_accesses", "count"),
    ("mem.dram_row_hit_rate", "ratio"),
    ("mem.l2_hit_ns", "ns"),
    ("mem.l2_miss_evict_ns", "ns"),
    ("mem.dram_access_ns", "ns"),
    ("protocol.dir_lookup_hit_rate", "ratio"),
    ("protocol.table_cache_hit_rate", "ratio"),
    ("protocol.swcc_wb_useful_frac", "ratio"),
    ("protocol.swcc_inv_useful_frac", "ratio"),
    ("protocol.dir_lookup_ns", "ns"),
    ("protocol.dir_insert_evict_ns", "ns"),
    ("protocol.fine_domain_at_ns", "ns"),
    ("bench.pool_busy_frac", "ratio"),
    ("bench.job_tail_s", "s"),
    ("svc.connect_ms", "ms"),
    ("svc.admit_ms", "ms"),
    ("svc.miss_run_ms", "ms"),
    ("svc.cache_hits", "count"),
    ("svc.cache_misses", "count"),
    ("svc.jobs_executed", "count"),
    ("svc.cache_key_ns", "ns"),
    ("svc.cache_get_ns", "ns"),
    ("svc.frame_roundtrip_us", "us"),
    ("svc.request_parse_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("timeline.dropped_spans", "count"),
];

/// Span-derived metrics: partial whenever the span rings dropped spans.
const SPAN_DERIVED: &[&str] = &[
    "core.phase_a_ms",
    "core.phase_b_ms",
    "core.l3_service_ms",
    "core.dram_service_ms",
    "sim.crew_park_ms",
    "sim.crew_run_ms",
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Count-weighted median of per-job histogram medians.
fn weighted_p50(samples: &mut [(f64, u64)]) -> f64 {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = samples.iter().map(|s| s.1).sum();
    let mut seen = 0;
    for (p50, n) in samples.iter() {
        seen += n;
        if 2 * seen >= total {
            return *p50;
        }
    }
    0.0
}

/// Records the kernels, core, sim, mem and protocol metrics of a traced
/// set of simulations. `untraced_run` is the host time the same jobs took
/// in run_workload with the timeline off, which `core.ns_per_event` uses
/// so the recorder's own cost does not count against the engine.
pub fn record_sim(jobs: &[JobOut], untraced_run: Duration, out: &mut Report) {
    let (mut setup, mut next, mut verify, mut run) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    for j in jobs {
        setup += j.kernel_setup;
        next += j.kernel_next_phase;
        verify += j.kernel_verify;
        run += j.wall;
    }
    out.put("kernels.setup_ms", ms(setup), "ms");
    out.put("kernels.next_phase_ms", ms(next), "ms");
    out.put("kernels.verify_ms", ms(verify), "ms");
    out.put(
        "core.run_self_ms",
        ms(run.saturating_sub(setup + next + verify)),
        "ms",
    );

    let counter = |name: &str| -> u64 {
        jobs.iter()
            .filter_map(|j| j.metrics.as_ref())
            .flat_map(|m| m.counters.iter().filter(|c| c.0 == name).map(|c| c.1))
            .sum()
    };
    let events = counter("events/scheduled");
    out.put("core.events", events as f64, "count");
    let untraced_kernel = untraced_run.saturating_sub(setup + next + verify);
    out.put(
        "core.ns_per_event",
        ratio(untraced_kernel.as_nanos() as u64, events),
        "ns",
    );
    let digests: Vec<(u64, u64)> = jobs
        .iter()
        .filter_map(|j| j.digest.as_ref().ok().copied())
        .collect();
    out.put(
        "core.sim_cycles",
        digests.iter().map(|d| d.0).sum::<u64>() as f64,
        "cycles",
    );
    out.put(
        "core.sim_messages",
        digests.iter().map(|d| d.1).sum::<u64>() as f64,
        "count",
    );

    let tls: Vec<_> = jobs.iter().filter_map(|j| j.timeline.as_ref()).collect();
    let slices: u64 = tls.iter().map(|t| t.slices()).sum();
    let escalated: u64 = tls.iter().map(|t| t.escalated_total()).sum();
    out.put("core.slices", slices as f64, "count");
    out.put(
        "core.epochs",
        tls.iter().map(|t| t.epochs).sum::<u64>() as f64,
        "count",
    );
    out.put(
        "core.l3_fast",
        tls.iter().map(|t| t.l3_fast).sum::<u64>() as f64,
        "count",
    );
    out.put("core.escalation_rate", ratio(escalated, slices), "ratio");
    for c in EscalationCause::ALL {
        let n: u64 = tls.iter().map(|t| t.escalated[c.index()]).sum();
        out.put(format!("core.esc.{}", c.label()), n as f64, "count");
    }

    for (op, hist) in [
        ("load", "latency/load"),
        ("store", "latency/store"),
        ("fetch", "latency/fetch"),
        ("atomic", "latency/atomic"),
    ] {
        let mut samples: Vec<(f64, u64)> = jobs
            .iter()
            .filter_map(|j| j.metrics.as_ref())
            .flat_map(|m| {
                m.histograms
                    .iter()
                    .filter(|h| h.0 == hist)
                    .map(|h| (h.1.p50, h.1.count))
            })
            .filter(|s| s.1 > 0)
            .collect();
        out.put(
            format!("core.lat.{op}_p50_cyc"),
            weighted_p50(&mut samples),
            "cycles",
        );
    }

    let span_ms = |name: &str| -> f64 {
        tls.iter()
            .flat_map(|t| t.spans.iter().chain(t.crew_spans.iter()))
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64 / 1e3)
            .sum()
    };
    out.put("core.phase_a_ms", span_ms("phase_a"), "ms");
    out.put("core.phase_b_ms", span_ms("phase_b"), "ms");
    out.put("core.l3_service_ms", span_ms("l3_service"), "ms");
    out.put("core.dram_service_ms", span_ms("dram_service"), "ms");
    out.put("sim.crew_park_ms", span_ms("crew_park"), "ms");
    out.put("sim.crew_run_ms", span_ms("crew_run"), "ms");
    let max_pending = jobs
        .iter()
        .filter_map(|j| j.metrics.as_ref())
        .flat_map(|m| {
            m.counters
                .iter()
                .filter(|c| c.0 == "events/max_pending")
                .map(|c| c.1)
        })
        .max()
        .unwrap_or(0);
    out.put("sim.max_pending", max_pending as f64, "count");
    let dropped: u64 = tls.iter().map(|t| t.dropped + t.crew_dropped).sum();
    out.put("timeline.dropped_spans", dropped as f64, "count");
    if dropped > 0 {
        out.note("partial", SPAN_DERIVED.join(","));
    }

    out.put(
        "mem.dram_accesses",
        counter("dram/accesses") as f64,
        "count",
    );
    out.put(
        "mem.dram_row_hit_rate",
        ratio(counter("dram/row_hits"), counter("dram/accesses")),
        "ratio",
    );
    let hits = counter("directory/lookup_hits");
    out.put(
        "protocol.dir_lookup_hit_rate",
        ratio(hits, hits + counter("directory/lookup_misses")),
        "ratio",
    );
    let hits = counter("table_cache/hits");
    out.put(
        "protocol.table_cache_hit_rate",
        ratio(hits, hits + counter("table_cache/misses")),
        "ratio",
    );
    out.put(
        "protocol.swcc_wb_useful_frac",
        ratio(
            counter("swcc/writebacks_useful"),
            counter("swcc/writebacks_issued"),
        ),
        "ratio",
    );
    out.put(
        "protocol.swcc_inv_useful_frac",
        ratio(
            counter("swcc/invalidations_useful"),
            counter("swcc/invalidations_issued"),
        ),
        "ratio",
    );
}

/// Records the `run_jobs` pool's busy share and its slowest jobs.
pub fn record_pool(jobs: &[JobOut], workers: usize, wall: Duration, out: &mut Report) {
    let busy: f64 = jobs.iter().map(|j| j.wall.as_secs_f64()).sum();
    out.put(
        "bench.pool_busy_frac",
        busy / (workers as f64 * wall.as_secs_f64()),
        "ratio",
    );
    let secs: Vec<f64> = jobs.iter().map(|j| j.wall.as_secs_f64()).collect();
    let (t, pct) = tail(&secs);
    out.put("bench.job_tail_s", t, "s");
    out.note("bench.job_tail_percentile", format!("{pct:.1}"));
}

/// Fills every per-layer metric the workload did not report with 0 and
/// notes it as not applicable.
pub fn fill_missing(out: &mut Report) {
    let mut na = Vec::new();
    for (name, unit) in PER_LAYER {
        if out.get(name).is_none() {
            out.put(*name, 0.0, unit);
            na.push(*name);
        }
    }
    if !na.is_empty() {
        out.note("n/a", na.join(","));
    }
}
