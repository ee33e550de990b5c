//! Generates the golden-statistics table for tests/golden_stats.rs
//! (development tool; run after intentional protocol changes and paste the
//! output into the test).
//!
//! The golden configuration is pinned (16 cores, tiny scale, timeline
//! armed for the phase-A ledger) — only the worker count is configurable
//! (`COHESION_JOBS`); lines are printed in deterministic input order, so
//! the pasted table never depends on how many workers ran the sweep.
//!
//! Each row is `(kernel, mode, cycles, messages, fast_slices, l3_fast,
//! escalated)`, where `escalated` lists the per-cause escalation counts
//! in `EscalationCause::index` order (l3-local, l3-remote, directory,
//! noc, atomic, task-queue).

use cohesion::config::{DesignPoint, MachineConfig};
use cohesion::run::run_workload;
use cohesion_bench::harness::{run_jobs, Job};
use cohesion_kernels::{kernel_by_name, Scale, KERNEL_NAMES};
use cohesion_testkit::pool;

fn main() {
    let points = [
        ("SWcc", DesignPoint::swcc()),
        ("HWccIdeal", DesignPoint::hwcc_ideal()),
        ("Cohesion", DesignPoint::cohesion(1024, 128)),
    ];
    let jobs: Vec<Job<(&str, &str, DesignPoint)>> = KERNEL_NAMES
        .iter()
        .flat_map(|&kernel| {
            points
                .iter()
                .map(move |&(mode, dp)| Job::new(format!("{kernel} @ {mode}"), (kernel, mode, dp)))
        })
        .collect();
    let lines = run_jobs(pool::default_jobs(), jobs, |(kernel, mode, dp)| {
        let mut cfg = MachineConfig::scaled(16, dp);
        cfg.timeline = true;
        let mut wl = kernel_by_name(kernel, Scale::Tiny);
        let r = run_workload(&cfg, wl.as_mut()).expect("verifies");
        let tl = r.timeline.as_ref().expect("timeline armed");
        format!(
            "    (\"{kernel}\", \"{mode}\", {}, {}, {}, {}, {:?}),",
            r.cycles,
            r.total_messages(),
            tl.fast_slices,
            tl.l3_fast,
            tl.escalated
        )
    });
    for line in lines {
        println!("{line}");
    }
}
