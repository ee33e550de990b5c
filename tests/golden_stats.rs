//! Golden-statistics regression tests: the simulator is bit-deterministic,
//! so these exact cycle and message counts (tiny scale, 16 cores), plus
//! the sharded executor's phase-A ledger, are locked in. A diff here
//! means the protocol, the timing model, or the lane admission checks
//! changed —
//! fail loudly so the change is either intentional (regenerate with
//! `cargo run --release -p cohesion-bench --bin golden_gen`) or a bug.

use cohesion::config::{DesignPoint, MachineConfig};
use cohesion::run::run_workload;
use cohesion_kernels::{kernel_by_name, Scale};
use cohesion_sim::timeline::{EscalationCause, CAUSES};

/// `(kernel, mode, cycles, total L2→L3 messages, fast_slices, l3_fast,
/// escalated)` at Tiny scale, 16 cores, timeline armed. The last three
/// columns are the phase-A ledger: slices that completed in phase A,
/// line fetches serviced there on a lane-owned L3 bank, and escalations
/// per cause in `EscalationCause::index` order (l3-local, l3-remote,
/// directory, noc, atomic, task-queue). A change to the lane admission
/// checks fails here on a named counter, not only on a cycle delta.
type Row = (&'static str, &'static str, u64, u64, u64, u64, [u64; CAUSES]);

const GOLDEN: &[Row] = &[
    ("cg", "SWcc", 12214, 410, 176, 30, [26, 66, 0, 8, 0, 100]),
    ("cg", "HWccIdeal", 9424, 312, 133, 27, [37, 9, 17, 0, 0, 108]),
    ("cg", "Cohesion", 12426, 418, 177, 35, [24, 68, 1, 7, 0, 100]),
    ("dmm", "SWcc", 5945, 156, 147, 0, [73, 65, 0, 4, 0, 16]),
    ("dmm", "HWccIdeal", 6034, 180, 131, 0, [68, 49, 30, 0, 0, 18]),
    ("dmm", "Cohesion", 6026, 156, 153, 0, [65, 62, 0, 4, 0, 16]),
    ("gjk", "SWcc", 4674, 321, 408, 51, [113, 136, 0, 48, 0, 16]),
    ("gjk", "HWccIdeal", 4580, 360, 383, 14, [101, 129, 39, 0, 0, 38]),
    ("gjk", "Cohesion", 4350, 262, 384, 17, [109, 130, 23, 0, 0, 41]),
    ("heat", "SWcc", 5450, 216, 155, 0, [56, 30, 0, 10, 0, 34]),
    ("heat", "HWccIdeal", 4827, 208, 116, 16, [34, 15, 56, 0, 0, 40]),
    ("heat", "Cohesion", 5425, 216, 152, 0, [58, 30, 0, 10, 0, 34]),
    ("kmeans", "SWcc", 8784, 988, 231, 18, [76, 8, 0, 0, 432, 80]),
    ("kmeans", "HWccIdeal", 8641, 1020, 202, 20, [53, 4, 8, 0, 432, 76]),
    ("kmeans", "Cohesion", 6082, 300, 351, 20, [88, 32, 24, 0, 0, 96]),
    ("mri", "SWcc", 8285, 96, 706, 0, [69, 45, 0, 10, 0, 16]),
    ("mri", "HWccIdeal", 8332, 144, 707, 0, [60, 40, 13, 0, 0, 24]),
    ("mri", "Cohesion", 8285, 96, 706, 0, [69, 45, 0, 10, 0, 16]),
    ("sobel", "SWcc", 3125, 112, 88, 0, [36, 16, 0, 4, 0, 16]),
    ("sobel", "HWccIdeal", 3116, 136, 56, 0, [31, 13, 39, 0, 0, 20]),
    ("sobel", "Cohesion", 3137, 112, 88, 0, [36, 16, 0, 4, 0, 16]),
    ("stencil", "SWcc", 6864, 356, 455, 0, [110, 75, 0, 14, 0, 36]),
    ("stencil", "HWccIdeal", 6296, 340, 376, 32, [78, 42, 104, 0, 0, 48]),
    ("stencil", "Cohesion", 6275, 292, 377, 32, [86, 39, 96, 0, 0, 48]),
];

fn design_point(mode: &str) -> DesignPoint {
    match mode {
        "SWcc" => DesignPoint::swcc(),
        "HWccIdeal" => DesignPoint::hwcc_ideal(),
        "Cohesion" => DesignPoint::cohesion(1024, 128),
        other => panic!("unknown mode {other}"),
    }
}

#[test]
fn golden_statistics_are_stable() {
    let mut failures = Vec::new();
    for &(kernel, mode, cycles, messages, fast, l3_fast, escalated) in GOLDEN {
        let mut cfg = MachineConfig::scaled(16, design_point(mode));
        // Arming the timeline never perturbs simulated results (pinned by
        // tests/timeline_contract.rs); it supplies the phase-A ledger.
        cfg.timeline = true;
        let mut wl = kernel_by_name(kernel, Scale::Tiny);
        let r = run_workload(&cfg, wl.as_mut())
            .unwrap_or_else(|e| panic!("{kernel}/{mode}: {e}"));
        let tl = r.timeline.as_ref().expect("timeline armed");
        let mut drift = Vec::new();
        if r.cycles != cycles {
            drift.push(format!("cycles {cycles} -> {}", r.cycles));
        }
        if r.total_messages() != messages {
            drift.push(format!("messages {messages} -> {}", r.total_messages()));
        }
        if tl.fast_slices != fast {
            drift.push(format!("fast_slices {fast} -> {}", tl.fast_slices));
        }
        if tl.l3_fast != l3_fast {
            drift.push(format!("l3_fast {l3_fast} -> {}", tl.l3_fast));
        }
        for i in 0..CAUSES {
            if tl.escalated[i] != escalated[i] {
                drift.push(format!(
                    "escalated[{}] {} -> {}",
                    EscalationCause::from_index(i).label(),
                    escalated[i],
                    tl.escalated[i]
                ));
            }
        }
        if !drift.is_empty() {
            failures.push(format!(
                "    (\"{kernel}\", \"{mode}\", {}, {}, {}, {}, {:?}), // {}",
                r.cycles,
                r.total_messages(),
                tl.fast_slices,
                tl.l3_fast,
                tl.escalated,
                drift.join(", ")
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden statistics drifted — if intentional, update tests/golden_stats.rs:\n{}",
        failures.join("\n")
    );
}

/// The golden table itself must encode the qualitative claims.
#[test]
fn golden_table_encodes_the_paper_claims() {
    let get = |kernel: &str, mode: &str| {
        GOLDEN
            .iter()
            .find(|row| row.0 == kernel && row.1 == mode)
            .map(|row| (row.2, row.3))
            .expect("present")
    };
    // kmeans: Cohesion far cheaper than SWcc in both time and messages.
    assert!(get("kmeans", "Cohesion").0 < get("kmeans", "SWcc").0);
    assert!(get("kmeans", "Cohesion").1 < get("kmeans", "SWcc").1 / 2);
    // Cohesion tracks SWcc's message counts on the partitioned kernels.
    for k in ["dmm", "heat", "sobel", "mri"] {
        assert_eq!(get(k, "Cohesion").1, get(k, "SWcc").1, "{k}");
    }
}
