#!/usr/bin/env python3
"""Build and run the Cohesion benchmark, or compare two result sets.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload sweep|sharded|service \
        --seed N --seconds S --trace 0|1 [--out FILE]

builds `perfbench` and `cohesiond` from source (release, offline, into
$CARGO_TARGET_DIR or .bench_build), runs the workload, appends the full
result with its provenance to FILE (default perfbench/out/results.jsonl)
and prints, last, one JSON line {"correct", "attempted", "failed",
"metrics"}.

Compare two result sets (JSONL files written as above):

    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

prints, per workload and metric, each side's median and quartiles, the
ratio to the base median and a verdict (better / worse / unchanged /
unresolved) under the bounds in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_OUT = BENCH_DIR / "out" / "results.jsonl"
RUN_TIMEOUT_S = 170
# Seed 0 gives the paper's inputs and is the development seed; the
# held-out seed is kept back to confirm a claimed gain (see README.md).
DEV_SEED = 0
HELD_OUT_SEED = 7919


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
           str(BENCH_DIR / "Cargo.toml"), "-p", "perfbench", "-p", "cohesion-service",
           "--bin", "perfbench", "--bin", "cohesiond"]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        log("build failed")
        sys.exit(1)
    return target_dir() / "release" / "perfbench"


def capture(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH_DIR / "Cargo.toml"]
    for top in (ROOT / "crates", BENCH_DIR / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file() and p.suffix in (".rs", ".toml"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def last_overhead(out_file, workload):
    """trace.overhead_frac of the newest traced result for `workload`."""
    found = None
    if out_file.is_file():
        for line in out_file.read_text().splitlines():
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if rec.get("workload") == workload and rec.get("trace") == 1:
                m = rec.get("metrics", {}).get("trace.overhead_frac")
                if m:
                    found = m["value"]
    return found


def run(args):
    binary = build()
    out_file = Path(args.out) if args.out else DEFAULT_OUT
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        sys.exit(1)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("PERFBENCH_RESULT "):
        log(f"run failed (exit {r.returncode})")
        sys.exit(1)
    result = json.loads(lines[-2][len("PERFBENCH_RESULT "):])
    final = json.loads(lines[-1])

    notes = result.get("notes", {})
    overhead = result["metrics"].get("trace.overhead_frac", {}).get("value")
    if overhead is None:
        overhead = last_overhead(out_file, args.workload)
    result["provenance"] = {
        "nproc": os.cpu_count(),
        "shards_resolved": int(notes["shards_resolved"]) if "shards_resolved" in notes else 1,
        "rustc": capture(["rustc", "--version"]) or "unknown",
        "git_commit": capture(["git", "rev-parse", "HEAD"]) or "unknown",
        "source_digest": source_digest(),
        "trace.overhead_frac": overhead,
        "seed": args.seed,
        "dev_seed": DEV_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }
    out_file.parent.mkdir(parents=True, exist_ok=True)
    with out_file.open("a") as f:
        f.write(json.dumps(result, sort_keys=True) + "\n")

    for name, m in result["metrics"].items():
        if name in final["metrics"]:
            print(f"{args.workload:8} {name:32} {m['value']:>16.6g} {m['unit']}")
    for f in result.get("failures", []):
        print(f"FAILED: {f}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    print(json.dumps(final))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(base, new, better, bound):
    """The guide's rule: a gain needs 9/10 of pairs won and a median move
    larger than the base's own quartile spread; a loss is a median worse
    by more than the bound; a spread wider than the bound is unresolved
    unless every new run beats every base run."""
    q1b, mb, q3b = quartiles(base)
    q1n, mn, q3n = quartiles(new)
    sign = -1 if better == "lower" else 1
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    all_better = max(new) < min(base) if better == "lower" else min(new) > max(base)
    if bound is None:
        return "-"
    spread = max((q3b - q1b) / abs(mb) if mb else 0, (q3n - q1n) / abs(mn) if mn else 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(mn - mb) > (q3b - q1b):
        return "better"
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (mn - mb) < -bound * abs(mb):
        return "worse"
    return "unchanged"


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        for name, m in rec.get("metrics", {}).items():
            runs.setdefault((rec["workload"], rec["trace"], name), []).append(m["value"])
    return runs


def compare(base_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    base, new = load(base_path), load(new_path)
    header = f"{'workload':8} {'metric':30} {'base q1/med/q3':>32} {'new q1/med/q3':>32} {'ratio':>7}  verdict"
    print(header)
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, table in ((0, e2e), (1, layers)):
            for name, m in table.items():
                b, n = base.get((w, trace, name)), new.get((w, trace, name))
                if not b or not n:
                    continue
                q1b, mb, q3b = quartiles(b)
                q1n, mn, q3n = quartiles(n)
                ratio = mn / mb if mb else float("nan")
                v = verdict(b, n, m["better"], m.get("bound")) if trace == 0 else "-"
                print(f"{w:8} {name:30} {q1b:10.4g} {mb:10.4g} {q3b:10.4g} {q1n:10.4g} {mn:10.4g} {q3n:10.4g} "
                      f"{ratio:7.3f}  {v}  (n={len(b)}/{len(n)}, base {mb:.4g} {m['unit']})")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            log("usage: run.py compare BASE.jsonl NEW.jsonl")
            sys.exit(2)
        compare(sys.argv[2], sys.argv[3])
        return
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["sweep", "sharded", "service"])
    p.add_argument("--seed", type=int, default=DEV_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="result file to append to (JSONL)")
    run(p.parse_args())


if __name__ == "__main__":
    main()
