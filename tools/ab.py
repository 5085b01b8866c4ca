#!/usr/bin/env python3
"""Interleaved parent/change A/B of benchmark workloads.

    tools/ab.py <parent-target-dir> <change-target-dir> <workloads> --pairs N [--seed S[,S...]]

<workloads> is one workload name, a comma-separated list of them, or `all`
(every workload `BENCHMARK.json` declares, in its order); each runs its N
pairs in turn. `--seed` is one seed or a comma-separated list of them
(`--seed 7,23`): every workload runs its N pairs at each seed, seed by seed.

Builds nothing: each target dir must already hold `release/benchmark`
(`CARGO_TARGET_DIR=<dir> cargo build --release --manifest-path
examples/benchmark/Cargo.toml`). Runs N pairs of `benchmark --one <workload>
--seed S --rep i`, both sides of a pair on the same rep (i cycles 0..11), the
side that goes first alternating pair by pair, every child pinned to one CPU
with `taskset` when it exists. A pair whose two sides disagree on `events`,
`fingerprint`, the warm-up witness or the attempted/failed counts is a
behaviour change, not a timing: the pair line names the witnesses that
differ, and the tool exits with status 1 once every pair has run. Prints, for
`wall_s` and `setup_s`, each side's min / quartiles, the median and IQR of the
per-pair change÷parent ratio, the pairs the change won, and the ratio of the
two minima; then the `peak_rss_mb` medians, and each side's mean `tail_ratio`
(the `sim_tail_ratio` metric), total `failed` and median `events`. Ends with
one summary block per seed, one line per workload: the `wall_s` and `setup_s`
pair-ratio medians and wins, the `peak_rss_mb` ratio and whether the
witnesses were equal on every pair.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

REPS = 12  # `--rep` cycles over the suite's twelve sub-seeds
WITNESSES = ("events", "fingerprint", "warmup", "attempted", "failed")
# Knobs that would make the child a different program (as `spawn_rep` does).
# No current build reads NDP_SCHED, but a parent built before it was removed
# still does, so it is cleared too.
KNOBS = ("NDP_SCHED", "NDP_SCALE", "NDP_TOPO")


def run_one(target_dir, workload, seed, rep, cpu):
    exe = os.path.join(target_dir, "release", "benchmark")
    cmd = [exe, "--one", workload, "--seed", str(seed), "--rep", str(rep)]
    if cpu is not None:
        cmd = ["taskset", "-c", str(cpu)] + cmd
    env = {k: v for k, v in os.environ.items() if k not in KNOBS}
    env["NDP_THREADS"] = "1"
    out = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, check=True)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return q1, q2, q3


def side_line(label, xs):
    q1, q2, q3 = quartiles(xs)
    return f"  {label:<7} min {min(xs):.4f}  q1 {q1:.4f}  median {q2:.4f}  q3 {q3:.4f}  max {max(xs):.4f}"


def report(metric, parent, change):
    """Prints the metric's block; returns its pair-ratio median and wins."""
    ratios = [c / p for p, c in zip(parent, change)]
    q1, q2, q3 = quartiles(ratios)
    wins = sum(c < p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    print(f"{metric}:")
    print(side_line("parent", parent))
    print(side_line("change", change))
    print(
        f"  pair ratio change/parent: median {q2:.4f}  IQR {q1:.4f}..{q3:.4f}  "
        f"wins {wins}/{len(ratios)} (ties {ties})  ratio of minima {min(change) / min(parent):.4f}"
    )
    return q2, wins


def declared_workloads():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(path) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run_workload(args, workload, seed, cpu):
    """Runs and reports one workload's pairs at `seed`; returns its summary
    line and whether any pair's witnesses differed."""
    print(f"# ab: {workload} seed {seed} pairs {args.pairs} cpu {cpu}")
    print(f"# parent {args.parent}")
    print(f"# change {args.change}")
    sides = {"parent": [], "change": []}
    dirs = {"parent": args.parent, "change": args.change}
    changed = 0
    for i in range(args.pairs):
        rep = i % REPS
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run_one(dirs[side], workload, seed, rep, cpu) for side in order}
        p, c = got["parent"], got["change"]
        differ = [key for key in WITNESSES if p[key] != c[key]]
        changed += bool(differ)
        tail = f"events {p['events']} {c['events']}  differs: {', '.join(differ)}" if differ else f"events {p['events']}  {p['fingerprint']}"
        print(
            f"pair {i:2} rep {rep:2} first {order[0]:<6} wall_s {p['wall_s']:.4f} {c['wall_s']:.4f} "
            f"ratio {c['wall_s'] / p['wall_s']:.4f}  {tail}"
        )
        sides["parent"].append(p)
        sides["change"].append(c)

    if changed:
        print(f"BEHAVIOUR CHANGE: witnesses differ on {changed}/{args.pairs} pairs")
    else:
        print(f"witnesses equal on all {args.pairs} pairs ({', '.join(WITNESSES)})")
    summary = f"{workload:<16}"
    for metric in ("wall_s", "setup_s"):
        median, wins = report(metric, [r[metric] for r in sides["parent"]], [r[metric] for r in sides["change"]])
        summary += f"  {metric} {median:.4f} ({wins}/{args.pairs} wins)"
    rss = {s: statistics.median(r["peak_rss_mb"] for r in rs) for s, rs in sides.items()}
    print(f"peak_rss_mb medians: parent {rss['parent']:.2f}  change {rss['change']:.2f}  ratio {rss['change'] / rss['parent']:.4f}")
    for side, rs in sides.items():
        print(
            f"{side}: tail_ratio mean {statistics.mean(r['tail_ratio'] for r in rs):.4f}  "
            f"failed {sum(r['failed'] for r in rs)}  events median {statistics.median(r['events'] for r in rs):.0f}"
        )
    witnesses = f"witnesses differ on {changed}/{args.pairs}" if changed else "witnesses equal"
    summary += f"  peak_rss_mb {rss['change'] / rss['parent']:.4f}  {witnesses}"
    return summary, bool(changed)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="CARGO_TARGET_DIR of the parent build")
    ap.add_argument("change", help="CARGO_TARGET_DIR of the change build (the same dir gives a self-pair)")
    ap.add_argument("workloads", help="a workload, a comma-separated list of them, or `all`")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", default="7", help="a seed or a comma-separated list of them (default 7)")
    ap.add_argument("--cpu", type=int, default=None, help="CPU to pin to (default: the last one this process may use)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    try:
        seeds = [int(s) for s in args.seed.split(",")]
    except ValueError:
        ap.error(f"--seed takes an integer or a comma-separated list of them, not {args.seed!r}")

    cpu = args.cpu
    if shutil.which("taskset") is None:
        cpu = None
        print("note: no taskset on PATH, children run unpinned", file=sys.stderr)
    elif cpu is None:
        cpu = max(os.sched_getaffinity(0))

    declared = declared_workloads()
    workloads = declared if args.workloads == "all" else args.workloads.split(",")
    unknown = [w for w in workloads if w not in declared]
    if unknown:
        ap.error(f"unknown workload(s) {', '.join(unknown)}; BENCHMARK.json declares {', '.join(declared)}")
    summaries, changed = {}, False
    for seed in seeds:
        for workload in workloads:
            summary, differs = run_workload(args, workload, seed, cpu)
            summaries.setdefault(seed, []).append(summary)
            changed |= differs
    for seed, lines in summaries.items():
        print(f"# summary: seed {seed} pairs {args.pairs}; pair-ratio medians change/parent")
        for line in lines:
            print(line)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
