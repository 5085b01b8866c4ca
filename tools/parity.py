#!/usr/bin/env python3
"""Bit-identity sweep of registry output, parent build against change build.

    tools/parity.py <parent-target-dir> <change-target-dir> [ids...] [--trace]

Builds nothing: each target dir must already hold `release/ndp`
(`CARGO_TARGET_DIR=<dir> cargo build --release -p ndp-experiments --bin ndp`).
For every id, runs each side's `ndp run <id> --scale quick --json` under
NDP_THREADS=1 and then 7, drops the two wall-clock fields (`run.wall_ms`,
`run.events_per_sec`) and prints one line per document: its sha256 digest on
each side. Each run also digests the human-readable stdout of
`ndp run <id> --scale quick` (the tables and the `headline:` line; it holds
no wall-clock field) on a `text` line of its own. With `--trace` every JSON
run also writes `--trace <tmp>.ndjson`, the document carries its
`telemetry` block, and the NDJSON export gets a digest line of its own.
Under each document, text or export whose digests differ it prints up to 20
`path: parent → change` lines, the JSON paths whose leaf values differ (text
and an NDJSON export are compared line by line, `[i]` being line i). Exits 1
naming everything whose digests differ, 0 when all match. The same dir
twice is a self-pair (CI runs one).

The default ids are every experiment both sides' `ndp list` registers; an id
only one side registers is named in a `#` line and skipped. With the ids
defaulted the full `ndp list` output of both sides is compared as well.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

THREADS = (1, 7)
WALL_FIELDS = ("wall_ms", "events_per_sec")
MOVED_LINES = 20
# Knobs that would make the child a different program.
KNOBS = ("NDP_SCHED", "NDP_SCALE", "NDP_TOPO")


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def normalise(doc):
    """The document minus its wall-clock fields, as canonical bytes."""
    for d in doc if isinstance(doc, list) else [doc]:
        for key in WALL_FIELDS:
            d.get("run", {}).pop(key, None)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def leaves(value, path=""):
    """(path, canonical JSON) of every leaf of a JSON value, depth first."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, json.dumps(value)


def moved(parent, change):
    """`path: parent → change` for every leaf that differs; a leaf only
    one side has reads `<absent>` on the other."""
    p, c = dict(leaves(parent)), dict(leaves(change))
    paths = list(p) + [k for k in c if k not in p]
    absent = "<absent>"
    return [f"{k}: {p.get(k, absent)} → {c.get(k, absent)}"
            for k in paths if p.get(k) != c.get(k)]


def listing(target_dir):
    """`ndp list`'s stdout, one experiment a line in registry order."""
    out = subprocess.run([os.path.join(target_dir, "release", "ndp"), "list"],
                         stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, check=True)
    return out.stdout


def ids_of(listing_bytes):
    """The ids a listing names (its first column)."""
    return [line.split()[0] for line in listing_bytes.decode().splitlines() if line.strip()]


def render(target_dir, exp, threads, trace_path):
    """One run's {"doc": ..., "text": ..., "trace": ...} (trace only if
    asked), each a (digest, parsed JSON) pair; text and trace parse to
    their lists of lines."""
    cmd = [os.path.join(target_dir, "release", "ndp"), "run", exp, "--scale", "quick"]
    env = {k: v for k, v in os.environ.items() if k not in KNOBS}
    env["NDP_THREADS"] = str(threads)

    def stdout(extra, stderr=None):
        return subprocess.run(cmd + extra, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=stderr, check=True).stdout

    doc = json.loads(stdout(["--json"] + (["--trace", trace_path] if trace_path else [])))
    # The text run's stderr is the banner; its stdout is what is compared.
    text = stdout([], stderr=subprocess.DEVNULL)
    got = {"doc": (digest(normalise(doc)), doc), "text": (digest(text), text.decode().splitlines())}
    if trace_path:
        with open(trace_path, "rb") as f:
            data = f.read()
        got["trace"] = (digest(data), [json.loads(line) for line in data.splitlines() if line.strip()])
    return got


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="CARGO_TARGET_DIR of the parent build")
    ap.add_argument("change", help="CARGO_TARGET_DIR of the change build (the same dir gives a self-pair)")
    ap.add_argument("ids", nargs="*", help="experiment ids (default: every registered id)")
    ap.add_argument("--trace", action="store_true", help="also digest each run's NDJSON trace export")
    args = ap.parse_args()
    ids, one_sided, lists = args.ids, [], None
    if not ids:
        lists = {side: listing(getattr(args, side)) for side in ("parent", "change")}
        parent_ids = set(ids_of(lists["parent"]))
        change_ids = ids_of(lists["change"])
        ids = [i for i in change_ids if i in parent_ids]
        one_sided = sorted(parent_ids.symmetric_difference(change_ids))

    print(f"# parity: {len(ids)} ids x NDP_THREADS {'/'.join(map(str, THREADS))}, quick scale"
          f"{', --trace' if args.trace else ''}; {', '.join(WALL_FIELDS)} dropped")
    print(f"# parent {args.parent}")
    print(f"# change {args.change}")
    if one_sided:
        print(f"# registered on one side only, skipped: {' '.join(one_sided)}")
    differ, n = [], 0

    def compare(name, parent, change):
        """One digest line for a (digest, parsed) pair per side."""
        nonlocal n
        n += 1
        (p, p_json), (c, c_json) = parent, change
        verdict = "same" if p == c else "DIFFERS"
        print(f"{name:<40} parent {p}  change {c}  {verdict}", flush=True)
        if p != c:
            differ.append(name)
            lines = moved(p_json, c_json)
            for line in lines[:MOVED_LINES]:
                print(f"    {line}")
            if len(lines) > MOVED_LINES:
                print(f"    ... and {len(lines) - MOVED_LINES} more")

    if lists:
        compare("ndp list", *((digest(b), b.decode().splitlines()) for b in lists.values()))
    with tempfile.TemporaryDirectory() as tmp:
        for exp in ids:
            for threads in THREADS:
                got = {}
                for side in ("parent", "change"):
                    trace = os.path.join(tmp, f"{side}.ndjson") if args.trace else None
                    got[side] = render(getattr(args, side), exp, threads, trace)
                for kind in got["parent"]:
                    compare(f"{exp} {kind} NDP_THREADS={threads}", got["parent"][kind], got["change"][kind])
    if differ:
        print(f"{len(differ)} differ: {'; '.join(differ)}")
        return 1
    print(f"all {n} digests equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
