#!/usr/bin/env python3
"""Same-host paired benchmark gate (`make bench-check`).

    python3 scripts/benchcheck.py [BASE]

Checks BASE out in a git worktree under .bench_build/ and times it
against this working tree in alternating pairs on the same host. BASE
defaults to the merge-base with origin/main (HEAD's parent when HEAD is
that merge-base; HEAD when there is no origin/main).

  * go test -bench micro rows, ns/op, bound 15%. Both sides build with
    -trimpath, so an unchanged package is the same binary on both. Each
    pair runs a row COUNT times per side, the sides interleaved, and
    keeps each side's fastest run: host noise only ever adds time, and
    it comes and goes within seconds.
  * bash perfbench/run.sh --trace 0 for every BENCHMARK.json workload,
    each end-to-end metric with the file's own bound and direction.

A row fails when the median of its per-pair change/base ratios is worse
than its bound. Absolute numbers are never compared across hosts or
runs: only pairs run side by side here decide.
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

PAIRS = 10
BENCHTIME = "0.3s"
COUNT = 3
SECONDS = 3
MICRO_BOUND = 0.15
# (package, benchmark) rows, each timed in ns/op (lower is better).
MICRO = [
    (".", "BenchmarkSingleRunCtx"),
    ("./internal/core", "BenchmarkReseedBatch"),
    ("./internal/core", "BenchmarkArrivalSpanWalk"),
]

BENCH_LINE = re.compile(r"^Benchmark\w+?(?:-\d+)?\s+\d+\s+([\d.]+) ns/op")


def sh(args, cwd, **kw):
    return subprocess.run(args, cwd=cwd, check=True, text=True, **kw)


def git(*args):
    return sh(["git", *args], ".", capture_output=True).stdout.strip()


def default_base():
    head = git("rev-parse", "HEAD")
    try:
        mb = git("merge-base", "HEAD", "origin/main")
    except subprocess.CalledProcessError:
        return head
    return mb if mb != head else git("rev-parse", "HEAD~1")


def build_micro(tree, out):
    """Builds each micro row's test binary in tree; returns {pkg: path}."""
    bins = {}
    for pkg in sorted({p for p, _ in MICRO}):
        path = os.path.join(out, pkg.strip("./").replace("/", "_") or "root") + ".test"
        sh(["go", "test", "-c", "-pgo=off", "-trimpath", "-o", path, pkg], tree)
        bins[pkg] = path
    return bins


def run_micro(tree, binary, pkg, name):
    """One run of one row: its ns/op, or None when the tree lacks the row."""
    out = sh([binary, "-test.run", "^$", "-test.bench", f"^{name}$", "-test.benchtime", BENCHTIME],
             os.path.join(tree, pkg), capture_output=True).stdout
    got = [float(m[1]) for m in map(BENCH_LINE.match, out.splitlines()) if m]
    return got[0] if got else None


def run_perfbench(tree, workload, seed):
    out = sh(["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
              "--seconds", str(SECONDS), "--trace", "0"], tree, capture_output=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"bench-check: {workload} is not correct in {tree}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def worse(ratio, better):
    """How much worse a change/base ratio is, as a fraction (<= 0: not worse)."""
    return ratio - 1 if better == "lower" else 1 - ratio


def main():
    t0 = time.time()
    base = sys.argv[1] if len(sys.argv) > 1 else default_base()
    bench = json.load(open("BENCHMARK.json"))
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    out = os.path.abspath(".bench_build/check")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    tree = os.path.join(out, "base")
    sh(["git", "worktree", "prune"], ".")
    sh(["git", "worktree", "add", "--detach", "-q", tree, base], ".")
    # Both sides' perfbench builds share one Go build cache.
    os.makedirs(".bench_build/gocache", exist_ok=True)
    os.makedirs(os.path.join(tree, ".bench_build"))
    os.symlink(os.path.abspath(".bench_build/gocache"), os.path.join(tree, ".bench_build/gocache"))
    # rows[name] = (better, bound, [(base, change), ...])
    rows = {}

    def record(name, better, bound, vals):
        rows.setdefault(name, (better, bound, []))[2].append((vals["base"], vals["change"]))

    try:
        print(f"bench-check: base {git('rev-parse', '--short', base)} vs working tree, {PAIRS} pairs", flush=True)
        sides = {"base": tree, "change": os.getcwd()}
        bins = {s: build_micro(t, os.path.join(out, s)) for s, t in sides.items()}
        for i in range(PAIRS):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for pkg, name in MICRO:
                best = {}
                for k in range(COUNT):
                    for s in order if k % 2 == 0 else order[::-1]:
                        v = run_micro(sides[s], bins[s][pkg], pkg, name)
                        if v is not None:
                            best[s] = min(best.get(s, v), v)
                if len(best) == 2:
                    record(name, "lower", MICRO_BOUND, best)
            for w in bench["workloads"]:
                got = {s: run_perfbench(sides[s], w["name"], i + 1) for s in order}
                for k in got["change"].keys() & got["base"].keys() & e2e.keys():
                    record(f"{w['name']} {k}", e2e[k]["better"], e2e[k]["bound"], {s: got[s][k] for s in got})
            print(f"bench-check: pair {i + 1}/{PAIRS} done", flush=True)
    finally:
        sh(["git", "worktree", "remove", "--force", tree], ".")

    failed = []
    for name, (better, bound, pairs) in rows.items():
        ratios = [c / b if b else (1.0 if c == b else float("inf")) for b, c in pairs]
        r = statistics.median(ratios)
        bad = worse(r, better) > bound
        print(f"{'FAIL' if bad else 'ok  '} {name:40s} median change/base {r:.3f} "
              f"({better} is better, bound {bound:.0%}) pairs {' '.join(f'{x:.3f}' for x in ratios)}")
        if bad:
            failed.append(name)
    missing = [n for _, n in MICRO if n not in rows]
    if missing:
        print("bench-check: not on both sides, not gated:", ", ".join(missing))
    wall = f"{time.time() - t0:.0f}s"
    if failed:
        sys.exit(f"bench-check: regressed ({wall}): " + ", ".join(failed))
    print(f"bench-check: pass ({wall})")


if __name__ == "__main__":
    main()
