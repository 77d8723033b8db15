#!/usr/bin/env python3
"""Same-runner A/B perf gate: the merge-base against HEAD on one machine.

    tools/ab_perf.py --base origin/main

Exports the merge-base of --base and HEAD, and HEAD itself, into
.ab_perf/base and .ab_perf/head (`git archive`, committed files only),
then runs `perfbench/run.py --workload synth-enum --trace 0` from each
export with its own CARGO_TARGET_DIR, so each side builds its runner
from its own sources. Ten runs per side interleave (base, head, head,
base, ...) so that drift on the machine hits both sides alike. A run
whose result reports failures, or prints no result, fails the gate.

Verdict on the median wall_s:
  pass        HEAD's median is within 10% of the merge-base's;
  FAIL        HEAD's median is above it by more than 10% and by more than
              the merge-base runs' interquartile range;
  unresolved  otherwise (the spread is wider than the gap), unless every
              HEAD run is faster than every merge-base run (a pass).
An unresolved verdict is printed as such and does not fail the gate.

The comparison is paired on one runner, so it needs no baseline recorded
on another machine (tools/bench_compare.py gates the deterministic
allocation counters against committed baselines).

Exit codes: 0 = pass or unresolved; 1 = regression or a failed run;
2 = usage or git error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOAD = "synth-enum"
RUNS = 10            # per side, interleaved
SECONDS = 20         # perfbench --seconds per run
TOLERANCE = 0.10     # allowed fractional growth of the median wall_s
WORK = ".ab_perf"    # scratch directory for the two exports


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, directory):
    """Writes the committed tree of rev into directory (fresh)."""
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", directory], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")


def run_once(checkout):
    """One perfbench run from checkout; returns its wall_s or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, "build"))
    result = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", WORKLOAD, "--seed", "1",
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return None
    report = json.loads(lines[-1])
    if report.get("failed", 1) != 0:
        return None
    return report["metrics"]["wall_s"]["value"]


def verdict(base, head):
    """'pass', 'fail' or 'unresolved' for two lists of wall_s (lower is
    better)."""
    base_median = statistics.median(base)
    gap = statistics.median(head) / base_median - 1
    q1, _, q3 = statistics.quantiles(base, n=4)
    spread = (q3 - q1) / base_median
    if gap > TOLERANCE and gap > spread:
        return "fail"
    if spread <= TOLERANCE and gap <= TOLERANCE:
        return "pass"
    if max(head) < min(base):
        return "pass"
    return "unresolved"


def main():
    parser = argparse.ArgumentParser(
        description="same-runner A/B perf gate: merge-base vs HEAD")
    parser.add_argument("--base", required=True,
                        help="ref whose merge-base with HEAD is the A side")
    args = parser.parse_args()

    try:
        base = git("merge-base", args.base, "HEAD")
        head = git("rev-parse", "HEAD")
        sides = {"base": os.path.abspath(os.path.join(WORK, "base")),
                 "head": os.path.abspath(os.path.join(WORK, "head"))}
        export(base, sides["base"])
        export(head, sides["head"])
    except subprocess.CalledProcessError as error:
        print(f"ab_perf: git failed: {error}", file=sys.stderr)
        return 2
    print(f"ab_perf: {WORKLOAD}, {RUNS} runs per side; "
          f"base {base[:12]}, head {head[:12]}")

    walls = {"base": [], "head": []}
    for i in range(RUNS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            wall = run_once(sides[side])
            if wall is None:
                print(f"ab_perf: {side} run {i + 1} failed or printed no "
                      "result", file=sys.stderr)
                return 1
            walls[side].append(wall)
            print(f"  run {i + 1} {side}: wall_s {wall:.3f}")

    base_median = statistics.median(walls["base"])
    head_median = statistics.median(walls["head"])
    q1, _, q3 = statistics.quantiles(walls["base"], n=4)
    result = verdict(walls["base"], walls["head"])
    print(f"ab_perf: median wall_s base {base_median:.3f}, head "
          f"{head_median:.3f} ({head_median / base_median:.3f}x); base "
          f"interquartile range {q3 - q1:.3f}; tolerance "
          f"{1 + TOLERANCE:.2f}x: {result}")
    if result == "fail":
        print("ab_perf: FAIL: head is slower than the merge-base beyond the "
              "tolerance and the spread", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
