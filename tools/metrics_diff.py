#!/usr/bin/env python3
"""A/B delta table over two metrics-JSON run reports.

Compares the versioned reports written by `elt_synth --metrics-json` /
`elt_check --metrics-json` (obs::report_to_json, docs/observability.md)
and prints what moved: every numeric key of the totals object — scheduler
counters, solver counters, per-phase seconds/latency-percentiles/alloc
breakdowns — as a before/after/delta table.

    metrics_diff.py baseline.json candidate.json
    metrics_diff.py --suite invlpg a.json b.json   # one suite, not totals
    metrics_diff.py --all a.json b.json            # unchanged keys too

Typical use (docs/performance.md): capture a report before and after a
change with identical flags, then diff. Deterministic counters
(programs_considered, duplicates_rejected, alloc counts) must match
exactly for a pure-perf change — a moved counter means the change
perturbed the search, which the byte-identity tests will also catch. Timing keys (seconds,
p50/p90/p99) carry machine noise; read them as trends.

Exit codes: 0 = diff printed; 2 = usage / unreadable input / schema
mismatch (reports with different schema_version values are not
comparable — regenerate, don't eyeball).
"""

import argparse
import json
import sys


def flatten(prefix, value, out):
    """Dotted-key flattening of nested objects; numbers only."""
    if isinstance(value, dict):
        for key, child in value.items():
            flatten(f"{prefix}.{key}" if prefix else key, child, out)
    elif isinstance(value, bool):
        out[prefix] = int(value)
    elif isinstance(value, (int, float)):
        out[prefix] = value


def pick(report, suite_name):
    if suite_name is None:
        return report.get("totals", {})
    for suite in report.get("suites", []):
        if suite.get("axiom") == suite_name:
            return suite
    return None


def main():
    parser = argparse.ArgumentParser(
        description="diff two metrics-JSON run reports")
    parser.add_argument("baseline", help="the 'before' report")
    parser.add_argument("candidate", help="the 'after' report")
    parser.add_argument("--suite", default=None,
                        help="diff one suite (by axiom / file path) "
                             "instead of the totals object")
    parser.add_argument("--all", action="store_true",
                        help="print unchanged keys too")
    args = parser.parse_args()

    reports = []
    for path in (args.baseline, args.candidate):
        try:
            with open(path, encoding="utf-8") as handle:
                reports.append(json.load(handle))
        except (OSError, ValueError) as error:
            print(f"cannot read {path}: {error}", file=sys.stderr)
            return 2
    schemas = [r.get("schema_version") for r in reports]
    if schemas[0] != schemas[1]:
        print(f"schema_version mismatch ({schemas[0]} vs {schemas[1]}); "
              "reports are not comparable — regenerate both",
              file=sys.stderr)
        return 2

    sides = []
    for path, report in zip((args.baseline, args.candidate), reports):
        picked = pick(report, args.suite)
        if picked is None:
            print(f"{path}: no suite '{args.suite}'", file=sys.stderr)
            return 2
        flat = {}
        flatten("", picked, flat)
        sides.append(flat)
    before, after = sides

    scope = args.suite if args.suite else "totals"
    print(f"metrics_diff: {scope} "
          f"(schema v{schemas[0]}, {args.baseline} -> {args.candidate})")
    width = max((len(k) for k in before | after), default=3)
    print(f"  {'key':<{width}} {'before':>14} {'after':>14} "
          f"{'delta':>12} {'pct':>8}")
    changed = 0
    for key in sorted(before | after):
        a = before.get(key)
        b = after.get(key)
        if a == b and not args.all:
            continue
        if a is None or b is None:
            side = "baseline" if b is None else "candidate"
            print(f"  {key:<{width}} {'only in ' + side:>14}")
            changed += 1
            continue
        delta = b - a
        pct = f"{delta / a:+.1%}" if a != 0 else ("new" if b else "0")
        print(f"  {key:<{width}} {a:>14.6g} {b:>14.6g} "
              f"{delta:>+12.6g} {pct:>8}")
        if delta != 0:
            changed += 1
    print(f"metrics_diff: {changed} key(s) changed, "
          f"{len(before | after)} compared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
