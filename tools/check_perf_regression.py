#!/usr/bin/env python3
"""Compare a fresh tgs_perf JSON run against the committed baseline.

Usage: check_perf_regression.py BASELINE.json CURRENT.json [--factor 2.0]
           [--min-ratio SLOW:FAST:FACTOR ...] [--allow-missing]

Fails (exit 1) when any benchmark present in BOTH files regressed by more
than --factor in real_time, and when a baseline benchmark is MISSING from
the current run -- a deleted or renamed benchmark must update the
committed baseline in the same change, not silently drop out of the gate.
Pass --allow-missing during deliberate migrations to downgrade MISSING to
a report-only line. Benchmarks only present in the current run (NEW) never
fail: adding one is safe before the baseline is regenerated. Absolute
times differ across machines; a generous factor catches algorithmic
regressions (the thing this gate is for) while tolerating runner noise.

--min-ratio asserts SLOW/FAST >= FACTOR *within the current run only*
(e.g. BM_Etf_Naive/500:BM_Etf/500:5). Both sides ran on the same machine
minutes apart, so these assertions are immune to cross-runner speed
differences -- they encode the algorithmic property itself.
"""
import argparse
import json
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # skip aggregates
        out[b["name"]] = float(b["real_time"])
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--factor", type=float, default=2.0)
    ap.add_argument("--min-ratio", action="append", default=[],
                    metavar="SLOW:FAST:FACTOR")
    ap.add_argument("--allow-missing", action="store_true",
                    help="report baseline benchmarks absent from the "
                         "current run without failing (benchmark "
                         "migrations)")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    if not base or not cur:
        print("error: empty benchmark set", file=sys.stderr)
        return 1

    failed = []
    for name in sorted(base.keys() | cur.keys()):
        if name not in base:
            print(f"  NEW      {name} (no baseline)")
            continue
        if name not in cur:
            print(f"  MISSING  {name} (in baseline, not in current run)")
            if not args.allow_missing:
                failed.append(f"MISSING:{name}")
            continue
        ratio = cur[name] / base[name] if base[name] > 0 else float("inf")
        tag = "REGRESS" if ratio > args.factor else "ok"
        print(f"  {tag:8} {name}: {base[name]:12.0f} -> {cur[name]:12.0f} ns "
              f"({ratio:5.2f}x)")
        if ratio > args.factor:
            failed.append(name)

    for spec in args.min_ratio:
        try:
            slow, fast, factor = spec.rsplit(":", 2)
            want = float(factor)
        except ValueError:
            print(f"error: bad --min-ratio spec '{spec}'", file=sys.stderr)
            return 2
        if slow not in cur or fast not in cur:
            print(f"  MISSING  ratio {spec}: benchmark not in current run")
            failed.append(spec)
            continue
        got = cur[slow] / cur[fast] if cur[fast] > 0 else float("inf")
        ok = got >= want
        print(f"  {'ok' if ok else 'REGRESS':8} {slow} / {fast} = "
              f"{got:5.3g}x (need >= {want:.3g}x)")
        if not ok:
            failed.append(spec)

    if failed:
        print(f"\n{len(failed)} check(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
