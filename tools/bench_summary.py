#!/usr/bin/env python3
"""Summarize (or diff) the JSONL files the experiment engine writes.

Usage:
    bench_summary.py FILE.jsonl [FILE.jsonl ...]
        Per-experiment summary of each file: row count and, for every
        numeric field, min / median / max.

    bench_summary.py --diff OLD.jsonl NEW.jsonl
        Row-by-row comparison of two runs. Rows pair up on their identity
        fields (experiment, pivot, row, column, job -- whichever are
        present); any other field that changed is printed as old -> new.
        Exit status 1 when the files differ, 0 when identical -- usable as
        a CI gate against a golden run.

    bench_summary.py --scaling FILE.jsonl [--value-field seconds]
        Per-algorithm scaling exponents from a giant_sweep run. For each
        column (algorithm), least-squares fit of log(value) against
        log(v) -- v taken from the v_actual field when present, else the
        row key -- and report the slope: ~1 is linear, ~2 quadratic. Rows
        with non-positive value or v are skipped (a --no-timing stream has
        no slopes to fit). The value range is printed next to the exponent
        so sub-millisecond noise floors are visible.

    bench_summary.py --serve-stats FILE [FILE ...]
        Summarize tgs_serve `stats` responses (one JSON object per line,
        as printed by `tgs_client --stats`; multiple snapshots and files
        are aggregated by taking each counter's max, since the daemon's
        counters are monotonic within one run). Prints the request
        outcomes, the robustness counters (deadline_exceeded,
        shed_requests, retries_observed, cache_insert_failures), the
        cache surface, journal recovery/compaction counters, and the
        per-algorithm latency table. Exit 1 if no stats line parsed.

    bench_summary.py --ranks FILE.jsonl [--value-field value] [--top N]
        Per-algorithm ranking table. Rows are grouped by sweep coordinate
        (all identity fields except column); inside each group the columns
        (algorithms / param combinations) get competition ranks by
        ascending value (1 = best, ties share a rank), and the table
        reports each column's mean rank, mean value and win count across
        all coordinates. This reproduces the param_sweep stdout ranking
        from its JSONL stream, and works on any experiment whose value is
        lower-is-better (%-degradation, NSL, seconds).

Stdlib only; rows that fail to parse are counted and reported, not fatal.
"""
import argparse
import json
import math
import statistics
import sys

# Fields that *identify* a row (sweep coordinates) rather than measure it.
ID_FIELDS = ("experiment", "pivot", "row", "column", "job")


def load_rows(path):
    """Parse a JSONL file -> (rows, bad_line_numbers)."""
    rows, bad = [], []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                bad.append(lineno)
                continue
            if isinstance(obj, dict):
                rows.append(obj)
            else:
                bad.append(lineno)
    return rows, bad


def is_numeric(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def fmt(v):
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.6g}"
    return str(int(v)) if isinstance(v, float) else str(v)


def summarize(path):
    rows, bad = load_rows(path)
    print(f"== {path}: {len(rows)} rows"
          + (f" ({len(bad)} unparseable lines skipped)" if bad else ""))
    by_exp = {}
    for r in rows:
        by_exp.setdefault(r.get("experiment", "(none)"), []).append(r)
    for exp in sorted(by_exp):
        chunk = by_exp[exp]
        print(f"  {exp}: {len(chunk)} rows")
        fields = sorted({k for r in chunk for k, v in r.items()
                         if is_numeric(v) and k not in ID_FIELDS})
        for field in fields:
            vals = [r[field] for r in chunk if is_numeric(r.get(field))]
            print(f"    {field:<12} n={len(vals):<5} min={fmt(min(vals)):<12}"
                  f" median={fmt(statistics.median(vals)):<12}"
                  f" max={fmt(max(vals))}")
    return bool(bad)


def row_key(r):
    return tuple((k, r[k]) for k in ID_FIELDS if k in r)


def diff(old_path, new_path):
    old_rows, old_bad = load_rows(old_path)
    new_rows, new_bad = load_rows(new_path)
    for path, bad in ((old_path, old_bad), (new_path, new_bad)):
        if bad:
            print(f"warning: {path}: {len(bad)} unparseable lines skipped",
                  file=sys.stderr)

    def index(rows, path):
        out = {}
        for r in rows:
            key = row_key(r)
            if key in out:
                print(f"warning: {path}: duplicate row key {dict(key)}",
                      file=sys.stderr)
            out[key] = r
        return out

    old, new = index(old_rows, old_path), index(new_rows, new_path)
    changed = 0
    for key in sorted(set(old) | set(new), key=repr):
        label = " ".join(f"{k}={v}" for k, v in key) or "(keyless row)"
        if key not in new:
            print(f"- only in {old_path}: {label}")
            changed += 1
            continue
        if key not in old:
            print(f"+ only in {new_path}: {label}")
            changed += 1
            continue
        a, b = old[key], new[key]
        deltas = []
        for field in sorted(set(a) | set(b)):
            if field in ID_FIELDS:
                continue
            va, vb = a.get(field), b.get(field)
            if va != vb:
                deltas.append(f"{field}: {fmt(va) if va is not None else '~'}"
                              f" -> {fmt(vb) if vb is not None else '~'}")
        if deltas:
            print(f"~ {label}: " + "; ".join(deltas))
            changed += 1
    if changed:
        print(f"{changed} row(s) differ")
        return 1
    print(f"identical: {len(old)} rows match")
    return 0


def ranks(path, value_field, top, exclude=("optimal", "L_opt")):
    rows, bad = load_rows(path)
    if bad:
        print(f"warning: {path}: {len(bad)} unparseable lines skipped",
              file=sys.stderr)
    # coordinate = identity fields minus the column being ranked.
    groups = {}
    for r in rows:
        if r.get("column") in exclude or "column" not in r:
            continue
        if not is_numeric(r.get(value_field)):
            continue
        coord = tuple((k, r[k]) for k in ID_FIELDS
                      if k != "column" and k in r)
        groups.setdefault(coord, []).append((r["column"], r[value_field]))

    rank_sum, val_sum, wins, count = {}, {}, {}, {}
    for coord, cells in groups.items():
        values = [v for _, v in cells]
        best = min(values)
        for column, v in cells:
            rank = 1 + sum(1 for w in values if w < v)
            rank_sum[column] = rank_sum.get(column, 0) + rank
            val_sum[column] = val_sum.get(column, 0.0) + v
            count[column] = count.get(column, 0) + 1
            if v == best:
                wins[column] = wins.get(column, 0) + 1

    if not count:
        print(f"{path}: no rankable rows (value field '{value_field}')")
        return 1
    order = sorted(count, key=lambda c: (rank_sum[c] / count[c], c))
    n_groups = len(groups)
    print(f"== {path}: {len(order)} columns ranked over {n_groups} "
          f"coordinates by '{value_field}' (lower is better)")
    width = max(len(c) for c in order[:top]) if order else 10
    print(f"{'#':>4} {'column':<{width}} {'mean rank':>10} "
          f"{'mean ' + value_field:>14} {'wins':>6}")
    for i, column in enumerate(order[:top], 1):
        print(f"{i:>4} {column:<{width}}"
              f" {rank_sum[column] / count[column]:>10.2f}"
              f" {val_sum[column] / count[column]:>14.4g}"
              f" {wins.get(column, 0):>6}")
    return 0


def scaling(path, value_field):
    rows, bad = load_rows(path)
    if bad:
        print(f"warning: {path}: {len(bad)} unparseable lines skipped",
              file=sys.stderr)
    # column -> list of (v, value) observations.
    series = {}
    for r in rows:
        column = r.get("column")
        v = r.get("v_actual", r.get("row"))
        val = r.get(value_field)
        if column is None or not is_numeric(v) or not is_numeric(val):
            continue
        if v <= 0 or val <= 0:  # log-log fit needs positive samples
            continue
        series.setdefault(column, []).append((float(v), float(val)))

    fits = []
    for column, pts in sorted(series.items()):
        # Collapse duplicate sizes (reps) to their minimum: the noise
        # floor, consistent with how the sweeps report timings.
        by_v = {}
        for v, val in pts:
            by_v[v] = min(val, by_v.get(v, float("inf")))
        if len(by_v) < 2:
            continue
        xs = [math.log(v) for v in sorted(by_v)]
        ys = [math.log(by_v[v]) for v in sorted(by_v)]
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        sxx = sum((x - mx) ** 2 for x in xs)
        sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        slope = sxy / sxx if sxx else float("nan")
        lo, hi = min(by_v.values()), max(by_v.values())
        fits.append((column, slope, n, lo, hi))

    if not fits:
        print(f"{path}: no fittable series (value field '{value_field}'; "
              "was the run made with --no-timing?)")
        return 1
    print(f"== {path}: log-log slope of '{value_field}' vs v per column "
          "(~1 linear, ~2 quadratic)")
    width = max(len(c) for c, *_ in fits)
    print(f"{'column':<{width}} {'slope':>7} {'sizes':>6} "
          f"{'min ' + value_field:>14} {'max ' + value_field:>14}")
    for column, slope, n, lo, hi in sorted(fits, key=lambda f: -f[1]):
        print(f"{column:<{width}} {slope:>7.2f} {n:>6} {lo:>14.4g} {hi:>14.4g}")
    return 0


def serve_stats(paths):
    """Aggregate and pretty-print tgs_serve stats-op snapshots."""
    snaps = []
    for path in paths:
        rows, bad = load_rows(path)
        if bad:
            print(f"warning: {path}: {len(bad)} unparseable lines skipped",
                  file=sys.stderr)
        snaps.extend(r for r in rows if r.get("op") == "stats")
    if not snaps:
        print("no stats responses found (expect `tgs_client --stats` output,"
              " one JSON object per line)")
        return 1

    def peak(field):
        vals = [s[field] for s in snaps if is_numeric(s.get(field))]
        return max(vals) if vals else 0

    print(f"== serve stats: {len(snaps)} snapshot(s) aggregated (per-counter"
          " max)")
    print("  requests:")
    for field in ("requests_total", "requests_ok", "requests_error",
                  "requests_rejected"):
        print(f"    {field:<22} {fmt(peak(field))}")
    print("  robustness:")
    for field in ("deadline_exceeded", "shed_requests", "retries_observed",
                  "cache_insert_failures"):
        print(f"    {field:<22} {fmt(peak(field))}")
    print("  cache:")
    for field in ("cache_hits", "cache_misses", "cache_evictions",
                  "cache_size", "cache_capacity", "graph_memo_hits",
                  "graph_memo_misses", "graph_memo_size", "graphs_parsed"):
        print(f"    {field:<22} {fmt(peak(field))}")

    journals = [s.get("journal") for s in snaps
                if isinstance(s.get("journal"), dict)]
    if journals:
        print("  journal:")
        for field in ("replayed", "truncated_bytes", "appends",
                      "compactions"):
            vals = [j[field] for j in journals if is_numeric(j.get(field))]
            print(f"    {field:<22} {fmt(max(vals)) if vals else 0}")
        if any(j.get("tail_truncated") for j in journals):
            print("    tail_truncated         yes (a torn tail was recovered)")

    # Per-algorithm latency: keep the snapshot with the most computations
    # per algorithm (counters are monotonic, so that is the latest view).
    algos = {}
    for s in snaps:
        for name, a in (s.get("algos") or {}).items():
            if not isinstance(a, dict):
                continue
            if name not in algos or \
                    a.get("computed", 0) >= algos[name].get("computed", 0):
                algos[name] = a
    if algos:
        width = max(len(n) for n in algos)
        print(f"  {'algo':<{width}} {'computed':>9} {'hits':>6} "
              f"{'p50_us':>9} {'p90_us':>9} {'max_us':>9}")
        for name in sorted(algos):
            a = algos[name]
            print(f"  {name:<{width}} {fmt(a.get('computed', 0)):>9}"
                  f" {fmt(a.get('cache_hits', 0)):>6}"
                  f" {fmt(a.get('p50_us', 0)):>9}"
                  f" {fmt(a.get('p90_us', 0)):>9}"
                  f" {fmt(a.get('max_us', 0)):>9}")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="+", metavar="FILE.jsonl")
    ap.add_argument("--diff", action="store_true",
                    help="compare exactly two files row-by-row")
    ap.add_argument("--ranks", action="store_true",
                    help="per-column mean-rank table of one file")
    ap.add_argument("--scaling", action="store_true",
                    help="per-column log-log scaling exponents of one file")
    ap.add_argument("--serve-stats", action="store_true",
                    help="summarize tgs_serve stats-op snapshots")
    ap.add_argument("--value-field", default="value",
                    help="field to rank by (default: value)")
    ap.add_argument("--top", type=int, default=25,
                    help="ranking rows to print (default: 25)")
    args = ap.parse_args()

    if args.serve_stats:
        return serve_stats(args.files)

    if args.diff:
        if len(args.files) != 2:
            ap.error("--diff needs exactly two files")
        return diff(args.files[0], args.files[1])

    if args.ranks:
        if len(args.files) != 1:
            ap.error("--ranks needs exactly one file")
        return ranks(args.files[0], args.value_field, args.top)

    if args.scaling:
        if len(args.files) != 1:
            ap.error("--scaling needs exactly one file")
        field = args.value_field if args.value_field != "value" else "seconds"
        return scaling(args.files[0], field)

    had_bad = False
    for path in args.files:
        had_bad |= summarize(path)
    return 1 if had_bad else 0


if __name__ == "__main__":
    sys.exit(main())
