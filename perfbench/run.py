#!/usr/bin/env python3
"""End-to-end benchmark of the tgs schedulers and the tgs_serve daemon.

    python3 perfbench/run.py --workload serve_mix --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and builds
the library, the daemon and the measuring program tgs_e2e (perfbench/src)
into .bench_build/; later runs only re-check the build. Scratch files (the
daemon's socket and journals) go to .bench_run/<workload>/. See
perfbench/README.md for the workloads, the metrics and the checks.

BENCHMARK.json next to this directory names the workloads and metrics. With
--trace 0 the last line of stdout is a JSON object carrying every
end_to_end metric; with --trace 1 it carries every per_layer metric, and a
layer the workload makes no call into reads 0. Lines before it are a
human-readable report. Exit status: 0 when every output checked out, 1 when
a correctness check failed, the build failed or tgs_e2e did not finish.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = ".bench_run"


def run_timeout_s(seconds):
    """How long tgs_e2e may take: its fixed work (check set, set-ups,
    validation) plus up to three times the measured seconds, since a traced
    run measures twice and replays what it sent (170 s at --seconds 30)."""
    return 80 + 3 * seconds


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build tgs_e2e and the daemon; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tgs_e2e",
                  "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def run_measurement(args):
    """Runs tgs_e2e in its own process group; returns (exit code, stdout)."""
    work_dir = os.path.join(RUN_DIR, args.workload)
    os.makedirs(os.path.join(ROOT, work_dir), exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "tgs_e2e"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace,
           "--serve-bin=" + os.path.join(BUILD_DIR, "tgs", "tgs_serve"),
           "--work-dir=" + work_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timeout = run_timeout_s(args.seconds)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # tgs_e2e and its daemon share the process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: tgs_e2e exceeded %d s" % timeout)
        return 1, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload " + args.workload)
        return 1
    if not build():
        return 1

    code, out = run_measurement(args)
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        log("perfbench: tgs_e2e printed no result (exit %d)" % code)
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    known = {m["name"] for m in declared}
    extra = sorted(set(result["metrics"]) - known)
    if extra:
        log("perfbench: undeclared metrics " + ", ".join(extra))
        return 1
    metrics = {}
    for m in declared:
        value = result["metrics"].get(m["name"])
        if value is None:
            if not args.trace:
                log("perfbench: end-to-end metric %s was not measured" % m["name"])
                return 1
            value = 0.0  # the workload makes no call into this layer
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  %-32s %14.6g %s" % (m["name"], value, m["unit"]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
