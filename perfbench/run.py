#!/usr/bin/env python3
"""Build and run the NetLLM serving benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
`serve_bench` (the repository's libraries plus perfbench/src) under
$CARGO_TARGET_DIR, or .bench_build when it is unset; later runs only rebuild
what changed. Every run first executes the generator self-test, then the
workload. With --trace 0 it also starts SETUP_PROBES set-up probes
(`serve_bench --setup`, each a fresh process timing the workload's stack
builds) and reports the median of their setup_s as setup_s. The
information lines of the run go to stdout prefixed with '#';
the last line of stdout is the JSON result, holding exactly the metrics that
BENCHMARK.json declares for the mode (end_to_end with --trace 0, per_layer
with --trace 1). Exit status: 0 on a correct run, 1 when the correctness
check or the self-test fails, 2 on any build or run error.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 160  # a run must end within 180 s, build excluded
BUILD_TIMEOUT_S = 840
# The host's speed changes in spells of seconds to minutes, so set-up time
# is sampled by fresh processes at two moments: about half of them before
# the workload, the rest after, so a short slow spell cannot reach them all.
SETUP_PROBES = 7


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "serve_bench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if proc.returncode != 0:
            fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
    binary = os.path.join(out, "serve_bench")
    if not os.path.isfile(binary):
        fail("build produced no serve_bench binary")
    return binary


def declared_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{os.path.basename(cmd[0])} did not finish: {e}")


def setup_probes(binary, workload, count):
    values = []
    for _ in range(count):
        proc = run([binary, "--workload", workload, "--setup"])
        lines = proc.stdout.splitlines()
        try:
            value = json.loads(lines[-1])["metrics"]["setup_s"]["value"]
        except (IndexError, KeyError, ValueError):
            fail(f"set-up probe failed ({proc.returncode})")
        if proc.returncode != 0:
            fail(f"set-up probe exited with {proc.returncode}")
        values.append(float(value))
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["vp_crowd", "vp_wide", "dt_sessions"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be between 1 and 600")
    names = declared_metrics(args.trace)
    binary = build()

    selftest = run([binary, "--selftest"])
    sys.stdout.write("".join("# " + line + "\n" for line in selftest.stdout.splitlines()))
    if selftest.returncode != 0:
        fail("generator self-test failed", 1)

    probes = 0 if args.trace else SETUP_PROBES
    setup = setup_probes(binary, args.workload, probes // 2)
    proc = run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)])
    setup += setup_probes(binary, args.workload, probes - probes // 2)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"serve_bench exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("serve_bench printed no JSON result")
    metrics = result.get("metrics", {})
    if setup:
        print("# setup_s per probe: " + " ".join(f"{v:.6f}" for v in setup))
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    missing = [n for n in names if n not in metrics]
    if missing:
        fail(f"serve_bench did not report {', '.join(missing)}")
    out = {
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: metrics[n] for n in names},
    }
    print(json.dumps(out), flush=True)
    sys.exit(0 if out["correct"] and out["attempted"] >= 1 else 1)


if __name__ == "__main__":
    main()
