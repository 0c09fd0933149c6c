#!/usr/bin/env python3
"""Benchmark entry point: builds the simulator and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs rebuild incrementally.
Build output goes to stderr.  The workload's report goes to stdout, and
the last stdout line is the result object, checked against BENCHMARK.json:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

--trace 0 reports end-to-end metrics; --trace 1 adds a traced run and
reports per-layer metrics (Chrome traces land in <build dir>/traces).
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ram-ring", "rz56-fasync")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_result(text, spec, trace):
    """Parses the binary's last stdout line and checks it against the spec.

    Returns the result dict; raises ValueError on any deviation: a key other
    than the four, a non-integer count, a metric the spec does not declare
    for this trace mode or one it declares that is missing, a unit that
    differs from the declared one, or a value that is not a finite number.
    """
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise ValueError(f"last line is not JSON: {e}") from e
    if not isinstance(result, dict):
        raise ValueError("result is not an object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            raise ValueError(f"{key} is not a non-negative integer")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("metrics is not a non-empty object")
    for name, m in metrics.items():
        if name not in declared:
            raise ValueError(f"metric {name} is not declared")
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise ValueError(f"metric {name} is not {{value, unit}}")
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"metric {name} value {v!r} is not a finite number")
        if m["unit"] != declared[name]:
            raise ValueError(f"metric {name} unit {m['unit']} != declared {declared[name]}")
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise ValueError(f"declared metrics missing: {', '.join(missing)}")
    return result


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(root, base, "perfbench")


def build(root, target):
    out = build_dir(root)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out


def selftest(root):
    out = build(root, "perfbench_test")
    code = subprocess.run([os.path.join(out, "perfbench_test")], cwd=root).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "-v", "test_run"], cwd=HERE).returncode
    return 0 if code == 0 and py == 0 else 1


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    # The benchmark measures the program in the checkout around it; without
    # the sources there is nothing to build or run.
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail(f"no BENCHMARK.json in {ROOT}")
    if args.selftest:
        return selftest(ROOT)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    spec = load_spec(ROOT)

    out = build(ROOT, "ikdp_perfbench")
    cmd = [os.path.join(out, "ikdp_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--out-dir", traces]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = parse_result(proc.stdout, spec, args.trace == 1)
    except ValueError as e:
        fail(f"bad result from {args.workload} (exit {proc.returncode}): {e}", 1)
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
