#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/NOTES.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload paper_clean --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --smoke [--workload W]   one request per workload,
                                                   result JSON validated
  python3 perfbench/run.py --selftest               C++ and Python self-tests

The first call configures and builds the library and the benchmark from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr, so the last stdout line is the benchmark's
result JSON. Traced runs write their spans to <build dir>/traces/.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("paper_clean", "adult_large", "serving_mix")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# One run may take 180 s; leave room to report a hung child.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build(targets):
    """Configures (once) and builds `targets`; returns the build dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no OTClean sources under {ROOT}; nothing to benchmark", 2)
    bd = build_dir()
    steps = []
    if not (bd / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(bd),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bd), "-j", str(os.cpu_count() or 1),
                  "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return bd


def run_binary(cmd):
    """Runs the benchmark binary, passing its stdout through; returns
    (exit code, stdout)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # the child is killed and reaped
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout


def bench_command(bd, workload, seed, seconds, trace, extra=()):
    traces = bd / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    return [str(bd / "perfbench"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--trace-out", str(traces / f"{workload}-seed{seed}-trace{trace}.json"),
            *extra]


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_spec(spec):
    """Problems with BENCHMARK.json's names, units and bounds."""
    problems = []
    names = []
    for group in ("workloads", "end_to_end", "per_layer"):
        for m in spec[group]:
            names.append(m["name"])
            if not NAME_RE.match(m["name"]):
                problems.append(f"bad name {m['name']!r}")
            if "unit" in m and not UNIT_RE.match(m["unit"]):
                problems.append(f"bad unit {m['unit']!r} of {m['name']}")
            if "better" in m and m["better"] not in ("lower", "higher"):
                problems.append(f"bad 'better' of {m['name']}")
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound of {m['name']} outside (0, 0.25]")
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workloads differ from " + ", ".join(WORKLOADS))
    return problems


def check_result(stdout, expected):
    """Problems with the last stdout line, given the metrics
    ({name: unit}) it must carry."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(m)}")
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not a finite number")
        if name in expected and m["unit"] != expected[name]:
            problems.append(f"{name}: unit {m['unit']!r}, expected {expected[name]!r}")
    return problems


def smoke(workloads):
    """One request per workload, untraced and traced; every result line is
    checked against BENCHMARK.json."""
    spec = load_spec()
    problems = check_spec(spec)
    bd = build(["perfbench"])
    for workload in workloads:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[group]}
            code, out = run_binary(bench_command(
                bd, workload, 1, 1, trace, ("--requests", "1")))
            if code != 0:
                problems.append(f"{workload} trace {trace}: exit code {code}")
            problems += [f"{workload} trace {trace}: {p}"
                         for p in check_result(out, expected)]
    for p in problems:
        print(f"perfbench smoke: {p}", file=sys.stderr)
    print(f"perfbench smoke: {'FAILED' if problems else 'ok'}", file=sys.stderr)
    return 1 if problems else 0


def selftest():
    bd = build(["perfbench_selftest"])
    code = subprocess.run([str(bd / "perfbench_selftest"),
                           str(bd / "selftest_trace.json")], cwd=ROOT).returncode
    # The validator itself: a good line passes, each kind of bad one fails.
    expected = {"latency_s": "s"}
    good = '{"correct": true, "attempted": 3, "failed": 0, "metrics": ' \
           '{"latency_s": {"value": 0.25, "unit": "s"}}}'
    bad = [
        good.replace("true", "false"),
        good.replace('"attempted": 3', '"attempted": 0'),
        good.replace('"attempted": 3', '"attempted": 2.5'),
        good.replace("0.25", "null"),
        good.replace('"unit": "s"', '"unit": "ms"'),
        good.replace("latency_s", "other_s"),
        good.replace('"failed": 0, ', ""),
        "not json",
    ]
    checks = [not check_result("log line\n" + good, expected)]
    checks += [bool(check_result(b, expected)) for b in bad]
    checks.append(not check_spec(load_spec()))
    checks.append(bool(check_spec({
        "workloads": [{"name": "x y"}], "end_to_end": [], "per_layer": []})))
    if not all(checks):
        print(f"perfbench selftest: validator checks {checks}", file=sys.stderr)
        code = code or 1
    print(f"perfbench selftest: {'FAILED' if code else 'ok'}", file=sys.stderr)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gen-seed", type=int,
                    help="generator seed of the tables (default 903)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.smoke:
        return smoke([args.workload] if args.workload else WORKLOADS)
    if not args.workload:
        ap.error("--workload is required")
    bd = build(["perfbench"])
    extra = ("--gen-seed", str(args.gen_seed)) if args.gen_seed is not None else ()
    code, _ = run_binary(bench_command(bd, args.workload, args.seed,
                                       args.seconds, args.trace, extra))
    return code


if __name__ == "__main__":
    sys.exit(main())
