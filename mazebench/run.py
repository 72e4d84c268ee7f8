#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 mazebench/run.py --workload grid_r1|grid_r4|serve_mix \
        --seed N --seconds S --trace 0|1
    python3 mazebench/run.py --selftest

Run from the repository root. The first run configures and builds the maze
libraries plus the benchmark (Release) into $CARGO_TARGET_DIR, or
.bench_build when unset; later runs only check the build is current. Build
output goes to stderr. The benchmark's stdout is passed through; its last line
is the JSON result, whose metric names are checked against BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"mazebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no maze sources at {ROOT / 'src'}; run from a repository checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j",
                  str(os.cpu_count() or 1), "--target", *targets])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_benchmark(build_dir, args, check_spec=True):
    """Runs the benchmark binary; returns (exit code, stdout lines).

    The binary exits with 1 after printing its result when a check failed.
    """
    command = [str(build_dir / "mazebench"), *args,
               "--out-dir", str(ROOT / ".bench_out")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not check_spec:
        return done.returncode, lines
    result = json.loads(lines[-1])
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    want = expected_metrics(trace)
    if want is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            print("\n".join(lines[:-1]))
            fail(f"metrics disagree with BENCHMARK.json (missing {missing}, "
                 f"extra {extra}, or units differ)")
    return 0, lines


def selftest(build_dir):
    failures = 0
    unit = subprocess.run([str(build_dir / "mazebench_selftest")])
    failures += unit.returncode != 0
    # The workloads at their real scales, briefly: the checks do not depend on
    # the run length.
    for workload in ("grid_r1", "grid_r4", "serve_mix"):
        for inject in (False, True):
            args = ["--workload", workload, "--seed", "7", "--seconds", "3",
                    "--trace", "0"]
            if inject:
                args.append("--inject-wrong-answer")
            code, lines = run_benchmark(build_dir, args, check_spec=False)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if inject:
                ok = (code == 1 and result is not None
                      and not result["correct"] and result["failed"] > 0)
                what = "wrong answer is caught, error_rate > 0, exit code 1"
            else:
                ok = (code == 0 and result is not None and result["correct"]
                      and result["failed"] == 0)
                what = "clean run is correct, error_rate == 0, exit code 0"
            print(f"{'ok  ' if ok else 'FAIL'} {workload}: {what}")
            failures += not ok
    print("PASS" if failures == 0 else f"FAIL: {failures} failure(s)")
    return 0 if failures == 0 else 1


def main():
    args = sys.argv[1:]
    if args == ["--selftest"]:
        build_dir = build(["mazebench", "mazebench_selftest"])
        sys.exit(selftest(build_dir))
    build_dir = build(["mazebench"])
    code, lines = run_benchmark(build_dir, args)
    print("\n".join(lines), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
