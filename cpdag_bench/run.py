#!/usr/bin/env python3
"""CSV -> CPDAG latency benchmark.

    python3 cpdag_bench/run.py --workload g2-munin1-20k --seed 1 \
        --seconds 10 --trace 0

Builds the benchmark package (cpdag_bench/CMakeLists.txt) against the
library sources of this checkout into .bench_build/, writes the
workload's CSV from --seed, and runs the measurement. The last stdout
line is the result object {"correct", "attempted", "failed", "metrics"};
the line before it is the run context. --trace 1 reports the per-layer
metrics instead of the end-to-end ones and writes a Chrome trace-event
file under .bench_build/results/.

Workload parameters live in cpdag_bench/workloads.json.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "cpdag_bench"
BINARY = BUILD_DIR / "cpdag_bench"
# One run must end within 180 s; leave room for generation and builds.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"cpdag_bench: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(command, what, timeout=None):
    """Runs `command` in its own process group, sending its stdout to our
    stderr, and kills the whole group if it outlives `timeout`."""
    process = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr,
                               start_new_session=True)
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        fail(f"{what} timed out")
    if code != 0:
        fail(f"{what} failed with exit code {code}")


def build():
    if not (ROOT / "src" / "pc" / "pc_stable.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    run_checked(["cmake", "--build", str(BUILD_DIR), "--target", "cpdag_bench",
                 "-j", jobs], "cmake build")


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    the library and benchmark sources."""
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for directory in (ROOT / "src", BENCH_DIR):
        for path in sorted(directory.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_file = BENCH_DIR / "workloads.json"
    if not spec_file.is_file():
        fail(f"missing {spec_file}")
    workloads = json.loads(spec_file.read_text())["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")
    spec = workloads[args.workload]
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()

    threads = min(4, len(os.sched_getaffinity(0)))
    data_dir = BUILD_ROOT / "data"
    results_dir = BUILD_ROOT / "results"
    data_dir.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    csv = data_dir / f"{stem}.csv"
    try:
        run_checked([str(BINARY), "--mode", "gen", "--network", spec["network"],
                     "--statistic", spec["statistic"], "--rows",
                     str(spec["rows"]), "--seed", str(args.seed), "--csv",
                     str(csv)], "CSV generation", RUN_TIMEOUT_S)
        command = [str(BINARY), "--mode", "run", "--workload", args.workload,
                   "--network", spec["network"], "--csv", str(csv),
                   "--threads", str(threads),
                   "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--commit", source_revision()]
        if args.trace:
            command += ["--trace-out", str(results_dir / f"{stem}.trace.json")]
        process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   text=True, start_new_session=True)
        try:
            output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            fail("measurement timed out")
    finally:
        csv.unlink(missing_ok=True)

    lines = [line for line in output.splitlines() if line.strip()]
    if len(lines) < 2:
        fail(f"measurement printed no result (exit code {process.returncode})")
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])
    (results_dir / f"{stem}.trace{args.trace}.json").write_text(
        json.dumps({"context": context["context"], "result": result}, indent=1))
    print(json.dumps(context))
    print(json.dumps(result))
    sys.exit(process.returncode)


if __name__ == "__main__":
    main()
