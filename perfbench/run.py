#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or "all" to run each of
them in turn.  The first call configures and builds wtp_perfbench from the
repository sources into .bench_build/; later calls rebuild incrementally.
Every run is stamped and recorded under .bench_results/ for compare.py.
The last line of standard output is the run's result object.  Exits
non-zero when the build fails, a correctness gate fails, or the result
does not list exactly the metrics BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
RESULTS_DIR = ROOT / ".bench_results"
BINARY = BUILD_DIR / "wtp_perfbench"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(spec_path.read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read {spec_path.name}: {error}")


def parse_args(spec):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Build and run the repository benchmark.",
        allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()  # unknown flags are an error (exit 2)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("repository sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "wtp_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def commit_id():
    """The git commit when the tree is a checkout with history, otherwise a
    digest of every source file the benchmark builds from."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=True)
            dirty = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--",
                 "src", "bench", "perfbench"],
                capture_output=True, text=True, check=True)
            return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def check_result(line, spec, traced):
    """The result line must name exactly the declared metrics and units."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not a JSON result"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are not correct/attempted/failed/metrics"
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if traced else "end_to_end"]}
    reported = {name: m.get("unit") for name, m in result["metrics"].items()}
    if reported != declared:
        missing = sorted(set(declared) - set(reported))
        extra = sorted(set(reported) - set(declared))
        return f"metrics differ from BENCHMARK.json (missing {missing}, extra {extra})"
    return None


def run_one(workload, args, spec, commit):
    RESULTS_DIR.mkdir(exist_ok=True)
    record = RESULTS_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    command = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit, "--record", str(record)]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as child:
        try:
            output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except BaseException:
            child.kill()
            child.wait()
            raise
    sys.stdout.write(output)
    sys.stdout.flush()
    lines = output.strip().splitlines()
    if child.returncode != 0:
        print(f"run.py: {workload} exited with {child.returncode}",
              file=sys.stderr)
        return child.returncode, None
    problem = check_result(lines[-1] if lines else "", spec, args.trace == 1)
    if problem:
        print(f"run.py: {workload}: {problem}", file=sys.stderr)
        return 1, None
    return 0, json.loads(lines[-1])


def main():
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    args = parse_args(spec)
    build()
    commit = commit_id()
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    status = 0
    summary = []
    for workload in workloads:
        code, result = run_one(workload, args, spec, commit)
        status = status or code
        summary.append((workload, result))
    if len(workloads) > 1:
        print("\nsummary")
        for workload, result in summary:
            if result is None:
                print(f"  {workload}: FAILED")
                continue
            for name, metric in result["metrics"].items():
                print(f"  {workload:14s} {name:28s} {metric['value']:.6g} "
                      f"{metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
