#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library sources under src/) into the build
directory: $CARGO_TARGET_DIR when it names a directory inside the
repository, else .bench_build. Every call then runs the perfbench binary,
whose last line of output is the one-line JSON result. The exit code is
the binary's: 0, or non-zero when the correctness gate fails.

--selftest runs every workload at a tiny scale, checks that each metric
BENCHMARK.json names is printed with its unit, that the correctness gate
fires on a corrupted reference row count, and that a stray MONSOON_*
environment knob is refused.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    wanted = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.abspath(os.path.join(ROOT, wanted))
    if os.path.commonpath([path, ROOT]) != ROOT:
        path = os.path.join(ROOT, ".bench_build")
    return os.path.join(path, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under src/; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def source_sha():
    """git HEAD when available, else a digest of the benchmarked sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:16]


def run(binary, bench_args, env=None):
    out_dir = os.path.join(os.path.dirname(binary), "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary] + bench_args + ["--sha", source_sha(), "--out-dir", out_dir]
    try:
        return subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, env=env, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            done = run(binary, ["--workload", workload, "--seed", "1", "--seconds", "1",
                                "--trace", trace, "--scale-factor", "0.1"])
            result = last_json(done.stdout)
            where = "%s trace=%s" % (workload, trace)
            if done.returncode != 0 or result is None:
                problems.append("%s: exit %d\n%s" % (where, done.returncode, done.stdout[-2000:]))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if result.get("correct") is not True or result.get("attempted", 0) < 1:
                problems.append("%s: correct=%s attempted=%s" % (
                    where, result.get("correct"), result.get("attempted")))
            printed = result.get("metrics", {})
            if set(printed) != {m["name"] for m in wanted}:
                problems.append("%s: metrics %s, expected %s" % (
                    where, sorted(printed), sorted(m["name"] for m in wanted)))
            for metric in wanted:
                got = printed.get(metric["name"], {})
                if got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append("%s: %s printed as %s" % (where, metric["name"], got))
            print("selftest: %s ok" % where, file=sys.stderr)
    # The correctness gate must fire on a wrong reference row count.
    for workload in ("udf_plan", "serve_udf"):
        done = run(binary, ["--workload", workload, "--seed", "1", "--seconds", "1",
                            "--trace", "0", "--scale-factor", "0.1", "--corrupt-reference"])
        result = last_json(done.stdout)
        if done.returncode == 0 or result is None or result.get("correct") is not False:
            problems.append("%s: corrupted reference not caught (exit %d)" % (
                workload, done.returncode))
    # A stray MONSOON_* knob is refused before anything runs.
    env = dict(os.environ, MONSOON_THREADS="2")
    done = run(binary, ["--workload", "udf_plan", "--seed", "1", "--seconds", "1",
                        "--trace", "0", "--scale-factor", "0.1"], env=env)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("MONSOON_THREADS was not refused")
    for problem in problems:
        print("selftest FAIL: " + problem, file=sys.stderr)
    print("selftest %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    binary = build()
    if args.selftest:
        return selftest(binary)
    done = run(binary, ["--workload", args.workload, "--seed", str(args.seed % 2**64),
                        "--seconds", str(args.seconds), "--trace", args.trace])
    sys.stderr.write(done.stderr)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
