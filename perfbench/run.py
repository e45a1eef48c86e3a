#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/liabench and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload chat-serve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25    # every workload
    python3 perfbench/run.py --smoke                         # self-test

The workloads, metrics and bounds are declared in BENCHMARK.json; the
workload definitions and the reasons for them live in
perfbench/liabench.cc. Seed 1 is the default; seed 11 is the validation
seed, which no workload size or rate was chosen by looking at. The program is built from source into
$CARGO_TARGET_DIR (default .bench_build) with CMake on first use.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Everything above it is
the human-readable report: every metric by name and unit, the host and
build block, and the correctness checks.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("chat-serve", "rag-serve", "fleet-sim")

# One kernel-pool size on every host, so runs compare like with like:
# two threads exercise the pool's dispatch without oversubscribing a
# small machine.
KERNEL_THREADS = 2

# Longest a single workload process may run, seconds: --seconds of
# measurement plus set-up and the correctness checks.
RUN_TIMEOUT = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build():
    """Configure and build liabench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "engine.hh")):
        fail(f"library sources not found under {ROOT}/src")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", HERE, "-B", out,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", out, "--target", "liabench", "-j", jobs],
        ]
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  env=child_env())
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(out, "liabench")


def source_digest():
    """SHA-256 over the library and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def commit():
    """HEAD commit when the checkout is a git work tree, else ''."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return ""


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def child_env():
    """Environment of the build and the runs: temporary files stay in
    the build directory."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_dir(), "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload process; returns its parsed JSON report."""
    env = child_env()
    env["LIA_THREADS"] = str(min(KERNEL_THREADS, os.cpu_count() or 1))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
           "--smoke", str(int(smoke))]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} exited with code {done.returncode} and no report")
    report = json.loads(lines[-1])
    report["exit_code"] = done.returncode
    report["host"]["seed"] = seed
    report["host"]["source_sha256"] = source_digest()
    report["host"]["commit"] = commit()
    return report


def check(report, declared):
    """Problems with @p report against the declared metric list."""
    problems = [f"invariant broken: {what}"
                for what in report["invariants_broken"]]
    if report["exit_code"] != 0:
        problems.append(f"exit code {report['exit_code']}")
    metrics = report["metrics"]
    for spec in declared:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"metric {spec['name']} missing")
        elif got["value"] is None or not math.isfinite(got["value"]):
            problems.append(f"metric {spec['name']} is not finite")
        elif got["unit"] != spec["unit"]:
            problems.append(f"metric {spec['name']} in {got['unit']}, "
                            f"declared {spec['unit']}")
    if report["attempted"] < 1:
        problems.append("no request attempted")
    return problems


def print_report(report, problems):
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"episodes {report['episodes']}  requests {report['attempted']}  "
          f"failed {report['failed']}  "
          f"reference-checked {report['reference_checked']}")
    print("host: " + json.dumps(report["host"], sort_keys=True))
    for name, metric in report["metrics"].items():
        print(f"  {name:36s} {metric['value']!r:>24} {metric['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


def result_line(report, declared, problems):
    return {
        "correct": not problems and report["mismatches"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {spec["name"]: report["metrics"][spec["name"]]
                    for spec in declared
                    if spec["name"] in report["metrics"]},
    }


def smoke(binary, end_to_end, per_layer):
    """Tiny mode of every workload in both trace modes: every declared
    metric is emitted, finite and in its unit, and nothing failed."""
    bad = 0
    for workload in WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            report = run_workload(binary, workload, 1, 1.0, trace, True)
            problems = check(report, declared)
            share = report["metrics"].get("failed_share", {}).get("value")
            if share != 0:
                problems.append(f"failed_share is {share}")
            status = "ok" if not problems else "FAILED"
            print(f"smoke {workload} trace={trace}: {status}")
            for problem in problems:
                print(f"  {problem}")
            bad += bool(problems)
    return 0 if bad == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny mode of every workload, with checks")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 100:
        parser.error("--seconds must be within 1..100")
    if not (args.smoke or args.all or args.workload):
        parser.error("give --workload, --all or --smoke")

    binary = build()
    end_to_end, per_layer = declared_metrics()
    if args.smoke:
        return smoke(binary, end_to_end, per_layer)

    declared = per_layer if args.trace else end_to_end
    workloads = WORKLOADS if args.all else (args.workload,)
    results = {}
    for workload in workloads:
        report = run_workload(binary, workload, args.seed, args.seconds,
                              args.trace)
        problems = check(report, declared)
        print_report(report, problems)
        results[workload] = result_line(report, declared, problems)
    final = results if args.all else results[args.workload]
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
