#!/usr/bin/env python3
"""Builds popp and the benchmark harness from source, then runs one workload.

    python3 perfbench/run.py --workload stream_csv|shard_csv|serve_mix \
        --seed N --seconds S --trace 0|1 [--tiny]

Run it from the root of a checkout. The build goes to .bench_build/ and the
run's working files to .bench_run/, both inside the checkout; the run
directory is removed afterwards and the full result (host, build, metrics)
is kept in .bench_run/results/. The last line of standard output is the
JSON result; build output goes to standard error.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RUNS = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("stream_csv", "shard_csv", "serve_mix")
# The harness must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no popp sources next to perfbench/ (expected src/CMakeLists.txt)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step = subprocess.run(configure, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if step.returncode != 0:
            sys.stderr.write(step.stdout)
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                           "popp_serve", "-j", jobs],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if step.returncode != 0:
        sys.stderr.write(step.stdout)
        fail("build failed")


def source_digest():
    """SHA-256 over the sources the benchmark builds, by path and content."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def built(*parts):
    path = os.path.join(BUILD, *parts)
    if not os.access(path, os.X_OK):
        fail("built binary %s not found" % path)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the self-check)")
    args = parser.parse_args()

    build()
    harness = built("perfbench")
    serve = built("popp", "tools", "popp-serve")
    env = dict(os.environ, PERFBENCH_COMMIT=commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    run_dir = os.path.join(RUNS, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    command = [harness, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--serve", serve]
    if args.tiny:
        command.append("--tiny")
    # Its own session, so a timeout can stop the harness and every process
    # it started (release children, the daemon).
    proc = subprocess.Popen(command, cwd=run_dir, env=env,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 1
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
    results = os.path.join(RUNS, "results")
    os.makedirs(results, exist_ok=True)
    result = os.path.join(run_dir, "result.json")
    if os.path.isfile(result):
        shutil.copy(result, os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)))
    shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
