#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload views_w1 --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds perfbench/ (a Release build of the
library sources plus the perfbench binary) into .bench_build/, generates the seeded
inputs into a fresh temporary directory under .bench_tmp/, runs the
workload, and prints the binary's output. The last line is the result
object {"correct", "attempted", "failed", "metrics"}. Exits nonzero when a
build fails, a correctness check fails, or the run does not finish in time.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TMP = os.path.join(ROOT, ".bench_tmp")
WORKLOADS = ["views_w1", "live_ingest", "serve_mixed"]
# The whole run, build excluded, must end well inside 180 seconds.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr (stdout stays for the
    result). Raises on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")


def build():
    """Configures (once) and builds the Release binary; returns its path."""
    jobs = str(os.cpu_count() or 1)
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    try:
        run_quiet(configure, timeout=300)
    except RuntimeError:
        # A build tree configured from another source directory: start over.
        shutil.rmtree(BUILD, ignore_errors=True)
        run_quiet(configure, timeout=300)
    run_quiet(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
              timeout=850)
    return os.path.join(BUILD, "perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_child(cmd, env, deadline):
    """Runs one perfbench step; returns (exit code, stdout). Kills and reaps
    the child if it outlives the deadline."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{cmd[1]} step exceeded the time limit")
    except BaseException:  # interrupted (e.g. SIGTERM): reap the child
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes: every correctness check in seconds")
    args = parser.parse_args()

    binary = build()
    start = time.time()
    deadline = start + RUN_TIMEOUT_S

    # GRAPHSURGE_* knobs (sampler, watchdog, trace, status port, ...) stay
    # at their defaults: clear them, and record which were set.
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("GRAPHSURGE_"))
    for k in cleared:
        del env[k]

    os.makedirs(TMP, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=TMP)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", workdir] + (["--smoke"] if args.smoke else [])
        code, out = run_child([binary, "gen"] + common, env, deadline)
        if code != 0:
            raise RuntimeError(f"input generation exited {code}")
        code, out = run_child(
            [binary, "run"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--git-sha", git_sha(), "--cleared-env", ",".join(cleared)],
            env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = out.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if code not in (0, 1) or not lines:
        raise RuntimeError(f"perfbench exited {code} without a result")
    result = json.loads(lines[-1])
    missing = set(expected_metrics(args.trace)) ^ set(result["metrics"])
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {missing}")
    print(json.dumps(result), flush=True)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    # Turn SIGTERM into an exception so the child is reaped and the input
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError) as e:
        log(f"error: {e}")
        sys.exit(2)
