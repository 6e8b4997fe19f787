#!/usr/bin/env python3
"""Benchmark entry point: builds the program in Release and runs one workload.

    python3 perfbench/run.py --workload log_append --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) and each run's temporary files to .bench_run/, both inside
the checkout. The last line of stdout is the JSON result of the run.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("log_append", "kv_durable", "sim_churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds evs_node and evs_perfbench; returns the bin dir."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "evs_node", "evs_perfbench",
         "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, timeout=max(1, left))
        except subprocess.TimeoutExpired:
            log("build timed out")
            return None
        if res.returncode != 0:
            sys.stderr.write(res.stdout.decode(errors="replace")[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return out


def reap_group(pgid):
    """SIGKILLs the process group and waits until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_bench(argv, timeout):
    """Runs evs_perfbench in its own process group; returns (rc, stdout)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout}s; stopping it")
        reap_group(proc.pid)
        proc.communicate()
        return 3, b""
    reap_group(proc.pid)  # nodes that outlived it, if any
    return rc, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    start = time.monotonic()
    bindir = build()
    if bindir is None:
        return 2
    bench = os.path.join(bindir, "evs_perfbench")
    node = os.path.join(bindir, "evs_tools", "evs_node")

    if args.self_test:
        rc, out = run_bench([bench, "--self-test"], RUN_TIMEOUT_S)
        sys.stdout.write(out.decode(errors="replace"))
        return rc

    work = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        timeout = max(30, RUN_TIMEOUT_S - (time.monotonic() - start))
        rc, out = run_bench(
            [bench, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--node-bin", node, "--work-dir", work], timeout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_run"))
        except OSError:
            pass
    # evs_perfbench prints a result only when the run completed; a failed
    # check still prints it (with "correct": false) and exits 1.
    sys.stdout.write(out.decode(errors="replace"))
    if rc != 0:
        log(f"{args.workload} failed (exit {rc})")
        return rc if rc > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
