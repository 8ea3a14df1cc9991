#!/usr/bin/env python3
"""Build and run the dqcsim end-to-end + per-layer benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: paper_grid, config_sweep, chain_saturated, fault_swapgo. The
script configures and builds perfbench/CMakeLists.txt (the simulator library
from src/ plus the benchmark binary) in $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the binary with explicit thread counts:
one worker for every measured driver call, and min(3, usable cores) workers
for the thread-count invariance replays and the pool fan-out probe. The
last line of standard output is the result JSON; build output goes to
standard error. With --trace 1 the recorded spans are written to
<build dir>/trace_<workload>.json (Chrome trace-event format).
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every measured driver call runs on one worker thread. On a shared host a
# descheduled vCPU stalls a multi-threaded call until its straggler worker
# resumes, so multi-threaded call times swing with other tenants' load far
# more than single-threaded ones. The thread-count invariance check and the
# pool fan-out probe use CHECK_THREADS_MAX workers or fewer.
CALL_THREADS = 1
CHECK_THREADS_MAX = 3
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_group(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group and wait for it. On a timeout, or
    if this script is interrupted, the whole group (make and compilers
    included) is killed and reaped before the exception propagates.
    Returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    return proc.returncode, out


def build(build_dir, jobs):
    """Configure (once) and build the benchmark; True on success."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(jobs),
                  "--target", "dqcsim_perfbench"])
    for cmd in steps:
        try:
            returncode, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                      stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: build step failed: %s" % e, file=sys.stderr)
            return False
        if returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        return fail("--seed must be non-negative")

    for needed in ("CMakeLists.txt", os.path.join("src", "runtime",
                                                  "experiment.hpp")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return fail("dqcsim sources not found (missing %s)" % needed)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    cores = usable_cores()
    check_threads = min(cores, CHECK_THREADS_MAX) if cores > 1 else 1
    if not build(build_dir, max(check_threads, 2)):
        return fail("build failed")

    cmd = [os.path.join(build_dir, "dqcsim_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(CALL_THREADS),
           "--check-threads", str(check_threads),
           "--reference", os.path.join(HERE, "reference.tsv")]
    if args.trace == 1:
        cmd += ["--trace-out",
                os.path.join(build_dir, "trace_%s.json" % args.workload)]
    try:
        returncode, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                    cwd=ROOT)
    except subprocess.TimeoutExpired:
        return fail("benchmark run timed out")
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return returncode


if __name__ == "__main__":
    # A SIGTERM from whoever runs the benchmark unwinds through run_group,
    # which kills the build or benchmark process group it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
