#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. The first call configures and builds
the incr library, ivm_server and the perfbench load generator (Release) in
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls reuse the build. Scratch files go to .bench_work/ in the
checkout and are removed when the run ends.

Standard output ends with one JSON line: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1). Any build or
run error exits non-zero without printing a result. See README.md.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire-dashboard", "retailer-grow", "durable-paged")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (src/ is missing)")
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "perfbench", "ivm_server"])
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                stdin=subprocess.DEVNULL, env=env).returncode
            if rc != 0:
                fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    build(build_dir)

    work_dir = os.path.join(ROOT, ".bench_work",
                            "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    # The program reads INCR_* settings from the environment; runs use the
    # library defaults so that every run is configured alike.
    env = {k: v for k, v in os.environ.items() if not k.startswith("INCR_")}
    env["TMPDIR"] = work_dir
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--server", os.path.join(build_dir, "ivm_server")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              stdin=subprocess.DEVNULL, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    if proc.returncode != 0:
        fail("perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
