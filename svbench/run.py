#!/usr/bin/env python3
"""Run one svbench workload and print its result as one JSON line.

    python3 svbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. On first use it builds svbench from
the checkout's sources into $CARGO_TARGET_DIR/svbench (default
.bench_build/svbench); later runs only check that the build is current.
It then runs one workload of BENCHMARK.json and prints, as the last line of
standard output, {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the metrics are every end_to_end metric of BENCHMARK.json, with
--trace 1 every per_layer metric (svbench then adds its traced pass, and
each pass measures half of --seconds). The full svbench report of each run
is kept under <build dir>/results/.

Exit codes: 0 ok; 1 a correctness check failed (the result line is still
printed, with "correct": false); 2 bad arguments or svbench refused the
host; 3 svbench could not be built or run.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_child(cmd, timeout, own_group=False, **kwargs):
    """Run cmd and wait for it; on timeout or any interruption kill it (its
    whole process group when own_group, for commands that spawn children)
    and wait again. Returns the exit code."""
    proc = subprocess.Popen(cmd, start_new_session=own_group, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            if own_group:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
            proc.wait()


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "skip_vector.h")):
        log("the library sources (src/) are missing; cannot build svbench")
        return None
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "svbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release",
                      "-DBUILD_TESTING=OFF"])
    steps.append(["cmake", "--build", build_dir, "--target", "svbench",
                  "-j", "3"])
    with open(log_path, "w") as out:
        for cmd in steps:
            try:
                rc = run_child(cmd, BUILD_TIMEOUT_S, own_group=True,
                               stdout=out, stderr=subprocess.STDOUT)
            except subprocess.TimeoutExpired:
                rc = "timeout"
            if rc != 0:
                log(f"build step {' '.join(cmd)} failed ({rc}); "
                    f"see {log_path}")
                return None
    return os.path.join(build_dir, "svbench")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    # SIGTERM unwinds like an exception, so run_child still stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(target, "svbench")
    binary = build(build_dir)
    if binary is None:
        return 3

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--json={stem}.json"]
    if args.trace:
        # The untraced and the traced pass measure half of --seconds each,
        # so a traced run takes as long as an untraced one. setup_s is not
        # reported from a traced run; one set-up suffices.
        cmd += [f"--seconds={args.seconds / 2}",
                f"--trace={stem}.trace.json", "--setups=1",
                "--setup-seconds=0"]
    else:
        cmd.append(f"--seconds={args.seconds}")
    if os.path.exists(f"{stem}.json"):
        os.remove(f"{stem}.json")
    try:
        rc = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        log(f"svbench did not finish within {RUN_TIMEOUT_S} s")
        return 3
    if rc == 2:
        return 2
    if rc not in (0, 1) or not os.path.exists(f"{stem}.json"):
        log(f"svbench exited with {rc} and no report")
        return 3

    with open(f"{stem}.json") as f:
        row = json.load(f)["results"][0]
    if args.trace:
        wanted, source = bench["per_layer"], row["per_layer"]
    else:
        wanted, source = bench["end_to_end"], row["metrics"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failed = int(row["metrics"]["failed"])
    print(json.dumps({
        "correct": rc == 0 and failed == 0,
        "attempted": int(row["metrics"]["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
