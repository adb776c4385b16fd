#!/usr/bin/env python3
"""Runs one perfbench workload from the root of a kflush checkout.

    python3 perfbench/run.py --workload ingest|query_replay|wire_durable \
        --seed N --seconds S --trace 0|1

Builds the kflush libraries and the benchmark binary from source (CMake,
into $CARGO_TARGET_DIR or .bench_build), runs the workload, passes its
report lines through, and prints as the last line one JSON object with
the keys correct, attempted, failed and metrics. The metrics are the
BENCHMARK.json end_to_end list with --trace 0 and its per_layer list with
--trace 1; a per-layer metric of a layer the workload does not exercise
reads 0. Exits non-zero when the build fails, an output check fails, or
the workload does not finish in time.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest", "query_replay", "wire_durable")
RUN_TIMEOUT_S = 170
RESULT_PREFIX = "PERFBENCH_RESULT "


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds; CMake output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "kflush_perfbench"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out_root, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    workdir = os.path.join(out_root, "perfbench-work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(build_dir, "kflush_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if result is None:
        fail("%s exited %d without a result" % (args.workload,
                                                proc.returncode))

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        measured = result["metrics"].get(name)
        if measured is None:
            if not args.trace:
                fail("%s did not measure %s" % (args.workload, name))
            measured = {"value": 0, "unit": metric["unit"]}
        if measured["unit"] != metric["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s" %
                 (name, measured["unit"], metric["unit"]))
        metrics[name] = measured
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
