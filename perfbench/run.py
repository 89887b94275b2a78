#!/usr/bin/env python3
"""Run one repository benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hot_wire|cold_sim|overload \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which pulls in the
comsim library and serving daemons from the root) into
.bench_build/perfbench, then runs the load generator. Its last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; --trace 0 reports the end-to-end metrics of an
untraced run, --trace 1 the per-layer metrics of a traced run, whose
spans land in .bench_build/perfbench/trace-<workload>.jsonl.

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build; cmake's own checks make reruns cheap."""
    if not any(os.path.isfile(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          check=False).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, check=False).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot_wire", "cold_sim", "overload"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("perfbench", "reference.tsv")):
        fail("run from the repository root")

    build()
    loadgen = os.path.join(BUILD_DIR, "perfbench_load")
    cmd = [loadgen, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join("perfbench", "reference.tsv"),
           "--trace-out",
           os.path.join(BUILD_DIR, f"trace-{args.workload}.jsonl")]
    # Its own process group, so a timeout also stops the router and
    # worker processes hot_wire starts.
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as run:
        try:
            stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            run.communicate()
            fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        fail(f"load generator exited with {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != KEYS:
        sys.stderr.write(stdout)
        fail("load generator printed no result")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
