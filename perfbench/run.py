#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --selftest           # the benchmark's own checks

The simulator is built from ../src into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pingpong_small", "pingpong_large_ioat", "ring_mesh_w4", "imb_2ppn_ioat"]
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures once, then builds incrementally; compiler output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/ next to perfbench/", 2)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    # Untraced numbers describe the shipped defaults, so the profiler's
    # runtime switch is left at its default.
    env = {k: v for k, v in os.environ.items() if k != "OMX_WALLPROF"}
    try:
        proc = subprocess.run([binary] + args, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    return proc.returncode, proc.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        p.error("--workload is required")

    binary = build()
    if a.selftest:
        code, out = run_binary(binary, ["--selftest"])
        sys.stdout.write(out)
        sys.exit(code)

    names = WORKLOADS if a.workload == "all" else [a.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        code, out = run_binary(binary, [
            "--workload", name, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace),
            "--reference", os.path.join(HERE, "reference.txt"),
            "--out-dir", build_dir()])
        lines = out.rstrip("\n").split("\n")
        if code != 0 or not lines or not lines[-1].startswith("{"):
            sys.stdout.write(out)
            fail("%s exited with code %d" % (name, code), 5)
        if len(names) == 1:
            sys.stdout.write(out)
            return
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            total["metrics"][name + "/" + metric] = v
    print(json.dumps(total))


if __name__ == "__main__":
    main()
