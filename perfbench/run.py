#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (and the simulator
libraries from src/) in Release mode under $CARGO_TARGET_DIR, default
.bench_build, then runs one measurement. The last stdout line is the
result object {correct, attempted, failed, metrics}; the exit code is
non-zero when the build fails or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("fig-sweep", "serve-stream", "crash-check")
RUN_TIMEOUT_S = 170
# perfbench brackets each counted runJobs pass with these stderr lines.
PASS_BEGIN = "perfbench: timed pass begin"
PASS_END = "perfbench: timed pass end"
HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build(target="perfbench"):
    """Configure and build @target; returns the build directory."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    cmds = [["cmake", "--build", out, "--target", target, "-j", jobs]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def unfinished_in_passes(stderr):
    """Runs reported as not finished inside counted passes. The runner
    reports such a run only on stderr; warnings outside the passes come
    from set-up and untimed executions that `attempted` does not count."""
    count, inside = 0, False
    for line in stderr.splitlines():
        if line == PASS_BEGIN:
            inside = True
        elif line == PASS_END:
            inside = False
        elif inside and "did not finish" in line:
            count += 1
    return count


def run(args):
    out = build()
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write("".join(l + "\n" for l in stderr.splitlines()
                             if l not in (PASS_BEGIN, PASS_END)))

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(stdout)
        sys.exit("perfbench: no result (exit code %d)" % proc.returncode)
    unfinished = unfinished_in_passes(stderr)
    if unfinished:
        result["correct"] = False
        # A run that did not finish may also have failed its own check.
        result["failed"] = min(result["attempted"],
                               result["failed"] + unfinished)
        if "pass_frac" in result["metrics"]:
            result["metrics"]["pass_frac"]["value"] = (
                (result["attempted"] - result["failed"]) / result["attempted"])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
