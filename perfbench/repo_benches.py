"""Build and run the repository's own benches as references for the
benchmark's cross-checks: the figure benches that fig08_err and
fig03_err must agree with, and crash_campaign for the model/predicate
pairs the crash-check workload leaves out."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIG08_PAPER = 2.29
FIG03_PAPER = 26.0


def build_benches(targets):
    """Build bench @targets with the repository's own build files;
    returns the directory holding the bench binaries."""
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "repo")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", ROOT, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs, "--target"] + targets):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(out, "bench")


def _sweep(binary, ops, seed):
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        path = os.path.join(tmp, "sweep.json")
        subprocess.run([binary, "--ops", str(ops), "--seed", str(seed),
                        "--jobs", "4", "--json", path],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       check=True)
        with open(path) as f:
            return json.load(f)["results"]


def fig_errors(bench_dir, ops, seed):
    """fig08_err and fig03_err from fig08_performance and
    fig03_pb_stalls artifacts, with the benches' own arithmetic
    (gmean of speedups, amean of blocked %)."""
    cells = {(r["workload"], r["model"], r["persistency"]): r
             for r in _sweep(os.path.join(bench_dir, "fig08_performance"),
                             ops, seed)}
    names = [w for (w, m, p) in cells if m == "baseline"]
    log_sum = sum(math.log(cells[(w, "baseline", "rp")]["runTicks"] /
                           cells[(w, "asap", "rp")]["runTicks"])
                  for w in names)
    gmean = math.exp(log_sum / len(names))
    pcts = [100.0 * r["cyclesBlocked"] / (r["runTicks"] * r["cores"])
            for r in _sweep(os.path.join(bench_dir, "fig03_pb_stalls"),
                            ops, seed)]
    mean = sum(pcts) / len(pcts)
    return {"fig08_gmean": gmean, "fig03_mean": mean,
            "fig08_err": abs(gmean - FIG08_PAPER) / FIG08_PAPER,
            "fig03_err": abs(mean - FIG03_PAPER) / FIG03_PAPER}


def crash_inconsistent(bench_dir, models, ops, ticks, seed):
    """(crash points, inconsistent points) of one crash_campaign run."""
    proc = subprocess.run(
        [os.path.join(bench_dir, "crash_campaign"), "--ops", str(ops),
         "--ticks", str(ticks), "--seed", str(seed), "--models", models,
         "--jobs", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    m = re.search(r"campaign: (\d+) crash points, \d+ consistent, "
                  r"(\d+) inconsistent", proc.stdout)
    if not m:
        raise RuntimeError("crash_campaign printed no summary")
    return int(m.group(1)), int(m.group(2))
