#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the repository root. Checks the benchmark's statistics
(percentiles with sample counts, pass_frac counting) and that its
fig08_err and fig03_err equal the values derived from the
bench/fig08_performance and bench/fig03_pb_stalls artifacts at the same
ops and seed.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import repo_benches  # noqa: E402
import run  # noqa: E402

SEED = 3


def benchmark(workload, seed, trace=0, seconds=1):
    """(result object, info lines) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        key, _, value = line[2:].partition(": ")
        info[key] = value
    return json.loads(lines[-1]), info, proc.returncode


def config(info):
    words = info["config"].split()
    return {k: int(v) for k, v in zip(words[::2], words[1::2])}


class Statistics(unittest.TestCase):
    def test_metrics_helpers(self):
        out = run.build("metrics_test")
        proc = subprocess.run([os.path.join(out, "metrics_test")],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class Fidelity(unittest.TestCase):
    def test_errors_match_figure_benches(self):
        result, info, code = benchmark("fig-sweep", SEED)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        cfg = config(info)
        self.assertEqual(cfg["seed"], SEED)
        bench_dir = repo_benches.build_benches(
            ["fig08_performance", "fig03_pb_stalls"])
        ref = repo_benches.fig_errors(bench_dir, cfg["fig_ops"], SEED)
        for name in ("fig08_err", "fig03_err"):
            self.assertAlmostEqual(result["metrics"][name]["value"],
                                   ref[name], places=12, msg=name)

    def test_workloads_report_the_same_fidelity(self):
        fig, _, _ = benchmark("fig-sweep", SEED)
        serve, _, _ = benchmark("serve-stream", SEED)
        for name in ("fig08_err", "fig03_err"):
            self.assertEqual(fig["metrics"][name]["value"],
                             serve["metrics"][name]["value"])


class Contract(unittest.TestCase):
    def test_unfinished_runs_count_only_inside_passes(self):
        warning = "warn: experiment cceh did not finish (runner.cc:1)"
        stderr = "\n".join([
            warning,  # set-up: not an attempted execution
            run.PASS_BEGIN, warning, "warn: other", warning, run.PASS_END,
            warning,  # untimed fidelity pass
            run.PASS_BEGIN, run.PASS_END,
            run.PASS_BEGIN, warning, run.PASS_END,
        ])
        self.assertEqual(run.unfinished_in_passes(stderr), 3)
        self.assertEqual(run.unfinished_in_passes(warning), 0)

    def test_pass_frac_counts_every_execution(self):
        result, info, code = benchmark("serve-stream", SEED)
        self.assertEqual(code, 0)
        passes = int(re.match(r"(\d+)", info["passes"]).group(1))
        self.assertEqual(result["attempted"], passes * 8)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["pass_frac"]["value"], 1)

    def test_traced_run_matches_untraced_fingerprints(self):
        untraced, uinfo, _ = benchmark("serve-stream", SEED)
        traced, tinfo, code = benchmark("serve-stream", SEED, trace=1)
        self.assertEqual(code, 0)
        self.assertTrue(traced["correct"])
        self.assertEqual(uinfo["fingerprint"], tinfo["fingerprint"])
        self.assertEqual(tinfo["traced jobs differing from untraced"], "0")
        self.assertIn("serve.requests", traced["metrics"])
        self.assertNotIn("wall_s", traced["metrics"])

    def test_seed_changes_inputs(self):
        _, a, _ = benchmark("serve-stream", SEED)
        _, b, _ = benchmark("serve-stream", SEED + 1)
        self.assertNotEqual(a["fingerprint"], b["fingerprint"])


if __name__ == "__main__":
    unittest.main()
