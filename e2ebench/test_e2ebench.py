#!/usr/bin/env python3
"""The end-to-end benchmark's own tests.

Runs every workload at tiny size through run.py (building it first if
needed) and checks that the result line carries exactly the metrics
BENCHMARK.json declares, with their units; that the table prints every
end-to-end metric by name and unit; that all correctness checks pass;
and that a deliberately wrong answer stream is caught. Run from the
repository root:

    python3 e2ebench/test_e2ebench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_steady", "chaos_churn", "serve_mix")

# Every end-to-end metric the table prints, declared in BENCHMARK.json or
# not: the wall-clock figures the issue names, their CPU-time twins, the
# CPU time in runs of the reference kernel, and the counts (some of which
# are zero or do not apply on a workload).
TABLE_METRICS = {
    "source_ticks_per_s": "1/s",
    "cycle_p50_us": "us",
    "cycle_p99_us": "us",
    "checkpoint_pause_ms": "ms",
    "restore_s": "s",
    "setup_wall_s": "s",
    "cpu_us_per_source_tick": "us",
    "cycle_cpu_p50_us": "us",
    "cycle_cpu_p99_us": "us",
    "save_cpu_ms": "ms",
    "restore_cpu_s": "s",
    "setup_s": "s",
    "ref_kernel_us": "us",
    "norm_cost_per_source_tick": "mref",
    "norm_cycle_cost_p50": "ref",
    "uplink_bytes_per_source_tick": "B",
    "downlink_bytes_per_source_tick": "B",
    "answer_err_over_delta": "ratio",
    "degraded_answer_ratio": "ratio",
    "failed_op_ratio": "ratio",
    "rss_bytes_per_source": "B",
    "heap_bytes_per_source": "B",
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(workload, trace, *extra):
    """Runs one tiny workload; returns (exit code, stdout lines, result)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny"] + list(extra)
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return completed.returncode, lines, result


def table_value(lines, name):
    """The value a table row prints for `name`, or None for "-"."""
    for line in lines:
        fields = line.split()
        if fields and fields[0] == name:
            return None if fields[1] == "-" else float(fields[1])
    raise AssertionError("table has no row for %s" % name)


class EndToEndTest(unittest.TestCase):
    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], declared[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_untraced_runs_print_every_metric_and_pass_checks(self):
        declared = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, 0)
                self.assertEqual(code, 0)
                self.check_result(result, declared)
                for name, value in result["metrics"].items():
                    self.assertGreater(value["value"], 0, name)
                text = "\n".join(lines)
                for name, unit in TABLE_METRICS.items():
                    self.assertRegex(text, r"\n  %s +\S+ %s\b" %
                                     (name.replace(".", r"\."), unit))
                self.assertEqual(table_value(lines, "failed_op_ratio"), 0.0)

    def test_traced_runs_print_every_per_layer_metric(self):
        declared = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, 1)
                self.assertEqual(code, 0)
                self.check_result(result, declared)
                # The spans of every cycle add up to the cycle.
                self.assertEqual(
                    result["metrics"]["trace.reconcile_residual_ns"]["value"],
                    0)
                self.assertGreater(
                    result["metrics"]["runtime.shard_busy_us"]["value"], 0)

    def test_wrong_answers_are_counted_as_failures(self):
        code, lines, result = run("fleet_steady", 0, "--corrupt-answers")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(table_value(lines, "failed_op_ratio"), 0.0)


if __name__ == "__main__":
    unittest.main()
