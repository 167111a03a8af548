"""Checks of the benchmark itself (not part of the library's test suite).

Run from the root of a checkout:

    python3 -m pytest perfbench/test_trace_counts.py

Two traced runs at one seed must give identical operation counts, layers
predicted idle must read zero calls, and the metric names the benchmark
prints must be the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

# deterministic per-layer metrics: everything that is not a time
COUNT_SUFFIXES = (".calls", ".rows", ".terms_out", ".max_k", ".dup_frac")


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(COUNT_SUFFIXES) or k in ("trace.requests",
                                                   "trace.spans")}


def test_counts_repeat_exactly_and_idle_layers_read_zero():
    first = _traced("classify-exact", 5)
    second = _traced("classify-exact", 5)
    assert first["correct"] and second["correct"]
    counts = _counts(first)
    assert counts == _counts(second)
    assert counts["scalar.Scalar.mul.calls"] > 0
    assert counts["connection.build_report.calls"] > 0
    assert counts["twistor.calls"] == 0
    assert counts["twistor.FiberFunction.mul.calls"] == 0
    assert counts["upsilon.calls"] == 0


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(PER_LAYER)
