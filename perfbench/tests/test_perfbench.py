"""Tests of the benchmark itself: smoke runs of every workload and helpers.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "3",
                      "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert "fail_ratio" in proc.stdout
    if workload == "fit":
        # the known defect stays visible in fail_ratio, not in `failed`
        assert "probe: exit 1: RuntimeError" in proc.stdout
    if trace:
        assert "span coverage" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "fit", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_names_match_benchmark_json():
    assert layers.names() == [m["name"] for m in SPEC["per_layer"]]
    assert all(layers.unit_of(m["name"]) == m["unit"] for m in SPEC["per_layer"])
    assert list(run.END_TO_END) == [m["name"] for m in SPEC["end_to_end"]]


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["d", 5.0, 6.0, 0, None]]
    assert layers.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_end_to_end_scales_times_by_the_median_calibration():
    samples = {"setup_s": [2.0, 1.0, 3.0], "wall_s": [5.0, 4.0],
               "peak_rss_mb": [100.0, 120.0], "simulate_s": [4.0, 5.0]}
    calibrations = [1.0, 2 * run.CAL_REF_S, 3.0]
    assert run.end_to_end(samples, calibrations) == {
        "setup_s": {"value": pytest.approx(1.0), "unit": "s"},
        "wall_s": {"value": pytest.approx(2.25), "unit": "s"},
        "peak_rss_mb": {"value": 110.0, "unit": "MB"}}


def test_tail_needs_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    assert run.tail(list(range(20))) == ("p50", 9)
    assert run.tail(list(range(100))) == ("p90", 89)


def test_import_self_times_sum_package_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       500 |        500 |     scipy.linalg._flapack",
        "import time:       100 |        900 |   scipy.linalg",
        "import time:      2000 |       2000 |   scipy.signal",
        "import time:        30 |       3000 | spharma",
        "import time:        40 |         40 |   spharma.sphere",
        "import time:         7 |          7 | scipy.signalling",
    ])
    got = layers.import_self_times(stderr)
    assert got == pytest.approx({"import.scipy_signal_s": 2000e-6,
                                 "import.scipy_linalg_s": 600e-6,
                                 "import.spharma_s": 70e-6})
