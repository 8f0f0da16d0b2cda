"""Smoke checks of the benchmark at tiny scale.

    python3 -m pytest perfbench/check_smoke.py -q

Kept out of the default test discovery (the file name does not match
test_*.py) because every case starts several interpreter processes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(workload, trace, seed=3, root=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digests = next(line for line in lines if line.startswith("digests "))
    return json.loads(lines[-1]), digests


def _check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_workload_end_to_end_and_traced(workload):
    first, digests = _run(workload, trace=0)
    _check_metrics(first, BENCH["end_to_end"])
    second, digests_again = _run(workload, trace=0)
    _check_metrics(second, BENCH["end_to_end"])
    assert digests == digests_again
    traced, traced_digests = _run(workload, trace=1)
    _check_metrics(traced, BENCH["per_layer"])
    assert traced_digests == digests
    m = traced["metrics"]
    for count in ("kernels.hinge_grad.calls", "kernels.scores.calls",
                  "core.score_dataset.calls", "drift.slot_layout.calls",
                  "io.load_dataset.calls"):
        assert isinstance(m[count]["value"], int) and m[count]["value"] > 0
    # compare loads once and trains 3 models; drift and eval load once each
    assert m["io.load_dataset.calls"]["value"] == 3
    wl = W.WORKLOADS[workload]
    assert m["kernels.hinge_grad.calls"]["value"] == 3 * wl.tiny_iters


def _copy_benchmark(dest):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("trace", [0, 1])
def test_failing_package_is_not_correct(tmp_path, trace):
    """At a seed without a committed digest, calls that all exit non-zero still fail the gate."""
    _copy_benchmark(tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "driftguard" / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef run(argv=None):\n    return 1\n")
    result, _digests = _run("ref-train", trace, seed=5, root=tmp_path)
    assert result["correct"] is False
    assert result["attempted"] >= 2 and result["failed"] == result["attempted"]


def test_bare_benchmark_directory_fails(tmp_path):
    """Without the package sources the benchmark exits non-zero and prints no result."""
    _copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
