"""Smoke test for the benchmark. No timing bounds.

Runs every workload at tiny size (--seconds 1), untraced and traced, and
checks the result schema: every metric BENCHMARK.json names is reported
with its unit, no check failed, and the traced runs attribute time to the
layers each workload is meant to stress. Run it on its own; the package
tests under tests/ do not collect it:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
# the BENCHMARK.json workloads plus train-rayleigh, which runs on request
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["train-rayleigh"]


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_metric_with_its_unit(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]
        assert type(entry["value"]) in (int, float) and math.isfinite(entry["value"])
        assert entry["value"] >= 0
        assert f"\n{m['name']} = " in done.stdout, f"{m['name']} is not printed"
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
        return
    value = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert value["trace.overhead_ratio"] > 0
    if workload == "eval-sweep":
        # forward only: no training or GAN span at all
        assert value["train.self_share"] == 0 and value["gan.self_share"] == 0
        assert all(v == 0 for k, v in value.items() if k.startswith(("train.", "gan.")))
        assert value["transceiver.encode.ms_p50"] > 0 and value["baseline.self_share"] > 0
        assert 0 < value["evaluate.useful_trials_ratio"] <= 1
    else:
        assert value["train.phase_share.gan"] > 0.5
        assert value["nn.backward.gen.ms_p50"] > 0 and value["nn.matmul_gflop_per_step"] > 0
        assert value["evaluate.self_share"] == 0
        fading = workload == "train-rayleigh"
        assert (value["channel.fading_apply.ms_p50"] > 0) == fading
        assert (value["channel.awgn_apply.ms_p50"] > 0) == (not fading)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(str(tmp_path), WORKLOADS[0], 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
