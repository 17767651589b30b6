"""Smoke test of the repository benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py -q``.
Each workload runs for about a second on a handful of requests, untraced
and traced, and must pass the correctness gate; the gate itself must turn a
perturbed response into a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ["wire_fixed", "stream_mixed", "batch_select"]


def _run(workload: str, trace: int) -> tuple[int, str, dict]:
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    return completed.returncode, completed.stdout + completed.stderr, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_the_gate(workload):
    code, output, result = _run(workload, 0)
    assert code == 0, output
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"setup_s", "latency_p50_ms", "latency_p99_ms", "throughput_rps"}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert "failed_share" in output and "environment" in output


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    sys.path.insert(0, str(ROOT / "perfbench"))
    from layers import PER_LAYER_UNITS

    code, output, result = _run(workload, 1)
    assert code == 0, output
    assert result["correct"] is True
    assert set(result["metrics"]) == set(PER_LAYER_UNITS)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["kernel.builds_timed"] == 0
    assert metrics["kernel.builds"] > 0
    assert metrics["deconvolver.fit_us"] > 0
    assert metrics["trace.traced_p50_ms"] > 0 and metrics["trace.untraced_p50_ms"] > 0
    if workload == "batch_select":
        assert metrics["lambda.kfold_ms"] > 0 and metrics["net.decode_us"] == 0
    else:
        assert metrics["net.decode_us"] > 0 and metrics["scheduler.submit_us"] > 0
    if workload == "stream_mixed":
        assert metrics["cache.hit_ratio"] > 0
    else:
        assert metrics["cache.hit_ratio"] == 0


def test_gate_rejects_a_perturbed_response():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from harness import Sample, check_responses
    from workloads import build_stack, wire_fixed_requests

    kernels, factory = build_stack(cells=400, grids=2)
    requests = wire_fixed_requests(kernels, 3, seed=1)
    reference = factory("reference")
    results = [reference.fit(r.times, r.measurements, lam=r.lam) for r in requests]
    samples = [Sample(i, 0.0, 0.0, 1.0, result) for i, result in enumerate(results)]
    assert check_responses(samples, requests, factory("check")) == []

    results[1].coefficients = results[1].coefficients + 1e-8
    samples[2].result, samples[2].error = None, RuntimeError("shed")
    failures = check_responses(samples, requests, factory("check"))
    assert [message.split(":")[0] for message in failures] == ["request 1", "request 2"]


def test_benchmark_json_lists_what_the_runs_print():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from layers import PER_LAYER_UNITS
    from run import END_TO_END_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    # batch_select runs through the same command but is not gated (README).
    assert [w["name"] for w in spec["workloads"]] == ["wire_fixed", "stream_mixed"]
