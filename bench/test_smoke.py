"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
and that a wrong output is counted as failed, never as a success.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_spec_names_the_workloads_the_runner_knows():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["bench"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines[-2]
    assert result["attempted"] >= 1
    wanted = _spec()["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_injected_wrong_output_counts_as_failed(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import liouwit

    honest = liouwit.sign_change_report

    def off_by_one(d, bound):
        report = honest(d, bound)
        return dataclasses.replace(report, count_minus=report.count_minus + 1)

    monkeypatch.setattr(liouwit, "sign_change_report", off_by_one)
    reqs = workloads.requests("sign-sieve", 7, "smoke")
    result = worker.run_rep("sign-sieve", "smoke", reqs, None)
    result["traced"] = False
    assert [op["status"] for op in result["ops"]] == ["wrong"] * len(reqs)

    summary = run.summarize([result, result])
    assert not summary["correct"]
    assert summary["attempted"] == summary["failed"] == len(reqs)
    assert summary["failures_by_cause"] == {"wrong": 2 * len(reqs)}
    assert summary["problems"]


def test_wrong_cli_output_counts_as_failed():
    call = {"argv": ["lambda", "12", "--json"], "ok": [0], "defect": None, "check": "lambda12"}
    envelope = {"schema_version": "1.0.0", "result": {
        "lambda": 1, "factorization": {"sign": 1, "factors": [["2", 2], ["3", 1]]}}}
    child = run.Child(0, 0.5, 0.4, 50.0, json.dumps(envelope), "")
    status, problems = run.Run._cli_status(call, child)
    assert status == "wrong" and problems

    garbled = run.Child(0, 0.5, 0.4, 50.0, json.dumps({"schema_version": "1.0.0"}), "")
    status, problems = run.Run._cli_status(dict(call, check="pell6"), garbled)
    assert status == "wrong" and problems

    crashed = run.Child(1, 0.5, 0.4, 50.0, "", "Traceback (most recent call last):\nKeyError: 'x'")
    status, _ = run.Run._cli_status(call, crashed)
    assert status.startswith("unattributed")
    assert not run.summarize([{"ops": [{"status": status}], "check_problems": []}])["correct"]
