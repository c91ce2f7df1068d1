"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import harness
import sepscope
import sepscope.cli
import tracing
import workloads

with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(harness.BENCH_DIR, "run.py"), "--tiny",
         "--seconds", "0", "--seed", "11", *args],
        capture_output=True, text=True, timeout=170, check=True, cwd=harness.ROOT,
    )
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, trace):
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    result, stdout = _run("--workload", workload, "--trace", str(trace))
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.split()[::2] == [metric["name"], metric["unit"]]
                   for line in stdout.splitlines())


def _bindings() -> dict:
    """Every function object the package's modules and their dicts hold, by place."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "sepscope" or key.startswith("sepscope."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(key, attr)] = value
                elif isinstance(value, dict):
                    out.update(((key, attr, k), v) for k, v in value.items() if callable(v))
    out["DensityMatrix.__post_init__"] = sepscope.linalg.DensityMatrix.__dict__["__post_init__"]
    return out


def test_traced_run_restores_every_original():
    before = _bindings()
    result, details = harness.run_workload("verify-all", 3, 0.0, trace=True, tiny=True)
    assert result["metrics"]["realign.realign.calls"]["value"] > 0
    assert details["spans"] and not details["absent"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(sepscope.criteria, "realigned_trace")
    with tracing.Tracer() as tracer:
        pass
    metrics = tracing.pass_metrics(tracer)
    assert tracer.missing == ["criteria.realigned_trace"]
    assert "criteria.realigned_trace.calls" not in metrics
    assert "criteria.full_report.calls" in metrics


def test_corrupted_output_counts_as_failed(monkeypatch):
    original = sepscope.cli.main

    def flipped_ccn_flag(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = original(argv)
        text = buf.getvalue()
        if '"ccn_flag": true' in text:
            text = text.replace('"ccn_flag": true', '"ccn_flag": false')
        else:
            text = text.replace('"ccn_flag": false', '"ccn_flag": true')
        sys.stdout.write(text)
        return code

    monkeypatch.setattr(sepscope.cli, "main", flipped_ccn_flag)
    result, details = harness.run_workload("analyze-large", 3, 0.0, trace=False, tiny=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["passed_frac"]["value"] == 0.0
    assert any("ccn_flag" in problem for problem in details["problems"])
