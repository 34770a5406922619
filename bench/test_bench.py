"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from koopmetrics import cli, conjugacy, linalg  # noqa: E402
from tracing import SPAN_NAMES, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace, section):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _ops_failed(result) -> tuple[int, int]:
    return len(result.ops), sum(1 for _, msgs in result.ops if msgs)


def test_failed_check_is_counted_not_dropped(tmp_path, monkeypatch):
    wl = workloads.RandomCompare(str(tmp_path), tiny=True)
    wl.setup(1)
    clean = wl.run_pass(Tracer().pause)
    assert _ops_failed(clean) == (2, 0)

    original = conjugacy.compare

    def unordered(*args):
        report = original(*args)
        bad = conjugacy.DeviationTriple(d_min=1.0, d_avg=0.5, d_max=0.25)
        return dataclasses.replace(report, deviations=bad)

    monkeypatch.setattr(conjugacy, "compare", unordered)
    assert _ops_failed(wl.run_pass(Tracer().pause)) == (2, 2)

    def raising(*args):
        raise conjugacy.ContractViolationError("boom")

    monkeypatch.setattr(conjugacy, "compare", raising)
    result = wl.run_pass(Tracer().pause)
    assert _ops_failed(result) == (2, 2)
    assert all("boom" in f for f in result.failures)


def _exit_1(argv):
    return 1


def _raise(argv):
    raise KeyError("nPsi")


@pytest.mark.parametrize("fake_main", [_exit_1, _raise])
def test_failed_cli_call_is_counted(tmp_path, monkeypatch, fake_main):
    wl = workloads.HoppingFlow(str(tmp_path), tiny=True)
    wl.setup(1)
    monkeypatch.setattr(cli, "main", fake_main)
    result = wl.run_pass(Tracer().pause)
    assert _ops_failed(result) == (6, 6)


def test_self_comparisons_checked_outside_the_timed_operations(tmp_path, monkeypatch):
    wl = workloads.RandomCompare(str(tmp_path), tiny=True)
    wl.setup(1)
    assert [op for op, *_ in wl.self_comparisons()] == ["compare n=16 f-f", "compare n=32 f-f"]

    original = conjugacy.compare

    def off_zero(*args):
        report = original(*args)
        bad = conjugacy.DeviationTriple(d_min=0.0, d_avg=0.5, d_max=1.0)
        return dataclasses.replace(report, deviations=bad)

    monkeypatch.setattr(conjugacy, "compare", off_zero)
    selfs = wl.self_comparisons()
    assert [d_max for _, d_max, _ in selfs] == [1.0, 1.0]
    assert all("self-comparison d_max=1 exceeds" in msgs[0] for _, _, msgs in selfs)
    assert all(op.endswith("f-g") for op, _ in wl.run_pass(Tracer().pause).ops)


def test_check_tolerances_scale_with_n():
    assert checks.tolerance(1024) > checks.tolerance(256) > checks.tolerance(3) > 0
    assert checks.self_checks(256, 0.5 * checks.tolerance(256)) == []
    assert checks.self_checks(256, 2.0 * checks.tolerance(256))
    assert checks.deviation_checks(3, 0.1, 0.2, 0.3, 0.1, 0.3, 0.2, 0.1) == []
    assert checks.deviation_checks(3, 0.3, 0.2, 0.1, 0.1, 0.3, 0.2, 0.1)
    assert checks.deviation_checks(3, 0.1, 0.2, 0.3, 0.3, 0.3, 0.2, 0.1)
    nan = float("nan")
    assert checks.sweep_row_checks((1.0, 1.0) + (nan,) * 8 + ("ValueError: x",))
    good = (1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "")
    other = (0.5, 1.0, 0.1, 0.2, 0.3, 0.1, 0.3, 0.2, 0.1, 0.0, "")
    assert checks.sweep_minimum_checks([other, good]) == []
    assert checks.sweep_minimum_checks([other[:3] + (-1.0,) + other[4:], good])


def test_tracer_sees_calls_through_module_globals_and_restores():
    import numpy as np

    original_svd = linalg.svd
    tracer = Tracer()
    tracer.install()
    try:
        conjugacy.lsq_transform(np.eye(3), 2 * np.eye(3))
    finally:
        tracer.uninstall()
    names = [name for name, *_ in tracer.spans]
    assert names == ["conjugacy.lsq_transform", "linalg.pinv", "linalg.svd"]
    assert [parent for _, parent, *_ in tracer.spans] == [-1, 0, 1]
    summary = tracer.summary()
    assert set(summary) == set(SPAN_NAMES) and len(SPAN_NAMES) == 30
    assert summary["linalg.pinv"]["self_s"] <= summary["linalg.pinv"]["s"]
    assert linalg.svd is original_svd and conjugacy.pinv is linalg.pinv
