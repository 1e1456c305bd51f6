"""Tests of the benchmark itself: span arithmetic and reduced-size smoke runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from spans import layer_metrics, self_times
from workloads import CONFIG_FILE, OUT_DIR, WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _span(i, name, start, end, parent=None, **counts):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, **counts}


def test_self_times_on_a_hand_built_tree():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "cli.run_backtest", 1.0, 8.0, 0, k=3, rounds=2, skipped=0),
        _span(2, "backtest.build_task_data", 1.5, 2.5, 1, rows=40),
        _span(3, "backtest.fit", 3.0, 6.0, 1, kind="lasso", iters=30, converged=True, rows=40, window_months=3),
        _span(4, "backtest.fit", 5.0, 7.0, 1, kind="lasso", iters=10, converged=False, rows=30, window_months=2),
        _span(5, "cli.dump_json", 9.0, 11.0, 0, bytes=100),  # reaches past its parent
    ]
    # root: 10 minus [1, 8] and the clipped [9, 10]; run_backtest: 7 minus [1.5, 2.5] u [3, 7]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 3.0, 2.0, 2.0])

    m = layer_metrics(spans, cpu_s=9.5)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["backtest.self_s"] == pytest.approx(2.0)
    assert m["solver.self_s"] == pytest.approx(5.0)
    assert m["solver.lasso.fits"] == 2 and m["solver.lasso.unconverged"] == 1
    assert m["solver.lasso.ms_per_iter"] == pytest.approx(1000.0 * 5.0 / 40)
    assert m["solver.select.fits"] == 1 and m["solver.select.busy_s"] == pytest.approx(2.0)
    assert m["design.build.rows"] == 40 and m["reports.bytes"] == 100
    assert m["trace.run_s"] == pytest.approx(10.0)


def _declared(group):
    return {m["name"] for m in BENCHMARK[group]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_declared_metric(name, tmp_path, monkeypatch):
    # the benchmark's runs ignore the CLI's environment overrides
    monkeypatch.setenv("MTLHOUSE_OUT", str(tmp_path / "elsewhere"))
    monkeypatch.setenv("MTLHOUSE_THREADS", "2")
    workload = WORKLOADS[name]
    workdir = tmp_path / name

    plain = run.run_workload(workload, seed=5, seconds=0, trace=False, smoke=True, workdir=workdir)
    assert plain["result"]["correct"], plain["reps"]
    metrics = plain["result"]["metrics"]
    assert set(metrics) == _declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())
    report = (workdir / OUT_DIR / "report.json").read_bytes()

    traced = run.run_workload(workload, seed=5, seconds=0, trace=True, smoke=True, workdir=workdir)
    assert traced["result"]["correct"], traced["reps"]
    layers = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    assert set(layers) == _declared("per_layer")
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(layers["trace.run_s"], rel=1e-9)
    assert (workdir / OUT_DIR / "report.json").read_bytes() == report  # tracing changes no byte

    # a plain `mtlhouse run` of the same config into the same path writes the same bytes
    env = {**run.child_env(), "PYTHONPATH": str(run.ROOT / "src")}
    subprocess.run(
        [sys.executable, "-m", "mtlhouse.cli", "run", "--config", str(workdir / CONFIG_FILE)],
        cwd=run.ROOT, env=env, check=True, capture_output=True, timeout=120,
    )
    assert (workdir / OUT_DIR / "report.json").read_bytes() == report


def test_demo_traced_run_probes_solver_accuracy(tmp_path):
    traced = run.run_workload(WORKLOADS["demo"], seed=5, seconds=0, trace=True, smoke=True, workdir=tmp_path)
    metrics = traced["result"]["metrics"]
    assert 0 < metrics["solver.weight_err_max"]["value"] < 1.0
    assert 0 <= metrics["solver.obj_excess_max"]["value"] < 1e-3


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "demo", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
