"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps public functions at the module attribute where their
callers look them up: ``from .solver import fit`` binds ``fit`` into
``mtlhouse.backtest`` at import, so it is wrapped as ``backtest.fit`` and
patching ``mtlhouse.solver.fit`` alone would miss every call. Each call
becomes a span (name, start, end, parent, counts); spans stay in memory and
are written out when the run ends. A span's self time is its duration minus
the part of it that its child spans cover, so the self times of all spans add
up to the root span: the traced ``run_s``.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

ROOT_SPAN = "cli.main"

# (module under mtlhouse, attribute pattern, layer)
WRAPPED = (
    ("backtest", "fit", "solver"),
    ("backtest", "fit_stl", "baselines"),
    ("baselines", "fit", "baselines"),
    ("baselines", "cv_ridge_penalty", "baselines"),
    ("backtest", "build_task_data", "design"),
    ("backtest", "design_rows", "design"),
    ("backtest", "define_tasks", "tasks"),
    ("backtest", "rmse", "metrics"),
    ("backtest", "mae", "metrics"),
    ("backtest", "aggregate", "metrics"),
    ("backtest", "wilcoxon_rank_sum", "metrics"),
    ("backtest", "win_loss_draw", "metrics"),
    ("cli", "run_backtest", "backtest"),
    ("cli", "dump_json", "reports"),
    ("cli", "write_*_csv", "reports"),
    ("config", "load_dataset", "data"),
    ("config", "generate_synthetic", "synthetic"),
)
LAYERS = ("cli", "backtest", "solver", "baselines", "design", "tasks", "metrics", "reports", "data", "synthetic")
SOLVER_KINDS = ("lasso", "group_l21", "graph")
STL_KINDS = ("ols", "ridge", "lasso")


def _rows(data) -> int:
    return sum(x.shape[0] for x in data.xs)


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


# Counts taken from a wrapped call's arguments and return value, by span name;
# every reports-layer span also records the size of the file it wrote.
COUNTERS: dict[str, Callable] = {
    "backtest.fit": lambda a, k, r: {
        "kind": a[1].kind,
        "iters": r.iterations,
        "converged": r.converged,
        "rows": _rows(a[0]),
        "window_months": a[0].window[1] - a[0].window[0] + 1,
    },
    "backtest.fit_stl": lambda a, k, r: {"kind": a[1].kind},
    "baselines.fit": lambda a, k, r: {"iters": r.iterations},
    "backtest.build_task_data": lambda a, k, r: {"rows": _rows(r)},
    "backtest.design_rows": lambda a, k, r: {"rows": r.shape[0]},
    "backtest.define_tasks": lambda a, k, r: {"tasks": len(r.tasks)},
    "backtest.aggregate": lambda a, k, r: {"records": len(a[0])},
    "cli.run_backtest": lambda a, k, r: {
        "k": a[3].k,
        "rounds": len(a[3].rounds),
        "skipped": len(r[1].skipped_rounds),
    },
    "config.load_dataset": lambda a, k, r: {"records": len(r)},
}


class SpanRecorder:
    """Records one span per call of each wrapped function (single-threaded runs)."""

    def __init__(self, keep_first_fits: bool = False):
        self.spans: list[dict] = []
        self.first_fits: dict = {}  # regularizer kind -> (data, reg, result)
        self._keep_first_fits = keep_first_fits
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def call(self, name: str, counter: Optional[Callable], fn: Callable, *args, **kwargs):
        span = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span.update(counter(args, kwargs, result))
        if self._keep_first_fits and name == "backtest.fit":
            self.first_fits.setdefault(args[1].kind, (args[0], args[1], result))
        return result

    def install(self) -> None:
        for module_name, pattern, layer in WRAPPED:
            module = importlib.import_module(f"mtlhouse.{module_name}")
            names = fnmatch.filter([n for n in vars(module) if not n.startswith("_")], pattern)
            if not names:
                raise LookupError(f"mtlhouse.{module_name} has no attribute matching {pattern!r}")
            for attr in names:
                name = f"{module_name}.{attr}"
                counter = COUNTERS.get(name, _file_bytes if layer == "reports" else None)
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, counter, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrapper(self, name: str, counter: Optional[Callable], original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, counter, original, *args, **kwargs)

        return wrapper


def layer_of(name: str) -> str:
    if name == ROOT_SPAN:
        return "cli"
    module, attr = name.split(".", 1)
    for wrapped_module, pattern, layer in WRAPPED:
        if module == wrapped_module and fnmatch.fnmatchcase(attr, pattern):
            return layer
    raise KeyError(f"no layer for span {name!r}")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the union of its children's intervals inside it."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children[span["id"]]):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out


def layer_metrics(spans: list[dict], cpu_s: float) -> dict[str, float]:
    """Per-layer counts, busy times and self times of one traced run."""
    by_id = {s["id"]: s for s in spans}
    named = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)

    def busy(group) -> float:
        return sum(s["end"] - s["start"] for s in group)

    def total(group, key) -> int:
        return sum(s.get(key, 0) for s in group)  # a call that raised has no counts

    def round_k(span) -> int:
        while span["name"] != "cli.run_backtest":
            span = by_id[span["parent"]]
        return span["k"]

    m: dict[str, float] = {}
    fits = named["backtest.fit"]
    for kind in SOLVER_KINDS:
        group = [s for s in fits if s.get("kind") == kind]
        iters = total(group, "iters")
        m[f"solver.{kind}.fits"] = len(group)
        m[f"solver.{kind}.busy_s"] = busy(group)
        m[f"solver.{kind}.iters"] = iters
        m[f"solver.{kind}.ms_per_iter"] = 1000.0 * busy(group) / iters if iters else 0.0
        m[f"solver.{kind}.unconverged"] = sum(not s.get("converged") for s in group)
    select = [s for s in fits if s.get("window_months", 0) < round_k(s)]
    m["solver.select.fits"] = len(select)
    m["solver.select.busy_s"] = busy(select)

    for kind in STL_KINDS:
        m[f"baselines.{kind}.busy_s"] = busy(s for s in named["backtest.fit_stl"] if s.get("kind") == kind)
    m["baselines.ridge_cv.calls"] = len(named["baselines.cv_ridge_penalty"])
    m["baselines.ridge_cv.busy_s"] = busy(named["baselines.cv_ridge_penalty"])
    m["baselines.lasso.solver_fits"] = len(named["baselines.fit"])
    m["baselines.lasso.iters"] = total(named["baselines.fit"], "iters")

    m["data.load.busy_s"] = busy(named["config.load_dataset"])
    m["data.load.records"] = total(named["config.load_dataset"], "records")
    m["synthetic.generate.busy_s"] = busy(named["config.generate_synthetic"])
    m["tasks.define.busy_s"] = busy(named["backtest.define_tasks"])
    m["tasks.count"] = total(named["backtest.define_tasks"], "tasks")
    builds = named["backtest.build_task_data"]
    m["design.build.calls"] = len(builds)
    m["design.build.rows"] = total(builds, "rows")
    m["design.build.busy_s"] = busy(builds)
    m["design.encode.rows"] = total(named["backtest.design_rows"], "rows")
    m["design.encode.busy_s"] = busy(named["backtest.design_rows"])
    m["backtest.rounds"] = total(named["cli.run_backtest"], "rounds")
    m["backtest.rounds_skipped"] = total(named["cli.run_backtest"], "skipped")
    m["metrics.busy_s"] = busy(s for s in spans if layer_of(s["name"]) == "metrics")
    m["metrics.records"] = total(named["backtest.aggregate"], "records")
    reports = [s for s in spans if layer_of(s["name"]) == "reports"]
    m["reports.busy_s"] = busy(reports)
    m["reports.bytes"] = total(reports, "bytes")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        layer_self[layer_of(span["name"])] += own
    for layer, own in layer_self.items():
        m[f"{layer}.self_s"] = own
    m["cli.cpu_s"] = cpu_s
    root = named[ROOT_SPAN]
    m["trace.run_s"] = busy(root)
    return m


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Metric-by-metric median over several traced runs."""
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def accuracy_probe(first_fits: dict) -> dict[str, float]:
    """Re-solve each kind's first joint fit much more tightly and compare.

    Returns the largest relative objective excess and the largest absolute
    weight difference over the kinds probed.
    """
    import numpy as np
    from mtlhouse.solver import SolverParams, build_task_graph, fit, objective

    params = SolverParams(max_iters=20000, rel_tol=1e-13)
    excess, weight_err = 0.0, 0.0
    for data, reg, result in first_fits.values():
        ref = fit(data, reg, params)
        graph = build_task_graph(data) if reg.kind == "graph" else None
        f_fit = objective(result.weights, data, reg, graph)
        f_ref = objective(ref.weights, data, reg, graph)
        excess = max(excess, (f_fit - f_ref) / abs(f_ref))
        weight_err = max(weight_err, float(np.max(np.abs(result.weights.values - ref.weights.values))))
    return {"solver.obj_excess_max": excess, "solver.weight_err_max": weight_err}
