#!/usr/bin/env python3
"""A many-task run: 1,500 small regions, two rolling rounds.

Generates a synthetic market of 1,500 ``region:SA3`` tasks with 2-6 sales per
task and month over 5 months, and backtests ``mtl_l21`` (theta1 = 3),
``mtl_lasso`` (theta1 = 1), ``ols`` and ``ridge`` with its cross-validated
penalty at k = 3 training months, which makes 2 rounds. Prints the wall time of
the run and each solver kind's fits and iterations. Results land in a
temporary directory (keep them with --out).

    PYTHONPATH=src python scripts/many_tasks.py

A solver fit that does not converge is logged to standard error as
"... did not converge ...".
"""

import argparse
import collections
import json
import sys
import tempfile
import time
from pathlib import Path

import mtlhouse.backtest
from mtlhouse.cli import main

CONFIG = {
    "data": {
        "synthetic": {
            "n_tasks": 1500,
            "n_features": 10,
            "samples_per_task_per_month": [2, 6],
            "months": 5,
            "shared_support_size": 5,
            "coefficient_noise": 0.02,
            "observation_noise": 0.1,
            "seed": 604,
        }
    },
    "task_definitions": ["region:SA3"],
    "methods": [
        {"label": "mtl_l21", "kind": "mtl_l21", "theta1": [3.0]},
        {"label": "mtl_lasso", "kind": "mtl_lasso", "theta1": [1.0]},
        {"label": "ols", "kind": "ols"},
        {"label": "ridge", "kind": "ridge"},
    ],
    "k": 3,
    "benchmark": "ridge",
}


def run(out_dir: str) -> int:
    fits = collections.Counter()
    iterations = collections.Counter()
    fit = mtlhouse.backtest.fit

    def counted_fit(data, reg, *args, **kwargs):
        result = fit(data, reg, *args, **kwargs)
        fits[reg.kind] += 1
        iterations[reg.kind] += result.iterations
        return result

    mtlhouse.backtest.fit = counted_fit
    try:
        with tempfile.TemporaryDirectory() as tmp:
            config_path = Path(tmp) / "many_tasks_config.json"
            config_path.write_text(json.dumps({**CONFIG, "out_dir": out_dir or str(Path(tmp) / "out")}))
            start = time.perf_counter()
            code = main(["run", "--config", str(config_path)])
            wall = time.perf_counter() - start
    finally:
        mtlhouse.backtest.fit = fit
    print(f"wall time {wall:.2f} s")
    for kind in sorted(fits):
        print(f"{kind}: {fits[kind]} fits, {iterations[kind]} iterations")
    return code


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=None, help="output directory (default: a temporary one)")
    sys.exit(run(parser.parse_args().out))
