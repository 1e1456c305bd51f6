#!/usr/bin/env python3
"""End-to-end demo: joint multi-task fitting vs per-task baselines.

Generates a synthetic housing market with five data-starved regions, runs the
rolling monthly backtest for all three joint regularizers and the single-task
baselines, and prints the comparison tables of the run's report.md. Results
land in ./demo_results (override with --out).
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from mtlhouse.cli import main

DEMO_CONFIG = {
    "data": {
        "synthetic": {
            "n_tasks": 20,
            "n_features": 10,
            "samples_per_task_per_month": [[1, 2]] * 5 + [[8, 12]] * 15,
            "months": 15,
            "shared_support_size": 5,
            "coefficient_noise": 0.02,
            "observation_noise": 0.1,
            "seed": 77,
        }
    },
    "task_definitions": ["region:SA3", "region:SA4"],
    "methods": [
        {"label": "mtl_lasso", "kind": "mtl_lasso", "theta1": [1.0, 3.0]},
        {"label": "mtl_l21", "kind": "mtl_l21", "theta1": [1.0, 3.0]},
        {"label": "mtl_graph", "kind": "mtl_graph", "theta1": [0.5], "theta2": [1.0]},
        {"label": "ols", "kind": "ols"},
        {"label": "ridge", "kind": "ridge"},
        {"label": "lasso", "kind": "lasso", "penalty": [1.0]},
    ],
    "k": 3,
    "benchmark": "mtl_graph",
}


def run(out_dir: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "demo_config.json"
        config_path.write_text(json.dumps({**DEMO_CONFIG, "out_dir": out_dir}))
        code = main(["run", "--config", str(config_path)])
    if code != 0:
        return code
    print((Path(out_dir) / "report.md").read_text(encoding="utf-8"))
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_results", help="output directory")
    sys.exit(run(parser.parse_args().out))
