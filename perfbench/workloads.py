"""The benchmark's workloads: experiment configs and input files made from a seed.

Each workload is one ``mtlhouse run`` config. The seed only enters the
synthetic generator parameters, so the same seed always gives the same
inputs, and the program receives nothing but the generated config (and, for
the file-sourced workload, the generated CSV).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

CONFIG_FILE = "config.json"
DATASET_FILE = "dataset.csv"
OUT_DIR = "out"
K = 3  # training months per backtest round, the same for every workload

_MARKET = {
    "n_features": 10,
    "shared_support_size": 5,
    "coefficient_noise": 0.02,
    "observation_noise": 0.1,
}


@dataclass(frozen=True)
class Workload:
    name: str
    generator: dict  # synthetic generator parameters, without the seed
    smoke_generator: dict  # overrides that shrink the workload for the smoke tests
    definitions: tuple[str, ...]
    methods: tuple[dict, ...]
    from_file: bool = False  # write the data to a CSV and load it through `path`
    probe: bool = False  # re-solve the first joint fit of each kind in traced runs
    benchmark: Optional[str] = None

    def generator_params(self, seed: int, smoke: bool = False) -> dict:
        params = {**_MARKET, **self.generator}
        if smoke:
            params.update(self.smoke_generator)
        return {**params, "seed": seed}

    def config(self, seed: int, workdir: Path, smoke: bool = False) -> dict:
        params = self.generator_params(seed, smoke)
        if self.from_file:
            data = {
                "path": (workdir / DATASET_FILE).as_posix(),
                "schema": "synthetic",
                "n_features": params["n_features"],
            }
        else:
            data = {"synthetic": params}
        config = {
            "data": data,
            "task_definitions": list(self.definitions),
            "methods": [dict(m) for m in self.methods],
            "k": K,
            "out_dir": (workdir / OUT_DIR).as_posix(),
        }
        if self.benchmark is not None:
            config["benchmark"] = self.benchmark
        return config


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="demo",
            # the scripts/run_demo.py config, copied so later edits cannot move it
            generator={
                "n_tasks": 20,
                "samples_per_task_per_month": [[1, 2]] * 5 + [[8, 12]] * 15,
                "months": 15,
            },
            smoke_generator={
                "n_tasks": 8,
                "samples_per_task_per_month": [[1, 2]] * 2 + [[8, 12]] * 6,
                "months": 6,
            },
            definitions=("region:SA3", "region:SA4"),
            methods=(
                {"label": "mtl_lasso", "kind": "mtl_lasso", "theta1": [1.0, 3.0]},
                {"label": "mtl_l21", "kind": "mtl_l21", "theta1": [1.0, 3.0]},
                {"label": "mtl_graph", "kind": "mtl_graph", "theta1": [0.5], "theta2": [1.0]},
                {"label": "ols", "kind": "ols"},
                {"label": "ridge", "kind": "ridge"},
                {"label": "lasso", "kind": "lasso", "penalty": [1.0]},
            ),
            benchmark="mtl_graph",
            probe=True,
        ),
        # runnable, but not among BENCHMARK.json's workloads: see README.md
        Workload(
            name="wide_graph",
            generator={"n_tasks": 200, "samples_per_task_per_month": [2, 6], "months": 5},
            smoke_generator={"n_tasks": 24},
            definitions=("region:SA3",),
            methods=(
                {"label": "mtl_graph", "kind": "mtl_graph", "theta1": [0.5], "theta2": [1.0]},
                {"label": "mtl_l21", "kind": "mtl_l21", "theta1": [3.0]},
                {"label": "ridge", "kind": "ridge"},
            ),
        ),
        Workload(
            name="tall_file",
            generator={"n_tasks": 100, "samples_per_task_per_month": [30, 60], "months": 24},
            smoke_generator={"n_tasks": 8, "months": 6},
            definitions=("region:SA3",),
            methods=({"label": "ols", "kind": "ols"}, {"label": "ridge", "kind": "ridge"}),
            from_file=True,
        ),
    )
}


# mtlhouse is imported inside the functions below: importing it is part of the
# set-up time that perfbench/child.py measures.


def generate(workload: Workload, seed: int, smoke: bool = False):
    """The workload's dataset, exactly as the program will see it."""
    from mtlhouse.synthetic import SyntheticConfig, generate_synthetic

    params = workload.generator_params(seed, smoke)
    return generate_synthetic(SyntheticConfig.from_dict(params))[0]


def write_inputs(workload: Workload, seed: int, workdir: Path, smoke: bool = False) -> Path:
    """Write the run's config, and for a file source its CSV; return the config path."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload.from_file:
        from mtlhouse.data import save_dataset

        save_dataset(generate(workload, seed, smoke), workdir / DATASET_FILE)
    path = workdir / CONFIG_FILE
    path.write_text(json.dumps(workload.config(seed, workdir, smoke), indent=2) + "\n")
    return path
