#!/usr/bin/env python3
"""Grid choices of the demo run against those of a tight solve.

Runs the ``scripts/run_demo.py`` config, its synthetic market drawn with
``--seed``, twice: once as it is, and once with every solver method at
``{"rel_tol": 1e-14, "max_iters": 100000}``. Each run records the grid point
that ``mtlhouse.backtest._select_grid_point`` picks for every
(definition, round, method) with more than one grid point. Prints each
choice of both runs, then the choices on which they disagree and their
count. It only reports: the exit status is the runs' own.

    PYTHONPATH=src python scripts/grid_choices.py --seed 604
"""

import argparse
import contextlib
import json
import sys
import tempfile
from pathlib import Path

import mtlhouse.backtest
from mtlhouse.cli import main
from run_demo import DEMO_CONFIG

TIGHT = {"rel_tol": 1e-14, "max_iters": 100000}


def config(seed: int, tight: bool) -> dict:
    data = {"synthetic": {**DEMO_CONFIG["data"]["synthetic"], "seed": seed}}
    methods = [
        {**m, "solver": TIGHT} if tight and mtlhouse.backtest.METHODS[m["kind"]][0] else m
        for m in DEMO_CONFIG["methods"]
    ]
    return {**DEMO_CONFIG, "data": data, "methods": methods}


def choices(run_config: dict) -> tuple[int, dict]:
    """The run's exit code and its grid choices, {(where, label): point}, where
    ``where`` names the definition and round."""
    chosen = {}
    select = mtlhouse.backtest._select_grid_point

    def recording_select(spec, held_out, inner_fits, where, *args, **kwargs):
        point, start = select(spec, held_out, inner_fits, where, *args, **kwargs)
        if len(spec.grid_points()) > 1:
            chosen[where, spec.label] = point
        return point, start

    mtlhouse.backtest._select_grid_point = recording_select
    try:
        with tempfile.TemporaryDirectory() as tmp:
            config_path = Path(tmp) / "grid_choices_config.json"
            config_path.write_text(json.dumps({**run_config, "out_dir": str(Path(tmp) / "out")}))
            with contextlib.redirect_stdout(sys.stderr):
                code = main(["run", "--config", str(config_path)])
    finally:
        mtlhouse.backtest._select_grid_point = select
    return code, chosen


def run(seed: int) -> int:
    kinds = {m["label"]: m["kind"] for m in DEMO_CONFIG["methods"]}
    code, default = choices(config(seed, tight=False))
    if code:
        return code
    code, tight = choices(config(seed, tight=True))
    if code:
        return code

    def text(chosen: dict, key: tuple) -> str:
        if key not in chosen:
            return "-"
        _, takes, _ = mtlhouse.backtest.METHODS[kinds[key[1]]]
        return ", ".join(f"{name}={value!r}" for name, value in zip(takes, chosen[key]))

    keys = list(default) + [key for key in tight if key not in default]  # in run order
    print(f"seed {seed}: grid choices of the default solve | of a tight solve {TIGHT}")
    for key in keys:
        print(f"  {key[0]}  {key[1]}: {text(default, key)} | {text(tight, key)}")
    changed = [key for key in keys if default.get(key) != tight.get(key)]
    print(f"disagreements: {len(changed)} of {len(keys)}")
    for key in changed:
        print(f"  {key[0]}  {key[1]}: default {text(default, key)}, tight {text(tight, key)}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True, help="seed of the demo's synthetic market")
    sys.exit(run(parser.parse_args().seed))
