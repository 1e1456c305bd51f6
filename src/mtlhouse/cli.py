"""Command-line front end: generate fixtures and run experiments.

Subcommands:
    generate --config cfg.json [--out DIR] [--seed N]
    run      --config cfg.json [--out DIR] [--seed N]

``run`` backtests the task definitions serially, in config order, and writes
every results file: ``report.json`` and ``records.csv`` always, and, when some
definition succeeded, ``summary.csv``, ``ranksum.csv``, ``wld.csv`` and
``report.md``. ``--out`` replaces the config's ``out_dir``. ``--seed``
replaces the seed of the config's synthetic generator; with a file source it
is an error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .backtest import HORIZON, make_rolling_plan, run_backtest
from .config import ConfigError, ExperimentConfig, load_config
from .data import save_dataset
from .reports import (
    definition_result_dict,
    dump_json,
    write_records_csv,
    write_ranksum_csv,
    write_report_md,
    write_summary_csv,
    write_weights_csv,
    write_wld_csv,
)
from .synthetic import SyntheticConfig


def _load(args) -> ExperimentConfig:
    """The config named by ``--config``, with ``--seed`` as its generator seed."""
    config = load_config(args.config)
    if args.seed is None:
        return config
    if not isinstance(config.source, SyntheticConfig):
        raise ConfigError("--seed replaces the synthetic generator seed; this config reads a file")
    return replace(config, source=replace(config.source, seed=args.seed))


def cmd_generate(args) -> int:
    config = _load(args)
    if not isinstance(config.source, SyntheticConfig):
        raise ConfigError("generate needs a synthetic data source")
    out = Path(args.out or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset, planted = config.resolve_dataset()
    save_dataset(dataset, out / "dataset.csv")
    write_weights_csv(out / "planted_weights.csv", planted)
    dump_json(out / "config.json", config.source.to_dict())
    print(f"wrote {len(dataset)} records spanning {dataset.n_months} months to {out}")
    return 0


def cmd_run(args) -> int:
    config = _load(args)
    out = Path(args.out or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dataset, _ = config.resolve_dataset()
    plan = make_rolling_plan(dataset, config.k)
    definitions = config.definitions()
    benchmark = config.benchmark_label
    method_order = [m.label for m in config.methods]

    report: dict = {
        "config": config.raw,
        "seed": config.source.seed if isinstance(config.source, SyntheticConfig) else None,
        "k": config.k,
        "h": HORIZON,
        "benchmark": benchmark,
        "method_order": method_order,
        "definition_order": [],
        "definitions": {},
        "partial": False,
        "errors": {},
    }
    record_rows = []
    for text, definition in zip(config.definition_texts, definitions):
        try:
            records, comparison = run_backtest(
                dataset, definition, config.methods, plan, benchmark=benchmark
            )
        except Exception as exc:  # noqa: BLE001 - reported per definition
            report["partial"] = True
            report["errors"][text] = f"{type(exc).__name__}: {exc}"
            continue
        report["definition_order"].append(text)
        report["definitions"][text] = definition_result_dict(
            records, comparison, method_order
        )
        record_rows.extend((text, r) for r in records)

    dump_json(out / "report.json", report)
    write_records_csv(out / "records.csv", record_rows)
    if report["definition_order"]:
        write_summary_csv(out / "summary.csv", report)
        write_ranksum_csv(out / "ranksum.csv", report)
        write_wld_csv(out / "wld.csv", report)
        write_report_md(out / "report.md", report)

    if report["partial"]:
        for text, message in report["errors"].items():
            print(f"error in {text!r}: {message}", file=sys.stderr)
        print(f"partial results written to {out}", file=sys.stderr)
        return 1
    print(f"wrote results for {len(report['definition_order'])} definitions to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlhouse",
        description="Multi-task house price prediction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write a synthetic dataset fixture")
    generate.add_argument("--config", required=True, help="experiment config JSON")
    generate.add_argument("--out", help="output directory, replacing the config's out_dir")
    generate.add_argument("--seed", type=int, help="replace the synthetic generator seed")
    generate.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run the rolling backtest described by a config")
    run.add_argument("--config", required=True, help="experiment config JSON")
    run.add_argument("--out", help="output directory, replacing the config's out_dir")
    run.add_argument("--seed", type=int, help="replace the synthetic generator seed")
    run.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single exit point for module errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
