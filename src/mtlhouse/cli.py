"""Command-line front end: generate fixtures, run experiments, render reports.

Subcommands:
    generate --config cfg.json [--out DIR] [--seed N]
    run      --config cfg.json [--out DIR] [--seed N]
    report   RESULTS_DIR [--format csv|json|md] [--out DIR]

``run`` backtests the task definitions serially, in config order. The
MTLHOUSE_OUT environment variable, the only environment override, replaces
the configured output directory; ``--out`` overrides both.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from .backtest import make_rolling_plan, run_backtest
from .config import ConfigError, load_config
from .data import save_dataset
from .reports import (
    definition_result_dict,
    dump_json,
    render,
    write_records_csv,
    write_ranksum_csv,
    write_summary_csv,
    write_weights_csv,
    write_wld_csv,
)

ENV_OUT = "MTLHOUSE_OUT"


def _resolve_out(flag: Optional[str], config_out: str) -> Path:
    if flag:
        return Path(flag)
    env = os.environ.get(ENV_OUT)
    if env:
        return Path(env)
    return Path(config_out)


def cmd_generate(args) -> int:
    config = load_config(args.config).with_seed(args.seed)
    if config.source.synthetic is None:
        raise ConfigError("generate needs a synthetic data source")
    out = _resolve_out(args.out, config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset, planted = config.resolve_dataset()
    save_dataset(dataset, out / "dataset.csv")
    write_weights_csv(out / "planted_weights.csv", planted)
    synth = config.source.synthetic.to_dict()
    if config.seed is not None:
        synth["seed"] = config.seed
    dump_json(out / "config.json", synth)
    print(f"wrote {len(dataset)} records spanning {dataset.n_months} months to {out}")
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config).with_seed(args.seed)
    out = _resolve_out(args.out, config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dataset, _ = config.resolve_dataset()
    plan = make_rolling_plan(dataset, k=config.k, h=config.h)
    definitions = config.definitions()
    benchmark = config.benchmark_label
    method_order = [m.label for m in config.methods]

    report: dict = {
        "config": config.raw,
        "seed": config.effective_seed(),
        "k": config.k,
        "h": config.h,
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

    if report["partial"]:
        for text, message in report["errors"].items():
            print(f"error in {text!r}: {message}", file=sys.stderr)
        print(f"partial results written to {out}", file=sys.stderr)
        return 1
    print(f"wrote results for {len(report['definition_order'])} definitions to {out}")
    return 0


def cmd_report(args) -> int:
    out = Path(args.out) if args.out else None
    written = render(Path(args.results_dir), args.format, out)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlhouse",
        description="Multi-task house price prediction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write a synthetic dataset fixture")
    generate.add_argument("--config", required=True, help="experiment config JSON")
    generate.add_argument("--out", help="output directory")
    generate.add_argument("--seed", type=int, help="override the generator seed")
    generate.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run the rolling backtest described by a config")
    run.add_argument("--config", required=True, help="experiment config JSON")
    run.add_argument("--out", help="output directory")
    run.add_argument("--seed", type=int, help="override the generator seed")
    run.set_defaults(func=cmd_run)

    report = sub.add_parser("report", help="render stored results")
    report.add_argument("results_dir", help="directory holding report.json")
    report.add_argument("--format", choices=("csv", "json", "md"), default="md")
    report.add_argument("--out", help="directory for rendered files")
    report.set_defaults(func=cmd_report)
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
