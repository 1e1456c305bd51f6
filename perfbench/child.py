"""One measured step of the benchmark, run in a fresh interpreter.

    python3 perfbench/child.py setup --workload NAME --seed N --workdir DIR [--smoke]
    python3 perfbench/child.py run --config PATH [--spans PATH] [--probe]

``setup`` times importing mtlhouse and writing the workload's inputs. ``run``
times one ``mtlhouse run`` through ``mtlhouse.cli.main``; with ``--spans`` it
records the traced run's spans and writes them out when the run has ended,
and with ``--probe`` it then re-solves the first joint fit of each
regularizer kind at a much tighter tolerance. The last line of standard
output is a JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup(args) -> dict:
    from workloads import WORKLOADS, write_inputs

    start = time.perf_counter()
    import mtlhouse  # noqa: F401 - importing the package is part of set-up

    write_inputs(WORKLOADS[args.workload], args.seed, Path(args.workdir), args.smoke)
    return {"setup_s": time.perf_counter() - start}


def run(args) -> dict:
    from mtlhouse import cli

    argv = ["run", "--config", args.config]
    recorder = None
    if args.spans:
        from spans import ROOT_SPAN, SpanRecorder

        recorder = SpanRecorder(keep_first_fits=args.probe)
        recorder.install()
    cpu = time.process_time()
    start = time.perf_counter()
    if recorder is None:
        code = cli.main(argv)
    else:
        code = recorder.call(ROOT_SPAN, None, cli.main, argv)
    run_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.uninstall()
        trace = {"spans": recorder.spans, "cpu_s": cpu_s, "probe": {}}
        if args.probe and code == 0:
            from spans import accuracy_probe

            trace["probe"] = accuracy_probe(recorder.first_fits)
        Path(args.spans).write_text(json.dumps(trace))
    return {"exit_code": code, "run_s": run_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="step", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--workload", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--workdir", required=True)
    s.add_argument("--smoke", action="store_true")
    s.set_defaults(func=setup)
    r = sub.add_parser("run")
    r.add_argument("--config", required=True)
    r.add_argument("--spans")
    r.add_argument("--probe", action="store_true")
    r.set_defaults(func=run)
    args = parser.parse_args()
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
